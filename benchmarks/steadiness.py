"""Steadiness mode: two sets of benchmark runs of the same code, compared.

Usage, from the root of a checkout:

    python3 benchmarks/steadiness.py [--workloads a,b]

Each of the two sets runs ``benchmarks/run.py`` once per seed (ten distinct
seeds per set and workload, from 1000 on, never reused) on every workload,
one run at a time, with the ``run_seconds`` of ``BENCHMARK.json``. For every
end-to-end metric and workload it reports each set's median and quartiles
(``statistics.quantiles`` with n=4), the spread (q3 - q1) / median, the
metric's bound and the change of the second median against the first. A
metric holds when both spreads are within the bound and the two medians
differ by at most the bound, in either direction. The table goes to stdout
and the full record to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # seeds per set and workload
FIRST_SEED = 1000


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}: {p.stderr[-400:]}")
    return {**json.loads(lines[-1]), "run_wall_s": time.perf_counter() - t0}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    runs: dict[str, tuple[list[dict], list[dict]]] = {w: ([], []) for w in workloads}
    seed = FIRST_SEED
    for set_index in (0, 1):
        for w in workloads:
            for _ in range(RUNS):
                result = {"seed": seed, **run_once(w, seed, spec["run_seconds"])}
                runs[w][set_index].append(result)
                print(f"{w} seed {seed}: {result['run_wall_s']:.1f} s", flush=True)
                seed += 1

    table, steady = [], True
    for w in workloads:
        for m in spec["end_to_end"]:
            first, second = (
                summarize([r["metrics"][m["name"]]["value"] for r in results]) for results in runs[w]
            )
            change = (second["median"] - first["median"]) / first["median"]
            holds = max(first["spread"], second["spread"], abs(change)) <= m["bound"]
            steady &= holds
            table.append({"workload": w, "metric": m["name"], "unit": m["unit"], "bound": m["bound"],
                          "sets": [first, second], "change": change, "holds": holds})
            cells = "  ".join(
                f"median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}"
                for s in (first, second)
            )
            print(f"{w:<18} {m['name']:<12} bound {m['bound']:<5} {cells}  change {change:+.4f}"
                  f"  {'ok' if holds else 'NOT STEADY'}")
    incorrect = [(w, r["seed"]) for w in workloads for rs in runs[w] for r in rs if not r["correct"]]
    print(f"steady: {'yes' if steady else 'no'}")
    print(f"runs reporting correct=false: {incorrect or 'none'}")

    out = ROOT / ".bench_results" / f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"table": table, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    print(f"record: {out.relative_to(ROOT)}")
    return 0 if steady and not incorrect else 1


if __name__ == "__main__":
    raise SystemExit(main())
