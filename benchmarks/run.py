"""rareval benchmark: closed-loop CLI workloads with an independent output check.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload evaluate-plain --seed 1 --seconds 20 --trace 0

One process runs one CLI child at a time (concurrency 1, closed loop). Each
run generates its inputs from ``--seed`` (untimed), times ``import
rareval.cli`` in fresh interpreters (``setup_s``), then repeats the
workload's pass of CLI invocations until ``--seconds`` have elapsed, checking
every invocation's outputs against an independent recomputation.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced subprocess runs. ``--trace 1`` runs the same argv in process through
``rareval.cli.main``, alternating traced and untraced passes, and reports the
per-layer metrics plus the tracing overhead. The last line of stdout is the
JSON result; a full record (machine, code, samples, spans) goes to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
CHILD_TIMEOUT_S = 150.0
MEASURE_CAP_S = 120.0  # never start a pass that could run past this
MIN_TRACED_PAIRS = 3  # per-layer figures average at least this many traced passes


def _fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


# --- machine and code record ---------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        p = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def machine_record() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
    }


# --- subprocess invocations ------------------------------------------------------


def run_child(argv: list[str], cwd: Path, env: dict, log: Path) -> tuple[float, int, int, str]:
    """Run one child to exit; returns (wall s, exit code, max RSS bytes, stderr tail)."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")[-400:]
    return wall, proc.returncode, usage.ru_maxrss * 1024, tail


def run_inprocess(argv: list[str], cwd: Path, log: Path) -> tuple[float, int, int, str]:
    """Call ``rareval.cli.main(argv)`` here; same return shape as :func:`run_child`."""
    main = sys.modules["rareval.cli"].main  # looked up per call: may be traced
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(argv) or 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            wall = time.perf_counter() - t0
    finally:
        os.chdir(previous)
    log.with_suffix(".out").write_text(out.getvalue(), encoding="utf-8")
    return wall, code, 0, err.getvalue()[-400:]


# --- the measurement loop ----------------------------------------------------------


class Recorder:
    """Samples, output checks and failure accounting of one run."""

    def __init__(self, steps, work: Path):
        import check  # imports numpy, so not before the cold import of a traced run

        self.check = check
        if any(s.name == "size_study" for s in steps):
            check.reference_power()  # a second or two of simulation, before any timing
        self.steps = steps
        self.work = work
        self.samples = {s.name: {"wall_s": [], "rss_bytes": [], "out_bytes": []} for s in steps}
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.self_test: dict[str, dict] = {}
        self._digests: dict[str, str] = {}

    def invoke(self, step, runner) -> tuple[float, int, int]:
        out = self.work / step.out
        shutil.rmtree(out, ignore_errors=True)
        log = self.work / "logs" / step.name
        wall, code, rss, err_tail = runner(step.argv, log)
        self.attempted += 1
        problems = self._verify(step, code, err_tail, log)
        if problems:
            self.failed += 1
            self.problems.extend(f"{step.name} (attempt {self.attempted}): {p}" for p in problems)
        out_bytes = self.check.tree_bytes(out)
        shutil.rmtree(out, ignore_errors=True)
        return wall, rss, out_bytes

    def _verify(self, step, code: int, err_tail: str, log: Path) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {err_tail.strip()}"]
        stdout = log.with_suffix(".out").read_text(encoding="utf-8")
        try:
            art = self.check.read_step(step, self.work, stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        problems = self.check.check_step(step, art)
        if step.name not in self.self_test:
            self.self_test[step.name] = self.check.self_test(step, art)
            tried = self.self_test[step.name]["tried"]
            print(f"checker self-test on {step.name}: {tried} corrupted outputs tried")
        digest = self.check.tree_digest([self.work / step.out, log.with_suffix(".out")])
        first = self._digests.setdefault(step.name, digest)
        if digest != first:
            problems.append("output tree differs from the first invocation of this run")
        return problems

    def run_pass(self, runner) -> dict:
        record = {"wall_s": 0.0, "rss_bytes": 0, "out_bytes": 0}
        for step in self.steps:
            wall, rss, out_bytes = self.invoke(step, runner)
            s = self.samples[step.name]
            s["wall_s"].append(wall)
            s["rss_bytes"].append(rss)
            s["out_bytes"].append(out_bytes)
            record["wall_s"] += wall
            record["rss_bytes"] = max(record["rss_bytes"], rss)
            record["out_bytes"] += out_bytes
            gc.collect()
        return record

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not any(t["missed"] for t in self.self_test.values())


def _loop(seconds: float, body, min_calls: int = 1) -> None:
    """Call ``body()`` until ``seconds`` have passed, and at least ``min_calls`` times."""
    t0 = time.perf_counter()
    longest = 0.0
    calls = 0
    while True:
        t = time.perf_counter()
        body()
        calls += 1
        longest = max(longest, time.perf_counter() - t)
        elapsed = time.perf_counter() - t0
        if calls >= min_calls and (elapsed >= seconds or elapsed + longest > MEASURE_CAP_S):
            return


def measure_setup(env: dict, work: Path) -> list[float]:
    argv = [sys.executable, "-c", "import rareval.cli"]
    log = work / "logs" / "setup"
    samples = []
    for _ in range(SETUP_REPS):
        wall, code, _, err = run_child(argv, work, env, log)
        if code != 0:
            raise RuntimeError(f"import rareval.cli failed: {err.strip()}")
        samples.append(wall)
    return samples


def end_to_end(rec: Recorder, setup: list[float]) -> dict[str, float]:
    rows = sum(s.population.rows for s in rec.steps if s.population is not None)
    pass_s = statistics.median(p["wall_s"] for p in rec.passes)
    return {
        "setup_s": statistics.median(setup),
        "pass_s": pass_s,
        "rows_per_s": rows / pass_s,
        "peak_rss_mb": statistics.median(p["rss_bytes"] for p in rec.passes) / 1e6,
        "output_mb": statistics.median(p["out_bytes"] for p in rec.passes) / 1e6,
    }


def report_table(workload: str, rec: Recorder, setup: list[float], e2e: dict) -> list[str]:
    """Every end-to-end metric of the workload, by name and with its unit.

    Timings show the median and the maximum with the sample count: a run holds
    too few samples for a percentile with ten samples beyond it.
    """
    lines = [f"workload {workload}: {len(rec.passes)} passes, {rec.attempted} invocations"]

    def timing(name: str, values: list[float]) -> None:
        lines.append(
            f"  {name:<22} median {statistics.median(values):.4f} s   max {max(values):.4f} s   n={len(values)}"
        )

    timing("setup_s", setup)
    for step in rec.steps:
        timing(f"{step.name}_s", rec.samples[step.name]["wall_s"])
    if len(rec.steps) > 1:
        timing("pass_s", [p["wall_s"] for p in rec.passes])
    lines.append(f"  {'rows_per_s':<22} median {e2e['rows_per_s']:.1f} rows/s")
    lines.append(f"  {'peak_rss_mb':<22} median {e2e['peak_rss_mb']:.1f} MB")
    lines.append(f"  {'output_mb':<22} median {e2e['output_mb']:.3f} MB")
    lines.append(f"  {'failed_ratio':<22} {rec.failed / rec.attempted:.4f} ({rec.failed}/{rec.attempted})")
    return lines


# --- runs ------------------------------------------------------------------------


def untraced_run(args, steps, work: Path, env: dict) -> tuple[dict, Recorder, dict]:
    setup = measure_setup(env, work)
    rec = Recorder(steps, work)
    child_argv = [sys.executable, "-m", "rareval.cli"]

    def runner(argv, log):
        return run_child(child_argv + argv, work, env, log)

    _loop(args.seconds, lambda: rec.passes.append(rec.run_pass(runner)))
    e2e = end_to_end(rec, setup)
    for line in report_table(args.workload, rec, setup, e2e):
        print(line)
    return e2e, rec, {"setup_s": setup}


def traced_run(args, steps, work: Path, import_s: float) -> tuple[dict, Recorder, dict]:
    import spans

    tracer = spans.Tracer()
    rec = Recorder(steps, work)
    walls = {"traced": [], "untraced": []}

    def runner(argv, log):
        tracer.invocation += 1  # span ids of untraced invocations are never recorded
        return run_inprocess(argv, work, log)

    def one(traced: bool) -> None:
        if traced:
            tracer.install()
        try:
            record = rec.run_pass(runner)
        finally:
            tracer.uninstall()
        walls["traced" if traced else "untraced"].append(record["wall_s"])
        if traced:
            rec.passes.append(record)

    def pair() -> None:
        traced_first = len(walls["traced"]) % 2 == 0
        for traced in (traced_first, not traced_first):
            one(traced)

    _loop(args.seconds, pair, min_calls=MIN_TRACED_PAIRS)
    n = len(walls["traced"])
    layer = tracer.layer_metrics(n)
    layer["cli.import_s"] = import_s
    layer["cli.bytes_written"] = statistics.median(p["out_bytes"] for p in rec.passes)
    layer["trace.spans"] = len(tracer.spans) / n
    # A pass's wall time drifts by far more than the tracer costs, so the
    # overhead metric is the time the wrappers spend outside the calls they
    # wrap; the traced-minus-untraced difference is printed beside it.
    layer["trace.overhead_s"] = tracer.own_s[0] / n
    measured = statistics.median(t - u for t, u in zip(walls["traced"], walls["untraced"]))
    print(
        f"workload {args.workload}: {n} traced and {len(walls['untraced'])} untraced in-process passes; "
        f"tracing overhead {layer['trace.overhead_s']:.4f} s per pass inside the wrappers; "
        f"traced minus untraced pass, median of {n} pairs: {measured:+.4f} s "
        f"(traced median {statistics.median(walls['traced']):.4f} s, "
        f"untraced {statistics.median(walls['untraced']):.4f} s)"
    )
    return layer, rec, {
        "pass_walls_s": walls,
        "measured_overhead_s": measured,
        "trace": tracer.to_json(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rareval" / "cli.py").is_file():
        return _fail(f"no rareval sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_s = None
    if args.trace:
        import spans  # imports nothing of rareval or numpy, so the timed import is cold

        import_s = spans.import_cli_timed()
    import workloads

    if args.workload not in workloads.NAMES:
        return _fail(f"unknown workload {args.workload!r} (expected one of {', '.join(workloads.NAMES)})")
    machine = machine_record()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    try:
        steps = workloads.build(args.workload, args.seed, work)
        if args.trace:
            metrics, rec, extra = traced_run(args, steps, work, import_s)
            wanted = spec["per_layer"]
        else:
            metrics, rec, extra = untraced_run(args, steps, work, env)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in rec.problems[:20]:
        print(f"FAILED {p}")
    for name, test in rec.self_test.items():
        for m in test["missed"]:
            print(f"SELF-TEST {name}: {m}")
    result = {
        "correct": rec.correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "result": result,
        "failed_ratio": rec.failed / rec.attempted,
        "problems": rec.problems,
        "self_test": rec.self_test,
        "samples": rec.samples,
        "passes": rec.passes,
        **extra,
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(f"result record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
