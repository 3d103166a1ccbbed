"""rareval runs on what it declares: numpy and the standard library."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_WITHOUT_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any import of scipy or of its submodules now raises ImportError
from rareval.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(json.dumps({"command": argv[0], "code": code, "stdout": out.getvalue()}))
"""


def test_commands_run_without_scipy(tmp_path):
    # three sites of 600 cases with errors in every site, so every expected
    # cell of the error x site table is at least 5 and subsets takes the
    # chi-squared branch rather than the permutation screen
    rows = ["case_id,reference,score,sg_site"]
    for i in range(1800):
        reference = "positive" if i % 4 == 0 else "negative"
        score = (0.3 if reference == "positive" else 0.0) + (i * 37 % 101) / 150
        rows.append(f"c{i},{reference},{score!r},{('north', 'south', 'east')[i % 3]}")
    data = tmp_path / "sites.csv"
    data.write_text("\n".join(rows) + "\n")
    study = ["--flag-rate-a", "0.05", "--flag-rate-b", "0.06", "--overlap-rate", "0.5",
             "--precision-a", "0.7", "--precision-b", "0.85", "--replicates", "200"]
    commands = [
        ["size-study", *study, "--sample-size", "5000"],
        ["size-study", *study, "--target-power", "0.8"],
        ["subsets", "--input", str(data), "--threshold", "0.5", "--attribute", "site"],
        ["evaluate", "--input", str(data), "--threshold", "0.5", "--out-dir", str(tmp_path / "run")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(commands)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["command"], r["code"]) for r in results] == [(argv[0], 0) for argv in commands]
    subsets = json.loads(results[2]["stdout"])
    assert subsets["heterogeneity"]["test"] == "chi-squared"


def test_declared_dependencies_cover_every_import():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.split(r"[\s<>=!~\[;]", req, maxsplit=1)[0].lower() for req in project["dependencies"]}
    imported = set()
    for path in sorted((ROOT / "src" / "rareval").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"rareval"}
    assert third_party <= declared, f"imported but not declared: {sorted(third_party - declared)}"
    assert "scipy" not in declared
