"""The package and the CLI load only the modules a caller uses.

``import rareval`` loads no ``rareval.*`` module; each public name imports its
home module on first access. Each CLI command imports the modules it runs,
checked here in a fresh interpreter per command.
"""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import rareval

GOLDEN = json.loads((Path(__file__).parent / "golden" / "public_api.json").read_text(encoding="utf-8"))


def _loaded_after(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter; its last stdout line is a JSON report."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestPublicApi:
    def test_all_is_unchanged(self):
        assert rareval.__all__ == GOLDEN["__all__"]

    def test_each_name_is_its_home_modules_object(self):
        for name, home in GOLDEN["home"].items():
            assert getattr(rareval, name) is getattr(importlib.import_module(f"rareval.{home}"), name), name

    def test_each_public_function_keeps_its_signature(self):
        # classes are left out: enum and exception constructors print differently across Python versions
        public = {name: getattr(rareval, name) for name in rareval.__all__}
        signatures = {name: str(inspect.signature(f)) for name, f in public.items() if inspect.isfunction(f)}
        assert signatures == GOLDEN["signatures"]

    def test_star_import_binds_every_name_and_dir_lists_them(self):
        namespace: dict = {}
        exec("from rareval import *", namespace)
        assert set(rareval.__all__) <= namespace.keys()
        assert set(rareval.__all__) <= set(dir(rareval))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rareval.no_such_name

    def test_import_loads_no_submodule(self):
        loaded = _loaded_after(
            "import json, sys, rareval; print(json.dumps([m for m in sys.modules if m.startswith('rareval.')]))"
        )
        assert loaded == []


def test_public_functions_of_other_modules_are_called_through_their_modules():
    # a name bound by ``from .metrics import f`` keeps whatever ``metrics.f`` was
    # when the importing module first loaded, and with lazy loading that moment
    # varies: a replaced ``metrics.f`` (a test's monkeypatch, a tracer's wrapper)
    # would stick in a module loaded while it was in place
    for module_name in ("cli", "curves", "datamodel", "design", "metrics", "report", "robustness", "scle", "synth"):
        module = importlib.import_module(f"rareval.{module_name}")
        borrowed = [
            attr for attr, obj in vars(module).items()
            if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__.startswith("rareval.")
            and obj.__module__ not in (module.__name__, "rareval.provenance")
        ]
        assert borrowed == [], (module_name, borrowed)


_RUN_COMMAND = """
import contextlib, io, json, os, sys
import numpy
ma_with_numpy = "numpy.ma" in sys.modules
from rareval.cli import main
os.chdir(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({
    "code": code,
    "modules": sorted(m for m in sys.modules if m.startswith("rareval.")),
    "ma_with_numpy": ma_with_numpy,
    "ma": "numpy.ma" in sys.modules,
}))
"""

_ALWAYS = {"cli", "errors", "provenance"}
_EVALUATE = {"datamodel", "curves", "metrics", "report"}
_ROBUSTNESS = {"datamodel", "metrics", "robustness"}
_STUDY = ["--flag-rate-a", "0.05", "--flag-rate-b", "0.06", "--overlap-rate", "0.5",
          "--precision-a", "0.7", "--precision-b", "0.85", "--replicates", "50"]
# (argv, the rareval modules it may load besides _ALWAYS); paths are relative to the run directory
COMMANDS = {
    "evaluate-threshold": (["evaluate", "--input", "d.csv", "--threshold", "0.5", "--out-dir", "t"], _EVALUATE),
    "evaluate-costs": (
        ["evaluate", "--input", "d.csv", "--cost-fp", "1", "--cost-fn", "20", "--assumed-prevalence", "0.01",
         "--out-dir", "c"],
        _EVALUATE,
    ),
    "subsets": (["subsets", "--input", "d.csv", "--threshold", "0.5", "--attribute", "site"], _ROBUSTNESS),
    "resample": (["resample", "--input", "d.csv", "--threshold", "0.5", "--metric", "recall", "--n", "3"], _ROBUSTNESS),
    "stability": (["stability", "--input", "d.csv"], _ROBUSTNESS),
    "scle-sample": (
        ["scle", "sample", "--input", "d.csv", "--threshold", "0.5", "--n-fp", "2", "--n-fn", "2", "--out-dir", "s"],
        {"datamodel", "metrics", "scle"},
    ),
    "size-study": (["size-study", *_STUDY, "--sample-size", "2000"], {"design"}),
    "synth": (["synth", "--n", "200", "--prevalence", "0.1", "--out", "synth.csv"], {"datamodel", "synth"}),
    "checklist": (["checklist", "--out-dir", "k"], {"datamodel", "report"}),
    "adjust-precision": (
        ["adjust-precision", "--sensitivity", "0.9", "--specificity", "0.99", "--prevalence", "0.01"],
        {"datamodel", "metrics"},
    ),
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("lazy")
    rows = ["case_id,reference,score,sg_site,run_1,run_2"]
    for i in range(400):
        reference = "positive" if i % 5 == 0 else "negative"
        score = (0.3 if reference == "positive" else 0.0) + (i * 37 % 101) / 150
        rows.append(f"c{i},{reference},{score!r},{('north', 'south')[i % 2]},{i % 3 == 0:d},{i % 4 == 0:d}")
    (path / "d.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("name", COMMANDS)
def test_command_loads_only_its_modules(name, run_dir):
    argv, wanted = COMMANDS[name]
    report = _loaded_after(_RUN_COMMAND, json.dumps(argv), str(run_dir))
    assert report["code"] == 0
    loaded = {m.removeprefix("rareval.") for m in report["modules"]}
    assert loaded <= _ALWAYS | wanted, sorted(loaded - _ALWAYS - wanted)
    if name in ("evaluate-threshold", "evaluate-costs", "resample", "stability") and not report["ma_with_numpy"]:
        assert not report["ma"], f"{name} imported numpy.ma"


_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import rareval.cli
codes = []
for argv in (["--help"], ["evaluate", "--no-such-flag"]):
    sys.argv = ["rareval", *argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for run in (lambda: rareval.cli.main(argv), rareval.cli.main):  # in process, then as the program entry
            try:
                run()
            except SystemExit as exc:
                codes.append(exc.code)
print(json.dumps({"codes": codes, "evaluate_flags": rareval.cli.iter_flags()["rareval evaluate"]}))
"""


def test_cli_import_help_and_flag_errors_need_no_numpy():
    report = _loaded_after(_WITHOUT_NUMPY)
    assert report["codes"] == [0, 0, 2, 2]
    assert "--threshold" in report["evaluate_flags"]
    assert _loaded_after("import json, sys, rareval.cli; print(json.dumps('numpy' in sys.modules))") is False
