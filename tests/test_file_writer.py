"""One writer for every file rareval writes, and a write that fails leaves no file behind.

``provenance.write_file`` makes parent directories, writes UTF-8 bytes
untranslated, and turns a file that cannot be written, or text that is not
Unicode, into an input error (exit 2) naming the file. Text that is not
Unicode is refused where it enters: JSONL fields, attestations and the
enrichment justification.
"""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rareval import datamodel, design, metrics, scle, synth
from rareval.cli import main
from rareval.datamodel import Dataset, EvaluationCase, ReferenceLabel
from rareval.errors import IngestError, InputError
from rareval.provenance import write_file

ROOT = Path(__file__).resolve().parents[1]
DATA = "case_id,reference,score,sg_site\np,positive,0.9,n\nq,positive,0.4,s\nn,negative,0.1,n\nm,negative,0.6,s\n"
SEED_ERROR = f"seed must be an integer in [0, {2**63 - 1}], got "


def _exit(argv, capsys) -> tuple[int, str]:
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv])
    return exc.value.code, json.loads(capsys.readouterr().err)["error"]["message"]


def _file_writes(tree: ast.AST, path: Path) -> list[str]:
    """``file:line`` of every call in ``tree`` that opens a file for writing or calls ``write_text``/``write_bytes``."""
    sites, owner = [], {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(child), node.name) for child in ast.walk(node))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or (path.name, owner.get(id(node))) == ("provenance.py", "write_file"):
            continue
        name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
        # the mode of the builtin open is its second argument, of Path.open its first
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
        modes += node.args[1:2] if isinstance(node.func, ast.Name) else node.args[:1]
        writes_mode = any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)
        if name in ("write_text", "write_bytes") or (name == "open" and writes_mode):
            sites.append(f"{path.name}:{node.lineno}")
    return sites


def test_write_file_is_the_only_code_that_writes_a_file():
    sites = []
    for path in sorted((ROOT / "src" / "rareval").glob("*.py")):
        sites += _file_writes(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path)
    assert sites == []


def test_the_write_check_finds_each_kind_of_write():
    code = ("def f(p):\n    open(p, 'w')\n    open(p, mode='ab')\n    p.open('x')\n    p.write_text('')\n"
            "    p.write_bytes(b'')\n    open(p, m)\n    open(p)\n    open(p, 'rb')\n")
    assert _file_writes(ast.parse(code), Path("cli.py")) == [f"cli.py:{line}" for line in range(2, 8)]


class TestWriteFile:
    def test_writes_utf8_bytes_untranslated_and_returns_their_sha256(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        digest = write_file(target, ["é\r\n", b"\n", "x"])
        assert target.read_bytes() == "é\r\n\nx".encode("utf-8")
        assert digest == hashlib.sha256(target.read_bytes()).hexdigest()
        assert write_file(str(target), "z\n") == hashlib.sha256(b"z\n").hexdigest()

    def test_a_text_with_a_surrogate_is_refused_before_the_file_is_opened(self, tmp_path):
        target = tmp_path / "kept.txt"
        target.write_bytes(b"before")
        with pytest.raises(InputError, match="kept.txt: UnicodeEncodeError"):
            write_file(target, "a\udcffb")
        assert target.read_bytes() == b"before"

    def test_a_chunk_with_a_surrogate_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(InputError, match="out.txt: UnicodeEncodeError"):
            write_file(target, ["fine\n", "\ud800"])
        assert not target.exists()

    def test_a_chunk_that_raises_leaves_no_file(self, tmp_path):
        def chunks():
            yield b"half"
            raise RuntimeError("stopped")

        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError, match="stopped"):
            write_file(target, chunks())
        assert not target.exists()

    @pytest.mark.parametrize("where", ["parent_is_a_file", "path_is_a_directory"])
    def test_an_unwritable_path_is_an_input_error_naming_it(self, tmp_path, where):
        (tmp_path / "file").write_text("kept")
        (tmp_path / "dir").mkdir()
        target = tmp_path / ("file/out.txt" if where == "parent_is_a_file" else "dir")
        with pytest.raises(InputError, match=f"^{target}: "):
            write_file(target, "x")
        assert (tmp_path / "file").read_text() == "kept" and (tmp_path / "dir").is_dir()


def _emit_argv(writer: str, tmp_path: Path, out: Path) -> list:
    """A run of the command that writes ``writer`` to ``out`` (a file, or the directory of the review sheet)."""
    data = tmp_path / "d.csv"
    data.write_text(DATA)
    (tmp_path / "ann.json").write_text('{"kind": "scle_annotations", "annotations": []}')
    return {
        "report": ["evaluate", "--input", data, "--threshold", 0.5, "--out-dir", out],
        "emit_csv": ["scle", "apply", "--input", data, "--annotations", tmp_path / "ann.json", "--out", out],
        "emit_jsonl": ["synth", "--n", 50, "--prevalence", 0.2, "--format", "jsonl", "--out", out],
        "review_sheet": ["scle", "sample", "--input", data, "--threshold", 0.5, "--n-fp", 1, "--out-dir", out],
        "truth_sidecar": ["synth", "--n", 50, "--prevalence", 0.2, "--out", tmp_path / "s.csv", "--truth-out", out],
    }[writer]


_WRITTEN = {"report": "report.json", "review_sheet": "review_sheet.csv"}  # the file a directory run writes
WRITERS = ["report", "emit_csv", "emit_jsonl", "review_sheet", "truth_sidecar"]


@pytest.mark.parametrize("writer", WRITERS)
def test_each_writer_makes_a_missing_directory(writer, tmp_path, capsys):
    out = tmp_path / "missing" / "deeper" / "out"
    assert main([str(a) for a in _emit_argv(writer, tmp_path, out)]) == 0
    assert (out / _WRITTEN[writer] if writer in _WRITTEN else out).is_file()


@pytest.mark.parametrize("writer", WRITERS)
def test_each_writer_exits_2_naming_an_unwritable_path_and_leaves_no_file(writer, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    code, message = _exit(_emit_argv(writer, tmp_path, out), capsys)
    assert code == 2 and message.startswith(str(out)), message
    assert not out.exists()


def test_emit_of_cases_whose_id_holds_a_surrogate_leaves_no_file(tmp_path):
    dataset = Dataset([EvaluationCase("ok", ReferenceLabel.POSITIVE, 0.9),
                       EvaluationCase("\ud800x", ReferenceLabel.NEGATIVE, 0.1)])
    with pytest.raises(InputError, match="UnicodeEncodeError"):
        datamodel.emit(dataset, tmp_path / "d.csv", "csv")
    assert not (tmp_path / "d.csv").exists()


# --- text that is not Unicode is refused where it enters ------------------------------------------------------


@pytest.mark.parametrize("record, field", [
    ({"case_id": "\ud800x"}, "case_id"),
    ({"stratum_id": "s\udfff"}, "stratum_id"),
    ({"subgroups": {"site\ud800": "n"}}, "subgroups"),
    ({"subgroups": {"site": "\udc00"}}, "subgroups"),
])
def test_jsonl_text_with_a_surrogate_is_a_row_problem(tmp_path, record, field):
    rows = [{"case_id": "a", "reference": "positive", "score": 0.9}, {"case_id": "b", "reference": "negative",
                                                                        "score": 0.1, **record}]
    path = tmp_path / "d.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="ascii")  # the surrogate as an escape
    with pytest.raises(IngestError) as exc:
        datamodel.ingest(path, "jsonl")
    assert exc.value.problems == [f"row 2: field {field!r}: not Unicode text (unpaired surrogate)"]


@pytest.mark.parametrize("argv", [
    ["evaluate", "--threshold", 0.5],
    ["subsets", "--attribute", "site", "--threshold", 0.5],
    ["scle", "apply", "--annotations", "ann.json"],
], ids=["evaluate", "subsets", "scle-apply"])
def test_a_jsonl_surrogate_exits_2_and_writes_no_file(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("ann.json").write_text('{"kind": "scle_annotations", "annotations": []}')
    Path("d.jsonl").write_text('{"case_id": "a", "reference": "positive", "score": 0.9,'
                               ' "subgroups": {"site": "\\ud800"}}\n'
                               '{"case_id": "\\ud800x", "reference": "negative", "score": 0.1}\n')
    outputs = ["--out", "x.csv"] if argv[0] == "scle" else ["--out-dir", "out"]
    code, message = _exit([*argv, "--input", "d.jsonl", "--format", "jsonl", *outputs], capsys)
    assert code == 2 and "not Unicode text (unpaired surrogate)" in message, message
    assert sorted(os.listdir()) == ["ann.json", "d.jsonl"]


@pytest.mark.parametrize("flags, message", [
    (["--attest", "recall=ok\udcff"], "attestation for checklist consideration 'recall': not Unicode text"),
    (["--enrichment-justification", "x\udcff"], "--enrichment-justification: not Unicode text"),
], ids=["attest", "enrichment-justification"])
def test_an_argument_that_is_not_unicode_exits_2_before_the_input_is_read(flags, message, monkeypatch, capsys,
                                                                           tmp_path):
    monkeypatch.setattr("rareval.datamodel.ingest", lambda *a, **k: pytest.fail("the input was read"))
    code, error = _exit(["evaluate", "--input", tmp_path / "d.csv", "--threshold", 0.5, *flags,
                         "--out-dir", tmp_path / "out"], capsys)
    assert code == 2 and error.startswith(message), error
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(os.name != "posix", reason="an argument byte that is not UTF-8 needs a POSIX argv")
def test_an_attest_argument_byte_that_is_not_utf8_exits_2_and_writes_no_file(tmp_path):
    (tmp_path / "d.csv").write_text(DATA)
    argv = [sys.executable, "-m", "rareval.cli", "evaluate", "--input", "d.csv", "--threshold", "0.5",
            "--out-dir", "out", "--attest"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([*map(os.fsencode, argv), b"recall=ok\xff"], cwd=tmp_path, env=env, capture_output=True)
    assert proc.returncode == 2, proc.stderr
    assert "not Unicode text" in json.loads(proc.stderr)["error"]["message"]
    assert not (tmp_path / "out").exists()


def test_checklist_refuses_an_attestation_escape_that_is_not_unicode(tmp_path, capsys):
    outputs = tmp_path / "outputs.json"
    outputs.write_text('{"kind": "evaluation_outputs", "attestations": {"recall": "ok\\udcff"}}')
    code, message = _exit(["checklist", "--outputs", outputs, "--out-dir", tmp_path / "out"], capsys)
    assert code == 2 and "not Unicode text" in message, message
    assert not (tmp_path / "out").exists()


# --- one seed rule, checked when the record is built --------------------------------------------------------------


@pytest.mark.parametrize("seed", [-1, 2**63])
@pytest.mark.parametrize("build", [
    lambda seed: synth.PopulationSpec(n=10, prevalence=0.1, seed=seed),
    lambda seed: scle.ScleConfig(n_fp=1, seed=seed),
    lambda seed: design.PrecisionStudyAssumptions(100, 0.1, 0.1, 0.5, 0.8, 0.9, seed=seed),
], ids=["population", "scle", "study"])
def test_a_record_refuses_a_seed_outside_63_bits(build, seed):
    with pytest.raises(InputError, match=re.escape(f"{SEED_ERROR}{seed}")):
        build(seed)


def test_synth_refuses_a_seed_of_2_to_the_63(tmp_path, capsys):
    code, message = _exit(["synth", "--n", 10, "--prevalence", 0.1, "--seed", 2**63, "--out", tmp_path / "s.csv"],
                          capsys)
    assert (code, message) == (2, f"{SEED_ERROR}{2**63}")
    assert list(tmp_path.iterdir()) == []


# --- SCLE sampling weights count the enrichment design --------------------------------------------------------


def test_scle_weights_project_the_design_weighted_cell_size():
    rule = synth.EnrichmentRule("negative", 0.1)
    spec = synth.PopulationSpec(n=200_000, prevalence=0.005, enrichment=(rule,), seed=4)
    dataset = datamodel.apply_threshold(synth.generate(spec).dataset, 0.5)
    sample = scle.draw_sample(dataset, scle.ScleConfig(n_fp=20, n_tp=20))
    weights = {row.cell: row.sampling_weight for row in sample.rows}
    assert weights["FP"] == 1579.0
    counts = metrics.confusion(dataset)
    assert (weights["FP"] * 20, weights["TP"] * 20) == pytest.approx((counts.fp, counts.tp))
    assert sample.cell_population_sizes["FP"] == 3158  # test-set rows, not projected cases
