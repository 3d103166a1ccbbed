"""One writer for every file rareval writes, one reader for every file it reads, and a failed write leaves no file.

``provenance.write_file`` makes parent directories, writes UTF-8 bytes
untranslated, and turns a file that cannot be written, or text that is not
Unicode, into an input error (exit 2) naming the file. Text that is not
Unicode is refused where it enters: JSONL fields, attestations and the
enrichment justification.

``provenance.read_file`` reads every user file as UTF-8 with an optional BOM,
and turns a file that cannot be read or parsed into an input error (exit 2)
naming the file.

A run of the CLI never writes over a file it read: within a run,
``write_file`` refuses, before it opens anything, every path ``read_file``
was given, a dataset's design sidecar included even when it is absent, and
every hard link to a file it opened; the run exits 2 with its inputs unchanged. Every command reads all its inputs
before its first write, so where the clashing path is that first write,
nothing is written at all. One clash of two outputs is checked up front:
``synth --truth-out`` naming ``--out`` or its design sidecar. Library callers
outside a run, and the next run, are not bound by what a run read.
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rareval import datamodel, design, metrics, scle, synth
from rareval.cli import main
from rareval.datamodel import Dataset, EvaluationCase, ReferenceLabel
from rareval.errors import IngestError, InputError
from rareval.provenance import read_file, write_file

ROOT = Path(__file__).resolve().parents[1]
DATA = "case_id,reference,score,sg_site\np,positive,0.9,n\nq,positive,0.4,s\nn,negative,0.1,n\nm,negative,0.6,s\n"
SEED_ERROR = f"seed must be an integer in [0, {2**63 - 1}], got "


def _exit(argv, capsys) -> tuple[int, str]:
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv])
    return exc.value.code, json.loads(capsys.readouterr().err)["error"]["message"]


def _calls(tree: ast.AST, path: Path, exempt: set):
    """(node, called name, mode arguments) of every call in ``tree`` outside the functions ``exempt`` names.

    A function is named ``(file, qualified name)``, a method by its class: ``("synth.py", "TruthSidecar.read")``.
    """
    owner = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):  # an inner function, visited after, owns its own calls
                    owner.update((id(n), prefix + child.name) for n in ast.walk(child))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (path.name, owner.get(id(node))) not in exempt:
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
            # the mode of the builtin open is its second argument, of Path.open its first
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[1:2] if isinstance(node.func, ast.Name) else node.args[:1]
            yield node, name, modes


def _mode_has(modes: list, letters: str) -> bool:
    """Whether a mode argument holds one of ``letters``; a mode that is not a constant may hold any."""
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set(letters) for m in modes)


def _file_writes(tree: ast.AST, path: Path) -> list[str]:
    """``file:line`` of every call in ``tree`` that opens a file for writing or calls ``write_text``/``write_bytes``."""
    return [f"{path.name}:{node.lineno}" for node, name, modes in _calls(tree, path, {("provenance.py", "write_file")})
            if name in ("write_text", "write_bytes") or (name == "open" and _mode_has(modes, "wax+"))]


# The readers that stay besides the one reader: the oracle's reader, whose ValueError on a malformed sidecar is its
# contract and which no command runs on a user file, and the reader of the report schema, which is package data.
_READERS = {("provenance.py", "read_file"), ("synth.py", "TruthSidecar.read"), ("report.py", "load_report_schema")}


def _file_reads(tree: ast.AST, path: Path) -> list[str]:
    """``file:line`` of every call in ``tree`` that opens a file for reading or calls ``read_text``/``read_bytes``."""
    return [f"{path.name}:{node.lineno}" for node, name, modes in _calls(tree, path, _READERS)
            if name in ("read_text", "read_bytes") or (name == "open" and (not modes or _mode_has(modes, "r+")))]


def test_write_file_is_the_only_code_that_writes_a_file():
    sites = []
    for path in sorted((ROOT / "src" / "rareval").glob("*.py")):
        sites += _file_writes(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path)
    assert sites == []


def test_the_write_check_finds_each_kind_of_write():
    code = ("def f(p):\n    open(p, 'w')\n    open(p, mode='ab')\n    p.open('x')\n    p.write_text('')\n"
            "    p.write_bytes(b'')\n    open(p, m)\n    open(p)\n    open(p, 'rb')\n")
    assert _file_writes(ast.parse(code), Path("cli.py")) == [f"cli.py:{line}" for line in range(2, 8)]


def test_read_file_is_the_only_code_that_reads_a_file():
    sites = []
    for path in sorted((ROOT / "src" / "rareval").glob("*.py")):
        sites += _file_reads(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path)
    assert sites == []


def test_the_read_check_finds_each_kind_of_read():
    code = ("def f(p):\n    open(p)\n    open(p, 'rb')\n    open(p, mode='r+')\n    p.open()\n    p.open('r')\n"
            "    p.read_text()\n    p.read_bytes()\n    open(p, m)\n    open(p, 'w')\n    p.open('ab')\n"
            "class TruthSidecar:\n    def read(p):\n        open(p)\n")
    assert _file_reads(ast.parse(code), Path("cli.py")) == [f"cli.py:{line}" for line in (*range(2, 10), 14)]
    assert _file_reads(ast.parse(code), Path("synth.py")) == [f"synth.py:{line}" for line in range(2, 10)]


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


# --- one reader: every kind of user file, with a BOM and unreadable -------------------------------------------------

BOM = b"\xef\xbb\xbf"
STUDY = {"sample_size": 100, "flag_rate_a": 0.05, "flag_rate_b": 0.06, "overlap_rate": 0.5, "precision_a": 0.7,
         "precision_b": 0.85, "n_replicates": 20}
_EVALUATE = ["evaluate", "--threshold", "0.5", "--reproducible", "--out-dir", "out", "--input"]
_AGGREGATE = ["scle", "aggregate", "--sample", "rev/scle_sample.json", "--annotations", "ann.json", "--out-dir", "out"]
# each kind of user file, and a run that reads it; paths are relative to the run directory, whose "out" the run writes
READS = {
    "dataset_csv": ("d.csv", [*_EVALUATE, "d.csv"]),
    "dataset_jsonl": ("d.jsonl", [*_EVALUATE, "d.jsonl", "--format", "jsonl"]),
    "design_sidecar": ("d.csv.design.json", [*_EVALUATE, "d.csv"]),
    "config_json": ("study.json", ["size-study", "--config", "study.json"]),
    "config_key_value": ("study.txt", ["size-study", "--config", "study.txt"]),
    "spec_json": ("spec.json", ["synth", "--spec", "spec.json", "--out", "out/s.csv"]),
    "spec_key_value": ("spec.txt", ["synth", "--spec", "spec.txt", "--out", "out/s.csv"]),
    "outputs": ("ev/outputs.json", ["checklist", "--outputs", "ev/outputs.json", "--out-dir", "out"]),
    "sample": ("rev/scle_sample.json", _AGGREGATE),
    "annotations": ("ann.json", _AGGREGATE),
    "review_sheet": ("rev/review_sheet.csv", ["scle", "ingest", "--sheet", "rev/review_sheet.csv", "--sample",
                                              "rev/scle_sample.json", "--out", "out/ann.json"]),
}


def _write_user_files() -> None:
    """Every file of ``READS`` in the current directory: the texts, then the outputs of evaluate and scle sample."""
    rows = [dict(zip(("case_id", "reference", "score", "sg_site"), line.split(","))) for line in DATA.splitlines()[1:]]
    texts = {
        "d.csv": DATA,
        "d.jsonl": "".join(json.dumps({**row, "score": float(row["score"])}) + "\n" for row in rows),
        "d.csv.design.json": '{"kind": "dataset_design", "design": [], "metadata": {"source": "caf\u00e9 registry"}}',
        "study.json": json.dumps(STUDY),
        "study.txt": "".join(f"{key} = {value}\n" for key, value in STUDY.items()),
        "spec.json": '{"n": 200, "prevalence": 0.1, "seed": 3}',
        "spec.txt": "n = 200  # cases\nprevalence = 0.1\nseed = 3\n",
        "ann.json": '{"kind": "scle_annotations", "annotations": []}',
    }
    for name, text in texts.items():
        Path(name).write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        main(["evaluate", "--input", "d.csv", "--threshold", "0.5", "--reproducible", "--out-dir", "ev"])
        main(["scle", "sample", "--input", "d.csv", "--threshold", "0.5", "--n-fp", "1", "--n-tp", "1",
              "--reproducible", "--out-dir", "rev"])


def _run(argv, capsys) -> tuple[int, str, str, dict]:
    """Exit code, stdout, stderr and the files written under ``out`` of one run; ``out`` is removed after it."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    files = {str(p): p.read_bytes() for p in sorted(Path("out").rglob("*")) if p.is_file()}
    shutil.rmtree("out", ignore_errors=True)
    return code, *capsys.readouterr(), files


@pytest.mark.parametrize("kind", READS)
def test_a_bom_changes_nothing_a_run_prints_or_writes(kind, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_user_files()
    path, argv = READS[kind]
    plain = _run(argv, capsys)
    assert plain[0] == 0, plain[2]
    Path(path).write_bytes(BOM + Path(path).read_bytes())
    assert _run(argv, capsys) == plain


# a missing design sidecar is no sidecar: the dataset has no design
FAULTS = [(kind, fault) for kind in READS for fault in ("not_utf8", "directory", "missing")
          if (kind, fault) != ("design_sidecar", "missing")]


@pytest.mark.parametrize("kind, fault", FAULTS)
def test_a_user_file_that_cannot_be_read_exits_2_naming_it(kind, fault, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_user_files()
    path, argv = READS[kind]
    if fault == "not_utf8":
        Path(path).write_bytes(Path(path).read_bytes() + b"\xff\n")
    else:
        Path(path).unlink()
        if fault == "directory":
            Path(path).mkdir()
    code, _, stderr, files = _run(argv, capsys)
    error = json.loads(stderr)["error"]
    assert (code, error["type"]) == (2, "input"), error
    assert error["message"].startswith(f"no such file: {path}" if fault == "missing" else f"{path}: "), error
    assert files == {}


_RESAMPLE = ["resample", "--metric", "recall", "--n", 5, "--threshold", 0.5, "--input"]
_INGEST = ["scle", "ingest", "--sheet", "rev/review_sheet.csv", "--sample", "rev/scle_sample.json", "--out"]
_APPLY = ["scle", "apply", "--input", "d.csv", "--annotations", "ann.json", "--out"]


# each clash: a run, its refusal, and the files it writes before it (none where the clashing path is its first write)
@pytest.mark.parametrize("argv, message, written", [
    (["synth", "--n", 50, "--prevalence", 0.2, "--out", "t.csv", "--truth-out", "t.csv"],
     "--truth-out t.csv would overwrite t.csv, which this run writes", []),
    (["synth", "--n", 50, "--prevalence", 0.2, "--enrich", "negative:0.5", "--out", "t.csv", "--truth-out",
      "./t.csv.design.json"], "--truth-out ./t.csv.design.json would overwrite t.csv.design.json, which this run writes",
     []),
    ([*_APPLY, "./d.csv"], "d.csv would overwrite d.csv, which this run reads", []),
    ([*_APPLY, "d.csv.design.json"], "d.csv.design.json would overwrite d.csv.design.json, which this run reads", []),
    ([*_APPLY, "ann.json"], "ann.json would overwrite ann.json, which this run reads", []),
    (["scle", "apply", "--input", "d.jsonl", "--format", "jsonl", "--annotations", "ann.json", "--out",
      "d.jsonl.design.json"], "d.jsonl.design.json would overwrite d.jsonl.design.json, which this run reads", []),
    ([*_RESAMPLE, "d.csv", "--out", "d.csv"], "d.csv would overwrite d.csv, which this run reads", []),
    ([*_RESAMPLE, "d.csv", "--out", "d_link.csv"], "d_link.csv would overwrite d.csv, which this run reads", []),
    (["stability", "--input", "runs.csv", "--out", "rev/../runs.csv"],
     "rev/../runs.csv would overwrite runs.csv, which this run reads", []),
    ([*_INGEST, "rev/scle_sample.json"],
     "rev/scle_sample.json would overwrite rev/scle_sample.json, which this run reads", []),
    ([*_INGEST, "rev/review_sheet.csv"],
     "rev/review_sheet.csv would overwrite rev/review_sheet.csv, which this run reads", []),
    (["synth", "--spec", "spec.txt", "--out", "spec.txt"], "spec.txt would overwrite spec.txt, which this run reads",
     []),
    (["synth", "--spec", "spec.txt", "--out", "s.csv", "--truth-out", "spec.txt"],
     "spec.txt would overwrite spec.txt, which this run reads", ["s.csv", "s.csv.design.json"]),
    (["checklist", "--outputs", "ev/checklist.json", "--out-dir", "ev"],
     "ev/checklist.json would overwrite ev/checklist.json, which this run reads", []),
], ids=["truth-over-dataset", "truth-over-design-sidecar", "revision-over-input", "revision-over-input-sidecar",
        "revision-over-annotations", "revision-over-absent-input-sidecar", "resample-over-input",
        "resample-over-hard-link", "stability-over-input", "annotations-over-sample", "annotations-over-sheet",
        "synth-over-spec", "truth-over-spec", "checklist-over-outputs"])
def test_an_output_that_would_overwrite_a_file_of_the_run_exits_2_and_writes_nothing(argv, message, written,
                                                                                     tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_user_files()
    with contextlib.redirect_stdout(io.StringIO()):
        main(["synth", "--n", "40", "--prevalence", "0.3", "--n-runs", "3", "--out", "runs.csv"])
    shutil.copy("ev/outputs.json", "ev/checklist.json")  # an outputs document where checklist writes its own
    os.link("d.csv", "d_link.csv")  # a second name of the input, which is no output either
    before = {str(p): p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert _exit(argv, capsys) == (2, message)
    after = {str(p): p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert {path: after.get(path) for path in before} == before
    assert sorted(set(after) - set(before)) == [str(tmp_path / path) for path in written]


def test_a_run_shares_no_reads_with_the_next_and_a_library_caller_writes_what_it_read(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("x.csv", "y.csv"):
        Path(name).write_text(DATA)
    assert main([str(a) for a in [*_RESAMPLE, "x.csv"]]) == 0
    assert main([str(a) for a in [*_RESAMPLE, "y.csv", "--out", "x.csv"]]) == 0
    assert json.loads(Path("x.csv").read_text())["metric"] == "recall"
    assert _exit([*_RESAMPLE, "y.csv", "--out", "y.csv"], capsys)[0] == 2  # a refused run leaves no reads behind
    with read_file("y.csv") as fh:
        text = fh.read()
    write_file("y.csv", text + "r,negative,0.2,n\n")
    assert Path("y.csv").read_text() == DATA + "r,negative,0.2,n\n"
