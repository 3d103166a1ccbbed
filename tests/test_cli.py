import json
import subprocess
import sys
from pathlib import Path

import pytest

from rareval.cli import build_parser, iter_flags, main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv, check=True):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "rareval.cli", *map(str, argv)],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def synth_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "pop.csv"
    run_cli(
        "synth", "--out", out, "--n", 2000, "--prevalence", 0.1, "--separation", 3.0, "--seed", 5
    )
    return out


class TestSmallCommands:
    def test_adjust_precision_reproduces_counterfactual(self):
        _, stdout, _ = run_cli(
            "adjust-precision",
            "--sensitivity", 0.9944,
            "--specificity", 0.98,
            "--prevalence", 0.000679,
        )
        payload = json.loads(stdout)
        assert payload["adjusted_precision"] == pytest.approx(0.033, abs=0.005)

    def test_pair_prevalence_reproduces_published_number(self):
        _, stdout, _ = run_cli("pair-prevalence", "--n", 40_000_000, "--duplicate-fraction", 0.2)
        assert json.loads(stdout)["pair_prevalence"] == 5e-9

    def test_size_study_simulate(self):
        _, stdout, _ = run_cli(
            "size-study",
            "--sample-size", 30_000,
            "--flag-rate-a", 0.00995, "--flag-rate-b", 0.00995,
            "--overlap-rate", 0.5,
            "--precision-a", 0.95, "--precision-b", 0.855,
            "--replicates", 300, "--seed", 7,
        )
        payload = json.loads(stdout)
        assert set(payload) == {"power", "mc_stderr", "n_replicates", "seed"}
        assert 0.5 < payload["power"] < 1.0

    def test_size_study_config_file_overrides_flags(self, tmp_path):
        config = tmp_path / "study.cfg"
        config.write_text(
            "# assumptions\n"
            "flag_rate_a = 0.00995\n"
            "flag_rate_b = 0.00995\n"
            "overlap_rate = 0.5\n"
            "precision_a = 0.95\n"
            "precision_b = 0.855\n"
            "sample_size = 30000\n"
            "n_replicates = 200\n"
        )
        _, stdout, _ = run_cli(
            "size-study", "--config", config, "--sample-size", 10, "--seed", 7,
            "--flag-rate-a", 0.5, "--flag-rate-b", 0.5, "--overlap-rate", 0.0,
            "--precision-a", 0.5, "--precision-b", 0.5,
        )
        payload = json.loads(stdout)
        assert payload["n_replicates"] == 200


class TestErrorContract:
    def test_missing_file_is_input_error(self, tmp_path):
        code, _, stderr = run_cli("evaluate", "--input", tmp_path / "nope.csv", check=False)
        assert code == 2
        error = json.loads(stderr)["error"]
        assert error["exit_code"] == 2
        assert "no such file" in error["message"]

    def test_usage_error_json(self):
        code, _, stderr = run_cli("evaluate", check=False)
        assert code == 2
        assert json.loads(stderr)["error"]["type"] == "usage"

    def test_infeasible_request_exit_3(self):
        code, _, stderr = run_cli(
            "size-study",
            "--target-power", 0.99,
            "--flag-rate-a", 0.00995, "--flag-rate-b", 0.00995,
            "--overlap-rate", 0.5,
            "--precision-a", 0.95, "--precision-b", 0.9495,
            "--replicates", 100,
            check=False,
        )
        assert code == 3
        assert json.loads(stderr)["error"]["type"] == "infeasible"


class TestExitCodes:
    """Unreadable or malformed user files exit 2; any other exception is a defect (exit 4)."""

    @staticmethod
    def _exit(argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        return exc.value.code, json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("exc_type", [ValueError, KeyError, OSError])
    def test_internal_error_exits_4(self, exc_type, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise exc_type("internal slip")

        monkeypatch.setattr("rareval.metrics.bayes_adjusted_precision", broken)
        code, error = self._exit(
            ["adjust-precision", "--sensitivity", 0.9, "--specificity", 0.9, "--prevalence", 0.1], capsys
        )
        assert (code, error["type"]) == (4, "internal")
        assert "internal slip" in error["message"]

    def test_internal_error_after_ingest_exits_4(self, monkeypatch, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("case_id,reference,score\np,positive,0.9\nn,negative,0.1\n")
        monkeypatch.setattr("rareval.curves.pr_curve", lambda ds: {}["missing"])
        code, error = self._exit(["evaluate", "--input", data, "--threshold", 0.5, "--out-dir", tmp_path], capsys)
        assert (code, error["type"]) == (4, "internal")

    @pytest.mark.parametrize(
        "case",
        [
            "input_is_directory",
            "input_not_utf8",
            "malformed_design_sidecar",
            "out_dir_is_a_file",
            "config_not_json",
            "config_value_not_a_number",
            "outputs_not_json",
            "outputs_not_an_object",
            "missing_sample",
        ],
    )
    def test_unreadable_or_malformed_user_file_exits_2(self, case, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("case_id,reference,score\np,positive,0.9\nn,negative,0.1\n")
        bad = tmp_path / "bad.json"
        evaluate = ["evaluate", "--input", data, "--threshold", 0.5, "--out-dir", tmp_path / "out"]
        study = ["size-study", "--config", bad, "--sample-size", 100]
        if case == "input_is_directory":
            argv = ["evaluate", "--input", tmp_path, "--threshold", 0.5]
        elif case == "input_not_utf8":
            data.write_bytes("case_id,reference,score\n\xe9,positive,0.9\n".encode("latin-1"))
            argv = evaluate
        elif case == "malformed_design_sidecar":
            Path(f"{data}.design.json").write_text('{"kind": "dataset_design", "design": [{}]}')
            argv = evaluate
        elif case == "out_dir_is_a_file":
            (tmp_path / "out").write_text("")
            argv = evaluate
        elif case == "config_not_json":
            bad.write_text("{flag_rate_a: 0.1")
            argv = study
        elif case == "config_value_not_a_number":
            bad.write_text('{"flag_rate_a": "often", "flag_rate_b": 0.1, "overlap_rate": 0.5, '
                           '"precision_a": 0.9, "precision_b": 0.8}')
            argv = study
        elif case == "outputs_not_json":
            bad.write_text("{")
            argv = ["checklist", "--outputs", bad, "--out-dir", tmp_path]
        elif case == "outputs_not_an_object":
            bad.write_text("[]")
            argv = ["checklist", "--outputs", bad, "--out-dir", tmp_path]
        else:
            argv = ["scle", "aggregate", "--annotations", bad, "--sample", tmp_path / "nope.json"]
        code, error = self._exit(argv, capsys)
        assert (code, error["type"]) == (2, "input"), error

    @pytest.mark.parametrize("prevalence", [-3, 0, 1, 1.5])
    @pytest.mark.parametrize("selection", ["threshold", "k", "costs", "predictions"])
    def test_assumed_prevalence_outside_unit_interval_exits_2(self, selection, prevalence, capsys, tmp_path):
        data = tmp_path / "d.csv"
        if selection == "predictions":
            data.write_text("case_id,reference,predicted\np,positive,1\nn,negative,0\n")
        else:
            data.write_text("case_id,reference,score\np,positive,0.9\nn,negative,0.1\n")
        flags = {"threshold": ["--threshold", 0.5], "k": ["--k", 1], "costs": ["--cost-fp", 1, "--cost-fn", 5]}
        out = tmp_path / "out"
        argv = ["evaluate", "--input", data, *flags.get(selection, []), "--assumed-prevalence", prevalence,
                "--out-dir", out]
        code, error = self._exit(argv, capsys)
        assert (code, error["type"]) == (2, "input"), error
        assert "--assumed-prevalence must be in (0, 1)" in error["message"]
        assert not out.exists()


class TestHelpGolden:
    def test_every_flag_enumerated(self):
        golden = json.loads((GOLDEN / "cli_flags.json").read_text())
        assert iter_flags() == golden

    def test_help_renders_each_flag(self):
        parser = build_parser()
        text = parser.format_help()
        assert "evaluate" in text and "pair-prevalence" in text
        for sub in ("evaluate", "scle", "synth", "checklist"):
            code, stdout, _ = run_cli(sub, "--help", check=False)
            assert code == 0
            for flag in json.loads((GOLDEN / "cli_flags.json").read_text())[f"rareval {sub}"]:
                assert flag in stdout


class TestSynthCommand:
    def test_writes_dataset_and_truth_sidecar(self, synth_dataset):
        assert synth_dataset.exists()
        truth = Path(str(synth_dataset) + ".truth.json")
        assert truth.exists()
        payload = json.loads(truth.read_text())
        assert payload["kind"] == "truth_sidecar"

    def test_truth_sidecar_rejected_by_evaluate(self, synth_dataset, tmp_path):
        truth = Path(str(synth_dataset) + ".truth.json")
        code, _, stderr = run_cli(
            "evaluate", "--input", truth, "--threshold", 0.5, "--out-dir", tmp_path, check=False
        )
        assert code == 2
        assert "truth sidecar" in json.loads(stderr)["error"]["message"]


class TestEvaluate:
    def test_run_with_threshold_writes_tree(self, synth_dataset, tmp_path):
        out_dir = tmp_path / "run"
        code, stdout, _ = run_cli(
            "evaluate",
            "--input", synth_dataset,
            "--threshold", 0.5,
            "--assumed-prevalence", 0.001,
            "--seed", 3,
            "--out-dir", out_dir,
            "--reproducible",
        )
        assert code == 0
        for name in ("report.json", "report.md", "metrics.json", "outputs.json", "pr_curve.csv", "warnings.json"):
            assert (out_dir / name).exists(), name
        assert not (out_dir / "roc_curve.csv").exists()
        assert "recall" in stdout
        warnings = json.loads((out_dir / "warnings.json").read_text())
        codes = {w["code"] for w in warnings}
        assert "auc_low_prevalence" in codes
        assert "enrichment_optimism" in codes

    def test_reproducible_runs_byte_identical(self, synth_dataset, tmp_path):
        trees = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            run_cli(
                "evaluate", "--input", synth_dataset, "--threshold", 0.5,
                "--seed", 11, "--out-dir", out_dir, "--reproducible",
            )
            trees.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert trees[0] == trees[1]

    def test_report_json_validates_against_schema(self, synth_dataset, tmp_path):
        import jsonschema

        from rareval.report import load_report_schema

        out_dir = tmp_path / "run"
        run_cli(
            "evaluate", "--input", synth_dataset, "--threshold", 0.5,
            "--seed", 1, "--out-dir", out_dir, "--reproducible",
        )
        doc = json.loads((out_dir / "report.json").read_text())
        jsonschema.validate(doc, load_report_schema())

    def test_conflicting_drivers_rejected(self, synth_dataset, tmp_path):
        code, _, stderr = run_cli(
            "evaluate", "--input", synth_dataset, "--threshold", 0.5, "--k", 10,
            "--out-dir", tmp_path, check=False,
        )
        assert code == 2
        assert "exactly one" in json.loads(stderr)["error"]["message"]

    def test_k_driver(self, synth_dataset, tmp_path):
        out_dir = tmp_path / "runk"
        run_cli(
            "evaluate", "--input", synth_dataset, "--k", 50, "--seed", 2,
            "--out-dir", out_dir, "--reproducible",
        )
        metrics = json.loads((out_dir / "metrics.json").read_text())
        names = {m["metric"] for m in metrics}
        assert "precision_at_50" in names

    def test_cost_driver_selects_operating_point(self, synth_dataset, tmp_path):
        out_dir = tmp_path / "runc"
        run_cli(
            "evaluate", "--input", synth_dataset,
            "--cost-fp", 1.0, "--cost-fn", 50.0, "--assumed-prevalence", 0.1,
            "--seed", 2, "--out-dir", out_dir, "--reproducible",
        )
        report = json.loads((out_dir / "report.json").read_text())
        assert report["curves"]["operating_point"] is not None

    def test_prediction_only_dataset_runs_without_curves(self, tmp_path):
        data = tmp_path / "pred.csv"
        data.write_text(
            "case_id,reference,predicted\n"
            + "".join(f"p{i},positive,{int(i < 15)}\n" for i in range(20))
            + "".join(f"n{i},negative,{int(i < 5)}\n" for i in range(40))
        )
        out_dir = tmp_path / "run"
        code, stdout, _ = run_cli(
            "evaluate", "--input", data, "--out-dir", out_dir, "--reproducible",
        )
        assert code == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        by_name = {m["metric"]: m for m in metrics}
        assert by_name["recall"]["value"] == pytest.approx(0.75)
        assert not (out_dir / "pr_curve.csv").exists()


class TestScleWorkflow:
    def test_sample_ingest_aggregate_apply(self, synth_dataset, tmp_path):
        out_dir = tmp_path / "scle"
        code, stdout, _ = run_cli(
            "scle", "sample",
            "--input", synth_dataset, "--threshold", 0.5,
            "--n-fp", 3, "--n-fn", 3, "--n-tp", 3,
            "--seed", 9, "--out-dir", out_dir, "--reproducible",
        )
        info = json.loads(stdout)
        sheet = Path(info["sheet"])
        sample = Path(info["sample"])
        assert sheet.exists() and sample.exists()

        # annotate one TP row as trivial with a verdict
        lines = sheet.read_text().splitlines()
        tp_index = next(i for i, l in enumerate(lines) if ",TP," in l)
        parts = lines[tp_index].split(",")
        parts[-3] = "trivial"
        parts[-1] = "negative"
        lines[tp_index] = ",".join(parts)
        sheet.write_text("\n".join(lines) + "\n")

        annotations_path = out_dir / "annotations.json"
        run_cli("scle", "ingest", "--sheet", sheet, "--sample", sample, "--out", annotations_path)
        payload = json.loads(annotations_path.read_text())
        assert len(payload["annotations"]) == 1

        code, stdout, _ = run_cli(
            "scle", "aggregate", "--annotations", annotations_path, "--sample", sample,
            "--out-dir", out_dir,
        )
        summary = json.loads(stdout)
        assert summary["triviality_rate"] == pytest.approx(1 / 3)
        assert (out_dir / "scle_summary.md").exists()

        revised = out_dir / "revised.csv"
        run_cli(
            "scle", "apply", "--input", synth_dataset, "--annotations", annotations_path,
            "--out", revised,
        )
        assert revised.exists()


class TestRobustnessCommands:
    def test_stability_roundtrip(self, tmp_path):
        data = tmp_path / "runs.csv"
        run_cli(
            "synth", "--out", data, "--n", 400, "--prevalence", 0.3,
            "--n-runs", 3, "--flip-probability", 0.0, "--seed", 4,
        )
        _, stdout, _ = run_cli("stability", "--input", data)
        payload = json.loads(stdout)
        assert payload["unanimity_rate"] == 1.0

    def test_subsets_and_resample(self, synth_dataset, tmp_path):
        out = tmp_path / "resample.json"
        _, stdout, _ = run_cli(
            "resample", "--input", synth_dataset, "--threshold", 0.5,
            "--metric", "recall", "--n", 50, "--seed", 2, "--out", out,
        )
        payload = json.loads(stdout)
        assert payload["scheme"] == "bootstrap"
        assert len(payload["values"]) == 50
        assert json.loads(out.read_text())["mean"] == payload["mean"]


class TestChecklistCommand:
    def test_empty_checklist(self, tmp_path):
        _, stdout, _ = run_cli("checklist", "--out-dir", tmp_path)
        rows = json.loads((tmp_path / "checklist.json").read_text())
        assert len(rows) == 12
        assert all(r["status"] in ("unsatisfied", "external_evidence_required") for r in rows)

    def test_checklist_from_evaluate_outputs(self, synth_dataset, tmp_path):
        run_dir = tmp_path / "run"
        run_cli(
            "evaluate", "--input", synth_dataset, "--threshold", 0.5,
            "--seed", 1, "--out-dir", run_dir, "--reproducible",
        )
        out_dir = tmp_path / "cl"
        run_cli(
            "checklist", "--outputs", run_dir / "outputs.json",
            "--attest", "metrics=reviewed and appropriate",
            "--out-dir", out_dir,
        )
        rows = {r["consideration"]: r for r in json.loads((out_dir / "checklist.json").read_text())}
        assert rows["metrics"]["status"] == "satisfied"
        assert rows["recall"]["status"] in ("partial", "satisfied")


def test_main_returns_zero_in_process(capsys):
    assert main(["adjust-precision", "--sensitivity", "0.9", "--specificity", "0.99", "--prevalence", "0.01"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0 < payload["adjusted_precision"] < 1


def _strict_json(text):
    """Parse JSON the way strict parsers do: NaN and +-Infinity are errors."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    @pytest.fixture
    def sited_csv(self, tmp_path):
        """200 scored cases over two sites; the single highest score is a negative."""
        rows = ["case_id,reference,score,sg_site"]
        for i in range(200):
            reference = "positive" if i % 10 == 0 else "negative"
            score = (0.5 if reference == "positive" else 0.0) + (i * 37 % 199) / 500
            rows.append(f"c{i:03d},{reference},{score!r},{'north' if i % 3 else 'south'}")
        rows.append("top,negative,0.999,north")
        path = tmp_path / "sited.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_every_emitted_json_file_is_strict(self, sited_csv, tmp_path):
        out = tmp_path / "out"
        stdouts = [
            run_cli("evaluate", "--input", sited_csv, "--threshold", 0.5, "--seed", 1,
                    "--out-dir", out / "threshold", "--reproducible")[1],
            # a false positive costs so much that predicting nothing is cheapest
            run_cli("evaluate", "--input", sited_csv, "--cost-fp", 1000, "--cost-fn", 1,
                    "--assumed-prevalence", 0.001, "--out-dir", out / "inf", "--reproducible")[1],
            run_cli("scle", "sample", "--input", sited_csv, "--threshold", 0.5, "--n-fp", 3,
                    "--n-fn", 3, "--n-tp", 3, "--out-dir", out / "scle", "--reproducible")[1],
            run_cli("subsets", "--input", sited_csv, "--threshold", 0.5, "--attribute", "site",
                    "--out-dir", out / "subsets")[1],
            # only the top case is predicted positive: precision is undefined in 4 of 5 folds
            run_cli("resample", "--input", sited_csv, "--threshold", 0.99, "--metric", "precision",
                    "--scheme", "k_fold", "--n", 5, "--out", out / "resample.json")[1],
        ]
        files = sorted(out.rglob("*.json"))
        assert len(files) == 4 + 4 + 1 + 1 + 1
        docs = {p.relative_to(out).as_posix(): _strict_json(p.read_text(encoding="utf-8")) for p in files}
        for stdout in stdouts[2:]:
            _strict_json(stdout.strip().splitlines()[-1])

        assert docs["inf/report.json"]["curves"]["threshold"] is None
        assert docs["inf/report.json"]["curves"]["operating_point"]["threshold"] is None
        assert docs["inf/outputs.json"]["threshold"] is None
        assert "Threshold:" not in (out / "inf" / "report.md").read_text()
        assert docs["threshold/report.json"]["curves"]["threshold"] == 0.5
        resample = docs["resample.json"]
        assert resample["n_undefined"] == 4
        assert resample["values"].count(None) == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_float_flags_are_usage_errors(self, value, capsys):
        for argv in (
            ["evaluate", "--input", "missing.csv", f"--threshold={value}"],
            ["adjust-precision", "--sensitivity", "0.9", "--specificity", "0.9", f"--prevalence={value}"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            error = json.loads(capsys.readouterr().err)["error"]
            assert error["type"] == "usage"
            assert "not a finite number" in error["message"]


def test_cli_import_does_not_load_scipy():
    code = "import sys, rareval.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
