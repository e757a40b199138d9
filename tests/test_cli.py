"""End-to-end command-line workflows."""

import json

import pytest

from xmcreg.cli import run

TINY_TRAIN_CFG = (
    "epochs = 2\n"
    "batch_size = 4\n"
    "k = 3\n"
    "dim = 8\n"
    "dim_hidden = 16\n"
    "num_buckets = 1024\n"
    "seed = 0\n"
)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = run(
        ["generate-data", "--out", str(out), "--num-labels", "30", "--num-queries", "24", "--seed", "0"]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "train.cfg"
    cfg.write_text(TINY_TRAIN_CFG)
    code = run(["train", "--config", str(cfg), "--data", str(dataset_dir / "train"), "--out", str(out)])
    assert code == 0
    return out


class TestGenerate:
    def test_writes_both_splits(self, dataset_dir):
        for split in ("train", "test"):
            assert (dataset_dir / split / "labels.jsonl").exists()
            assert (dataset_dir / split / "queries.jsonl").exists()

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("num_labels = 20\nnum_train_queries = 10\nnum_test_queries = 4\nfamilies = 4\n")
        assert run(["generate-data", "--out", str(tmp_path / "d"), "--spec", str(spec)]) == 0

    def test_spec_file_error_has_location(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("num_labels = 20\nseed = 1.5\n")
        assert run(["generate-data", "--out", str(tmp_path / "d"), "--spec", str(spec)]) == 2
        assert "spec.cfg:2: " in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_spec_check_error_names_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("num_labels = 10\nfamilies = 20\n")
        assert run(["generate-data", "--out", str(tmp_path / "d"), "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert f"{spec}: " in err and "families" in err
        assert not (tmp_path / "d").exists()

    def test_missing_size_flags_is_usage_error(self, tmp_path):
        assert run(["generate-data", "--out", str(tmp_path / "d")]) == 1
        assert not (tmp_path / "d").exists()


class TestTrain:
    def test_outputs(self, trained_dir):
        assert (trained_dir / "checkpoint.bin").exists()
        assert (trained_dir / "checkpoint.bin.config.json").exists()
        log = (trained_dir / "train_log.jsonl").read_text().strip().split("\n")
        assert len(log) == 2
        assert set(json.loads(log[0])) == {"epoch", "base", "tcm", "xe_ql", "xe_qb", "total"}

    def test_missing_data_dir_is_runtime_error(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY_TRAIN_CFG)
        assert run(["train", "--config", str(cfg), "--data", str(tmp_path / "nope"), "--out", str(tmp_path)]) == 2

    def test_config_check_error_names_file(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY_TRAIN_CFG.replace("epochs = 2", "epochs = 0"))
        out = tmp_path / "out"
        assert run(["train", "--config", str(cfg), "--data", str(dataset_dir / "train"), "--out", str(out)]) == 2
        assert f"{cfg}: invalid training configuration" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()


class TestEval:
    def test_report_and_scores(self, trained_dir, dataset_dir, tmp_path):
        report = tmp_path / "report.json"
        scores = tmp_path / "scores.tsv"
        code = run(
            [
                "eval",
                "--checkpoint", str(trained_dir / "checkpoint.bin"),
                "--data", str(dataset_dir / "test"),
                "--target-precision", "0.85",
                "--report", str(report),
                "--scores", str(scores),
            ]
        )
        assert code == 0
        obj = json.loads(report.read_text())
        assert set(obj) == {"p_at_1", "c_at_1", "threshold", "target_precision", "histogram"}
        assert obj["target_precision"] == 0.85
        assert scores.read_text().startswith("query_id\tlabel_id\tscore\tcorrect\n")

    def test_calibration_split(self, trained_dir, dataset_dir, tmp_path):
        report = tmp_path / "cal_report.json"
        code = run(
            [
                "eval",
                "--checkpoint", str(trained_dir / "checkpoint.bin"),
                "--data", str(dataset_dir / "test"),
                "--calibration-split", str(dataset_dir / "train"),
                "--target-precision", "0.5",
                "--report", str(report),
            ]
        )
        assert code == 0
        obj = json.loads(report.read_text())
        assert 0.0 <= obj["c_at_1"] <= 1.0

    def test_train_then_eval_reproducible(self, dataset_dir, tmp_path):
        reports = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            out.mkdir()
            cfg = out / "train.cfg"
            cfg.write_text(TINY_TRAIN_CFG)
            assert run(["train", "--config", str(cfg), "--data", str(dataset_dir / "train"), "--out", str(out)]) == 0
            report = out / "report.json"
            assert run(
                [
                    "eval",
                    "--checkpoint", str(out / "checkpoint.bin"),
                    "--data", str(dataset_dir / "test"),
                    "--report", str(report),
                ]
            ) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]


class TestGradcheck:
    def test_seed7_passes(self, capsys):
        assert run(["gradcheck", "--seed", "7", "--tol", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "PASS" in out


class TestHistogram:
    def test_bins_scores_file(self, trained_dir, dataset_dir, tmp_path):
        scores = tmp_path / "scores.tsv"
        assert run(
            [
                "eval",
                "--checkpoint", str(trained_dir / "checkpoint.bin"),
                "--data", str(dataset_dir / "test"),
                "--report", str(tmp_path / "r.json"),
                "--scores", str(scores),
            ]
        ) == 0
        out = tmp_path / "hist.json"
        assert run(["histogram", "--scores", str(scores), "--bins", "10", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert set(obj) == {"edges", "correct_counts", "incorrect_counts", "overlap"}
        assert len(obj["edges"]) == 11


class TestUsage:
    def test_unknown_flag_exit_1_no_files(self, tmp_path):
        target = tmp_path / "x.json"
        assert run(["eval", "--bogus-flag", "1", "--report", str(target)]) == 1
        assert not target.exists()

    def test_no_subcommand(self):
        assert run([]) == 1

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1
