"""End-to-end command-line workflows."""

import hashlib
import importlib.util
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xmcreg import verify
from xmcreg.cli import run
from xmcreg.experiments import ComparisonResult, RunResult
from xmcreg.trainer import Checkpoint, write_tensors

from conftest import deadline

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

    def test_negative_spec_seed_names_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("num_labels = 20\nfamilies = 4\nseed = -1\n")
        assert run(["generate-data", "--out", str(tmp_path / "d"), "--spec", str(spec)]) == 2
        assert f"error: {spec}: need seed >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_family_cap_names_file_field_and_value(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("families = 500\n")
        assert run(["generate-data", "--out", str(tmp_path / "d"), "--spec", str(spec)]) == 2
        assert f"error: {spec}: need families in [2, 384], got 500" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_duplicate_spec_key_names_both_lines(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("num_labels = 20\nfamilies = 4\nnum_labels = 30\n")
        assert run(["generate-data", "--out", str(tmp_path / "d"), "--spec", str(spec)]) == 2
        assert f"error: {spec}:3: duplicate key 'num_labels' (first set on line 1)" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_empty_test_split_refused_naming_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("num_labels = 20\nnum_train_queries = 10\nnum_test_queries = 0\nfamilies = 4\n")
        assert run(["generate-data", "--out", str(tmp_path / "d"), "--spec", str(spec)]) == 2
        assert f"error: {spec}: need num_test_queries >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_labels_past_the_title_cap_name_file_and_both_numbers(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("num_labels = 1025\nfamilies = 2\n")
        assert run(["generate-data", "--out", str(tmp_path / "d"), "--spec", str(spec)]) == 2
        assert (f"error: {spec}: need num_labels <= 1024 (512 titles x 2 families), got 1025"
                in capsys.readouterr().err)
        assert not (tmp_path / "d").exists()

    def test_num_labels_flag_past_the_title_cap_fails(self, tmp_path, capsys):
        code = run(["generate-data", "--out", str(tmp_path / "d"), "--num-labels", "12000", "--num-queries", "8"])
        assert code == 2
        assert "error: need num_labels <= 10240 (512 titles x 20 families), got 12000" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_missing_size_flags_is_usage_error(self, tmp_path):
        assert run(["generate-data", "--out", str(tmp_path / "d")]) == 1
        assert not (tmp_path / "d").exists()

    # (flag, the SyntheticSpec field it sets, a value the field refuses, message)
    BAD_VALUES = [
        ("--seed", "seed", "-1", "need seed >= 0, got -1"),
        ("--num-labels", "num_labels", "-4", "need num_labels >= families (20), got -4"),
        ("--num-queries", "num_train_queries", "0", "need num_train_queries >= 1, got 0"),
    ]

    @pytest.mark.parametrize("flag, field, value, message", BAD_VALUES, ids=[case[0] for case in BAD_VALUES])
    def test_bad_flag_is_usage_error_naming_it_before_writing(self, tmp_path, capsys, flag, field, value, message):
        flags = {"--num-labels": "40", "--num-queries": "10", flag: value}
        argv = ["generate-data", "--out", str(tmp_path / "d"), *(t for pair in flags.items() for t in pair)]
        assert run(argv) == 1
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flag, field, value, message", BAD_VALUES, ids=[case[0] for case in BAD_VALUES])
    def test_same_value_in_a_spec_file_names_the_file(self, tmp_path, capsys, flag, field, value, message):
        spec = tmp_path / "spec.cfg"
        lines = {"num_labels": "40", "num_train_queries": "10", field: value}
        spec.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert run(["generate-data", "--out", str(tmp_path / "d"), "--spec", str(spec)]) == 2
        assert f"error: {spec}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flag", ["--num-labels", "--num-queries", "--seed"])
    def test_spec_with_a_size_or_seed_flag_is_usage_error_before_writing(self, tmp_path, capsys, flag):
        spec = tmp_path / "spec.cfg"
        spec.write_text("num_labels = 20\nnum_train_queries = 10\nnum_test_queries = 4\nfamilies = 4\n")
        assert run(["generate-data", "--out", str(tmp_path / "d"), "--spec", str(spec), flag, "5"]) == 1
        assert f"argument {flag}: not allowed with argument --spec" in capsys.readouterr().err
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


    def test_config_check_error_names_field_value_and_file(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY_TRAIN_CFG + "refresh_cadence = 0\n")
        out = tmp_path / "out"
        assert run(["train", "--config", str(cfg), "--data", str(dataset_dir / "train"), "--out", str(out)]) == 2
        assert f"{cfg}: invalid training configuration: refresh_cadence must be >= 1, got 0" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()

    def test_model_size_check_error_names_field_and_file(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY_TRAIN_CFG.replace("dim_hidden = 16", "dim_hidden = 0"))
        out = tmp_path / "out"
        assert run(["train", "--config", str(cfg), "--data", str(dataset_dir / "train"), "--out", str(out)]) == 2
        assert f"{cfg}: invalid training configuration: dim_hidden must be >= 1, got 0" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()

    def test_margin_check_error_names_file(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY_TRAIN_CFG + "m_plus = 0.3\n")
        out = tmp_path / "out"
        assert run(["train", "--config", str(cfg), "--data", str(dataset_dir / "train"), "--out", str(out)]) == 2
        message = "invalid training configuration: m_plus must be in (m_minus, 1] with tcm_enabled, got 0.3"
        assert f"{cfg}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("seed = -1", "seed must be >= 0, got -1"),
        ("learning_rate = inf", "learning_rate must be finite, got inf"),
        ("beta2 = -1", "beta2 must be finite and >= 0, got -1.0"),
    ])
    def test_unchecked_values_rejected_before_training(self, dataset_dir, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_TRAIN_CFG.replace("seed = 0\n", "") + line + "\n")
        out = tmp_path / "out"
        assert run(["train", "--config", str(cfg), "--data", str(dataset_dir / "train"), "--out", str(out)]) == 2
        assert f"error: {cfg}: invalid training configuration: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_lone_surrogate_in_a_text_names_file_line_and_field(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "labels.jsonl").write_text('{"id": 1, "text": "a"}\n{"id": 0, "text": "ab\\ud800c"}\n')
        (data / "queries.jsonl").write_text('{"id": 0, "text": "q", "labels": [0]}\n')
        cfg = tmp_path / "run.cfg"
        cfg.write_text("batch_size = 2\n")
        out = tmp_path / "out"
        assert run(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 2
        message = f"error: {data / 'labels.jsonl'}:2: 'text' is not UTF-8 text: surrogates not allowed at character 2"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_config_key_names_both_lines(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\n" + TINY_TRAIN_CFG.replace("epochs = 2", "# two epochs\nepochs = 2"))
        out = tmp_path / "out"
        assert run(["train", "--config", str(cfg), "--data", str(dataset_dir / "train"), "--out", str(out)]) == 2
        assert f"error: {cfg}:3: duplicate key 'epochs' (first set on line 1)" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_checkpoint_without_model_tensor_names_file_and_tensor(self, trained_dir, dataset_dir, tmp_path, capsys):
        ckpt = Checkpoint.load(trained_dir / "checkpoint.bin")
        del ckpt.tensors["head_qb/b2"]
        path = tmp_path / "partial.bin"
        ckpt.save(path)
        report = tmp_path / "report.json"
        code = run(["eval", "--checkpoint", str(path), "--data", str(dataset_dir / "test"), "--report", str(report)])
        assert code == 2
        assert f"error: {path}: no model tensor 'head_qb/b2'" in capsys.readouterr().err
        assert not report.exists()

    # (tensor, how it is malformed, the error after the checkpoint's path); the
    # tiny config's table is (1024, 16) and its projection (16, 8)
    BAD_ENCODERS = [
        ("encoder/projection", lambda t: np.array(t[0, 0]), "encoder/projection has shape (), need 2 dimensions"),
        ("encoder/bucket_table", lambda t: t[:0], "encoder/bucket_table has shape (0, 16), need >= 1024 rows"),
        ("encoder/projection", lambda t: t.T,
         "encoder/projection has shape (8, 16), need 16 rows, the bucket_table's width"),
        ("encoder/bucket_table", lambda t: t[:10], "encoder/bucket_table has shape (10, 16), need >= 1024 rows"),
        ("encoder/projection", lambda t: t[:, :1], "encoder/projection has shape (16, 1), need >= 2 columns"),
        ("head_ql/w1", lambda t: np.array(t[0, 0]), "head_ql/w1 has shape (), need (32, 32)"),
        ("head_ql/w1", lambda t: t[:3], "head_ql/w1 has shape (3, 32), need (32, 32)"),
        ("block/wq", lambda t: t[:, :5], "block/wq has shape (32, 5), need (32, 32)"),
        ("head_qb/b2", lambda t: t[:0], "head_qb/b2 has shape (0,), need (1,)"),
        ("block/ff_b1", lambda t: t[:32], "block/ff_b1 has shape (32,), need (64,)"),
        ("head_qb/w2", lambda t: t[..., None], "head_qb/w2 has shape (128, 1, 1), need (128, 1)"),
    ]

    @pytest.mark.parametrize("name, malform, message", BAD_ENCODERS,
                             ids=["rank-0", "0-row-table", "transposed", "10-row-table", "1-column",
                                  "rank-0-head", "3-row-head", "5-column-block", "0-row-head-bias",
                                  "32-row-block-bias", "rank-3-head"])
    def test_malformed_encoder_without_sidecar_fails_naming_file_and_tensor(
        self, trained_dir, dataset_dir, tmp_path, capsys, name, malform, message
    ):
        tensors = dict(Checkpoint.load(trained_dir / "checkpoint.bin").tensors)
        tensors[name] = malform(tensors[name])
        path = tmp_path / "bad.bin"
        write_tensors(path, tensors)
        report = tmp_path / "report.json"
        code = run(["eval", "--checkpoint", str(path), "--data", str(dataset_dir / "test"), "--report", str(report)])
        assert code == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not report.exists()

    def test_nan_checkpoint_fails_instead_of_hanging(self, trained_dir, dataset_dir, tmp_path, capsys):
        ckpt = Checkpoint.load(trained_dir / "checkpoint.bin")
        ckpt.tensors["encoder/projection"][...] = np.nan
        path = tmp_path / "nan.bin"
        ckpt.save(path)
        report = tmp_path / "report.json"
        with deadline(60):
            code = run(["eval", "--checkpoint", str(path), "--data", str(dataset_dir / "test"), "--report", str(report)])
        assert code == 2
        message = f"error: {path}: encoder/projection holds nan at flat index 0, need finite values"
        assert message in capsys.readouterr().err
        assert not report.exists()

    def test_malformed_sidecar_fails_naming_it(self, trained_dir, dataset_dir, tmp_path, capsys):
        ckpt = Checkpoint.load(trained_dir / "checkpoint.bin")
        path = tmp_path / "c.bin"
        ckpt.save(path)
        sidecar = tmp_path / "c.bin.config.json"
        sidecar.write_text('{"dim": 8,')
        report = tmp_path / "report.json"
        code = run(["eval", "--checkpoint", str(path), "--data", str(dataset_dir / "test"), "--report", str(report)])
        assert code == 2
        assert f"error: {sidecar}: not a JSON config" in capsys.readouterr().err
        assert not report.exists()

    def test_fractional_epoch_fails_naming_the_checkpoint(self, trained_dir, dataset_dir, tmp_path, capsys):
        ckpt = Checkpoint.load(trained_dir / "checkpoint.bin")
        path = tmp_path / "c.bin"
        write_tensors(path, {**ckpt.tensors, "meta/epoch": np.array([2.7])})
        report = tmp_path / "report.json"
        code = run(["eval", "--checkpoint", str(path), "--data", str(dataset_dir / "test"), "--report", str(report)])
        assert code == 2
        assert f"error: {path}: meta/epoch must be one finite whole number >= 0, got 2.7" in capsys.readouterr().err
        assert not report.exists()

    def test_checkpoint_with_optimizer_tensors_evaluates_to_the_same_bytes(self, trained_dir, dataset_dir, tmp_path):
        # checkpoints written before they held the model only also carry Adam's moments and step
        ckpt = Checkpoint.load(trained_dir / "checkpoint.bin")
        assert not any(name.startswith("opt/") for name in ckpt.tensors)
        rng = np.random.default_rng(0)
        tensors = dict(ckpt.tensors)
        for name, arr in ckpt.tensors.items():
            tensors[f"opt/m/{name}"] = rng.normal(size=arr.shape)
            tensors[f"opt/v/{name}"] = rng.random(arr.shape)
        tensors["opt/step"] = np.array([12.0])
        tensors["meta/epoch"] = np.array([float(ckpt.epoch)])
        old = tmp_path / "old.bin"
        write_tensors(old, tensors)
        shutil.copy(trained_dir / "checkpoint.bin.config.json", tmp_path / "old.bin.config.json")
        outputs = []
        for path in (trained_dir / "checkpoint.bin", old):
            report, scores = tmp_path / f"{path.stem}.json", tmp_path / f"{path.stem}.tsv"
            assert run(["eval", "--checkpoint", str(path), "--data", str(dataset_dir / "test"),
                        "--report", str(report), "--scores", str(scores)]) == 0
            outputs.append((report.read_bytes(), scores.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.fixture
    def split_without_queries(self, tmp_path):
        # generate-data refuses to write an empty split, so empty a generated one
        spec = tmp_path / "spec.cfg"
        spec.write_text("num_labels = 20\nnum_train_queries = 10\nnum_test_queries = 1\nfamilies = 4\n")
        assert run(["generate-data", "--out", str(tmp_path / "d"), "--spec", str(spec)]) == 0
        (tmp_path / "d" / "test" / "queries.jsonl").write_bytes(b"")
        return tmp_path / "d" / "test"

    def test_split_without_queries_fails_naming_the_file(self, trained_dir, split_without_queries, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = run(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"), "--data", str(split_without_queries),
                    "--report", str(report)])
        assert code == 2
        assert f"error: {split_without_queries / 'queries.jsonl'}: no query records" in capsys.readouterr().err
        assert not report.exists()

    def test_calibration_split_without_queries_fails_naming_the_file(
        self, trained_dir, dataset_dir, split_without_queries, tmp_path, capsys,
    ):
        report = tmp_path / "report.json"
        code = run(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"), "--data", str(dataset_dir / "test"),
                    "--calibration-split", str(split_without_queries), "--report", str(report)])
        assert code == 2
        assert f"error: {split_without_queries / 'queries.jsonl'}: no query records" in capsys.readouterr().err
        assert not report.exists()

    def test_split_without_labels_fails_naming_the_file(self, trained_dir, dataset_dir, tmp_path, capsys):
        split = tmp_path / "split"
        shutil.copytree(dataset_dir / "test", split)
        (split / "labels.jsonl").write_text("\n")
        report = tmp_path / "report.json"
        code = run(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"), "--data", str(split),
                    "--report", str(report)])
        assert code == 2
        assert f"error: {split / 'labels.jsonl'}: no label records" in capsys.readouterr().err
        assert not report.exists()

    def test_label_file_order_changes_no_output(self, trained_dir, tmp_path):
        # at 500 labels, scoring in file order rounds some scores differently: OpenBLAS rounds by column position
        data = tmp_path / "data"
        assert run(["generate-data", "--out", str(data), "--num-labels", "500", "--num-queries", "200"]) == 0
        shutil.copytree(data / "test", data / "shuffled")
        rows = (data / "shuffled" / "labels.jsonl").read_text().splitlines(keepends=True)
        random.Random(0).shuffle(rows)
        (data / "shuffled" / "labels.jsonl").write_text("".join(rows))
        outputs = []
        for split in ("test", "shuffled"):
            report, scores = tmp_path / f"{split}.json", tmp_path / f"{split}.tsv"
            assert run(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"), "--data", str(data / split),
                        "--report", str(report), "--scores", str(scores)]) == 0
            outputs.append((report.read_bytes(), scores.read_bytes()))
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("flag, value, rule", [
        ("--seed", "-1", "must be >= 0"),
        ("--tol", "nan", "must be finite and > 0"),
        ("--tol", "inf", "must be finite and > 0"),
        ("--tol", "0", "must be finite and > 0"),
        ("--tol", "-1", "must be finite and > 0"),
    ])
    def test_bad_flag_is_usage_error_before_any_check(self, monkeypatch, capsys, flag, value, rule):
        def fail(*args, **kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(verify, "full_suite", fail)
        assert run(["gradcheck", flag, value]) == 1
        assert f"argument {flag}: {rule}, got {value}" in capsys.readouterr().err


class TestEvalFlags:
    @pytest.mark.parametrize("flag, value, rule", [
        ("--target-precision", "0", "must be in (0, 1]"),
        ("--target-precision", "1.5", "must be in (0, 1]"),
        ("--target-precision", "nan", "must be in (0, 1]"),
        ("--bins", "0", "must be >= 1"),
    ])
    def test_bad_flag_is_usage_error_before_loading(self, tmp_path, capsys, flag, value, rule):
        # neither path exists: loading either would be a runtime error (exit 2)
        report = tmp_path / "r.json"
        argv = ["eval", "--checkpoint", str(tmp_path / "no.bin"), "--data", str(tmp_path / "no"),
                "--report", str(report), flag, value]
        assert run(argv) == 1
        assert f"argument {flag}: {rule}, got {value}" in capsys.readouterr().err
        assert not report.exists()


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

    def test_zero_bins_is_usage_error_before_reading(self, tmp_path, capsys):
        out = tmp_path / "hist.json"
        assert run(["histogram", "--scores", str(tmp_path / "no.tsv"), "--bins", "0", "--out", str(out)]) == 1
        assert "argument --bins: must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_score_fails_naming_path_and_line(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("query_id\tlabel_id\tscore\tcorrect\n0\t3\t0.9\t1\n1\t4\tnan\t0\n")
        out = tmp_path / "hist.json"
        assert run(["histogram", "--scores", str(scores), "--out", str(out)]) == 2
        assert f"error: {scores}:3: score nan is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_header_only_file_fails_naming_it(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("query_id\tlabel_id\tscore\tcorrect\n")
        out = tmp_path / "hist.json"
        assert run(["histogram", "--scores", str(scores), "--out", str(out)]) == 2
        assert f"error: {scores}: no score rows" in capsys.readouterr().err
        assert not out.exists()

    def test_scores_spanning_more_than_the_largest_float(self, tmp_path):
        # read_scores takes any finite score; the edges once overflowed and the command exited 2
        scores = tmp_path / "scores.tsv"
        scores.write_text("query_id\tlabel_id\tscore\tcorrect\n0\t3\t1e+308\t1\n1\t4\t-1e+308\t0\n")
        out = tmp_path / "hist.json"
        assert run(["histogram", "--scores", str(scores), "--bins", "4", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["edges"] == [-1e308, -5e307, 0.0, 5e307, 1e308]
        assert (obj["correct_counts"], obj["incorrect_counts"]) == ([0, 0, 0, 1], [1, 0, 0, 0])


class TestFingerprintScript:
    def test_prints_the_sha256_of_every_output(self, dataset_dir, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TINY_TRAIN_CFG)
        script = Path(__file__).resolve().parents[1] / "scripts" / "fingerprint.py"
        out = tmp_path / "run"
        result = subprocess.run(
            [sys.executable, str(script), "--config", str(cfg), "--data", str(dataset_dir), "--out", str(out)],
            capture_output=True, text=True, check=True,
        )
        lines = [line.split("  ") for line in result.stdout.splitlines()]
        inputs = ["train/labels.jsonl", "train/queries.jsonl", "test/labels.jsonl", "test/queries.jsonl"]
        names = ["checkpoint.bin", "checkpoint.bin.config.json", "train_log.jsonl", "report.json", "scores.tsv"]
        assert [name for _, name in lines] == inputs + names
        for digest, name in lines:
            assert digest == hashlib.sha256(((dataset_dir if name in inputs else out) / name).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def determinism():
    path = Path(__file__).resolve().parents[1] / "scripts" / "determinism.py"
    spec = importlib.util.spec_from_file_location("determinism", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDeterminismScript:
    def test_title_cap_case_passes_naming_its_first_file(self, determinism, tmp_path):
        case = "title cap, PYTHONHASHSEED 1 and 2"
        assert re.fullmatch(f"{case}: [0-9a-f]{{64}}  test/labels.jsonl", determinism.check(case, tmp_path))

    def test_a_differing_file_exits_1_naming_the_case_and_the_file(self, determinism, tmp_path, monkeypatch):
        runs = {"a": {"report.json": "0" * 64, "scores.tsv": "1" * 64},
                "b": {"report.json": "0" * 64, "scores.tsv": "2" * 64}}
        monkeypatch.setitem(determinism.CASES, "two files", lambda work: runs)
        with pytest.raises(SystemExit) as exit:
            determinism.check("two files", tmp_path)
        # a message, not a number: Python prints it and exits 1
        assert exit.value.code == "two files: FAIL scores.tsv differs: 111111111111 in a, 222222222222 in b"


class TestDirectionalScript:
    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_directional.py"

    def test_runs_from_a_checkout_without_an_install(self, tmp_path):
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        result = subprocess.run([sys.executable, str(self.SCRIPT), "--help"], cwd=tmp_path, env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_pins_one_blas_thread_and_writes_its_summary(self, tmp_path, monkeypatch, capsys):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "2")
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("run_directional", self.SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert [os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")] == ["1"] * 3
        result = ComparisonResult(seeds=[4], base=[RunResult(0.5, 0.25, 0.75)], regularized=[RunResult(1.0, 0.5, 0.0)])
        monkeypatch.setattr(script, "directional_comparison", lambda seeds, target_precision: result)
        out = tmp_path / "summary.json"
        monkeypatch.setattr(sys, "argv", ["run_directional.py", "--seeds", "4", "--out", str(out)])
        script.main()
        summary = json.loads(out.read_text())
        assert summary["regularized"] == [{"p_at_1": 1.0, "c_at_1": 0.5, "overlap": 0.0}]
        assert summary["mean"]["base"] == {"p_at_1": 0.5, "c_at_1": 0.25, "overlap": 0.75}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json"]  # no .tmp left behind
        assert f"wrote {out}" in capsys.readouterr().out

    def test_test_queries_widens_only_the_test_split(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("run_directional", self.SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        calls = []
        result = ComparisonResult(seeds=[4], base=[RunResult(0.5, 0.25, 0.75)], regularized=[RunResult(1.0, 0.5, 0.0)])
        monkeypatch.setattr(script, "directional_comparison", lambda **kwargs: calls.append(kwargs) or result)
        out = tmp_path / "summary.json"
        monkeypatch.setattr(sys, "argv", ["run_directional.py", "--seeds", "4", "--test-queries", "10000",
                                          "--out", str(out)])
        script.main()
        assert calls[0]["spec"] == script.SyntheticSpec(num_test_queries=10000)
        assert json.loads(out.read_text())["test_queries"] == 10000


class TestUsage:
    def test_unknown_flag_exit_1_no_files(self, tmp_path):
        target = tmp_path / "x.json"
        assert run(["eval", "--bogus-flag", "1", "--report", str(target)]) == 1
        assert not target.exists()

    def test_no_subcommand(self):
        assert run([]) == 1

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1
