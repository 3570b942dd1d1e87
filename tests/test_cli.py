"""End-to-end CLI behavior: flags, exit codes, emitted files, determinism."""
import numpy as np
import pytest
from click.testing import CliRunner

from mclkit.cli import ExperimentConfig, main

BLOB_SPEC = "blobs:classes=2,per_class=40,dim=8,separation=6.0,seed=10"
TRAIN_ARGS = [
    "train",
    "--method", "amcl",
    "--dataset", BLOB_SPEC,
    "--members", "2",
    "--overlap", "1",
    "--t-tau", "3",
    "--epochs", "6",
    "--batch-size", "16",
    "--seed", "0",
    "--hidden", "16,16",
]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    result = CliRunner().invoke(main, TRAIN_ARGS + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


def test_train_emits_expected_files(trained_run):
    for name in ("checkpoint.amc1", "train_log.csv", "purity_flow.csv", "summary.csv", "config.txt"):
        assert (trained_run / name).exists(), name


def test_train_frozen_w_row_sums(trained_run):
    from mclkit.data import load_checkpoint

    state = load_checkpoint(trained_run / "checkpoint.amc1")
    assert state.specialization is not None
    assert (state.specialization.w.sum(axis=1) == 1).all()


def test_train_rejects_bad_overlap(tmp_path):
    result = CliRunner().invoke(
        main,
        ["train", "--method", "smcl", "--dataset", BLOB_SPEC, "--members", "5",
         "--overlap", "6", "--epochs", "1", "--out", str(tmp_path / "x")],
    )
    assert result.exit_code == 2
    assert "K must satisfy" in result.output


def test_train_requires_out(tmp_path):
    result = CliRunner().invoke(
        main, ["train", "--method", "ie", "--dataset", BLOB_SPEC, "--epochs", "1"]
    )
    assert result.exit_code == 2


def test_train_deterministic_byte_identical(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = CliRunner().invoke(main, TRAIN_ARGS + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append(
            {
                f: (out / f).read_bytes()
                for f in ("summary.csv", "train_log.csv", "purity_flow.csv")
            }
        )
    assert outputs[0] == outputs[1]


def test_config_file_round_trip(tmp_path):
    cfg = ExperimentConfig(method="cmcl", epochs=7, lr=0.01, dataset=BLOB_SPEC, out="somewhere")
    path = tmp_path / "exp.cfg"
    cfg.to_file(path)
    assert ExperimentConfig.from_file(path) == cfg


def test_config_file_flags_override(tmp_path):
    cfg = ExperimentConfig(method="ie", epochs=2, dataset=BLOB_SPEC, hidden="16,16", out="")
    path = tmp_path / "exp.cfg"
    cfg.to_file(path)
    out = tmp_path / "run"
    result = CliRunner().invoke(
        main, ["train", "--config", str(path), "--method", "smcl", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    summary = (out / "summary.csv").read_text().splitlines()[1]
    assert summary.startswith("smcl,")


def test_eval_reports(trained_run, tmp_path):
    out = tmp_path / "eval"
    result = CliRunner().invoke(
        main,
        ["eval", "--checkpoint", str(trained_run / "checkpoint.amc1"),
         "--dataset", "blobs:classes=2,per_class=20,dim=8,separation=6.0,seed=77",
         "--histograms", "--ce-split", "--purity",
         "--ood-dataset", "blobs:classes=2,per_class=15,dim=8,separation=6.0,seed=78",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert (out / "errors.csv").exists()
    assert (out / "confidence_class0.csv").exists()
    assert (out / "confidence_class1_model1.csv").exists()
    assert (out / "ce_split.csv").exists()
    assert (out / "purity_cumulative.csv").exists()
    assert (out / "summary.txt").exists()
    ood_lines = (out / "ood_scores.csv").read_text().splitlines()
    assert ood_lines[0] == "index,score"
    assert len(ood_lines) == 1 + 30  # 2 classes x 15 examples


def test_eval_optional_reports_absent_when_omitted(trained_run, tmp_path):
    out = tmp_path / "eval-min"
    result = CliRunner().invoke(
        main,
        ["eval", "--checkpoint", str(trained_run / "checkpoint.amc1"),
         "--dataset", "blobs:classes=2,per_class=20,dim=8,separation=6.0,seed=77",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert (out / "errors.csv").exists()
    assert not (out / "ood_scores.csv").exists()
    assert not (out / "ce_split.csv").exists()
    assert not list(out.glob("confidence_*"))


def test_eval_ood_on_non_aux_checkpoint_exits_2(tmp_path):
    out = tmp_path / "ie-run"
    result = CliRunner().invoke(
        main,
        ["train", "--method", "ie", "--dataset", BLOB_SPEC, "--epochs", "2",
         "--hidden", "16,16", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    result = CliRunner().invoke(
        main,
        ["eval", "--checkpoint", str(out / "checkpoint.amc1"),
         "--dataset", BLOB_SPEC,
         "--ood-dataset", BLOB_SPEC,
         "--out", str(tmp_path / "e")],
    )
    assert result.exit_code == 2
    assert "auxiliary" in result.output


def test_eval_oracle_bounded_by_worst_member(trained_run, tmp_path):
    from mclkit.data import load_checkpoint, build_dataset, parse_dataset_spec
    from mclkit.ensemble import member_probabilities
    from mclkit.evaluation import evaluate_ensemble, strip_auxiliary

    state = load_checkpoint(trained_run / "checkpoint.amc1")
    ds = build_dataset(parse_dataset_spec(BLOB_SPEC))
    pred, rep = evaluate_ensemble(state, ds)
    worst = max(
        100.0 * (pred.per_model[:, m].argmax(axis=1) != ds.labels).mean()
        for m in range(2)
    )
    assert rep.oracle_error <= worst + 1e-9


def test_compare_table(tmp_path):
    out = tmp_path / "cmp"
    result = CliRunner().invoke(
        main,
        ["compare", "--methods", "ie,smcl", "--dataset", BLOB_SPEC,
         "--members", "2", "--overlap", "2", "--epochs", "3",
         "--batch-size", "16", "--seed", "1", "--hidden", "16,16",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "method,oracle_error,top1_error,harmonic_mean,status"
    assert len(lines) == 3
    # smcl at K=M is the independent ensemble: identical metrics
    ie_row = lines[1].split(",")
    smcl_row = lines[2].split(",")
    assert ie_row[0] == "ie" and smcl_row[0] == "smcl"
    assert abs(float(ie_row[1]) - float(smcl_row[1])) <= 1e-6
    assert abs(float(ie_row[2]) - float(smcl_row[2])) <= 1e-6


def test_compare_rejects_unknown_method(tmp_path):
    result = CliRunner().invoke(
        main,
        ["compare", "--methods", "ie,velociraptor", "--dataset", BLOB_SPEC,
         "--out", str(tmp_path / "c")],
    )
    assert result.exit_code == 2


def test_compare_partial_failure_exit_code(tmp_path):
    # amcl with t_tau >= epochs freezes nothing, which is fine, but t_tau=0
    # forces the memory-based phase with an empty counter: a sub-run failure
    out = tmp_path / "cmp-fail"
    result = CliRunner().invoke(
        main,
        ["compare", "--methods", "ie,amcl", "--dataset", BLOB_SPEC,
         "--members", "2", "--epochs", "2", "--t-tau", "0",
         "--hidden", "16,16", "--out", str(out)],
    )
    assert result.exit_code == 1
    lines = (out / "comparison.csv").read_text().splitlines()
    assert any("FAILED" in line for line in lines)
    assert any(line.startswith("ie,") and line.endswith("ok") for line in lines)


def test_eval_checkpoint_with_missing_header_key_exits_2(trained_run, tmp_path):
    import shutil

    from test_data import _rewrite_header

    ckpt = tmp_path / "checkpoint.amc1"
    shutil.copy(trained_run / "checkpoint.amc1", ckpt)
    _rewrite_header(ckpt, lambda h: h["arch"].pop("kind"))
    result = CliRunner().invoke(
        main,
        ["eval", "--checkpoint", str(ckpt), "--dataset", BLOB_SPEC, "--out", str(tmp_path / "e")],
    )
    assert result.exit_code == 2
    assert "arch.kind" in result.output


def test_eval_checkpoint_with_trailing_bytes_exits_2(trained_run, tmp_path):
    ckpt = tmp_path / "checkpoint.amc1"
    ckpt.write_bytes((trained_run / "checkpoint.amc1").read_bytes() + b"junk")
    result = CliRunner().invoke(
        main,
        ["eval", "--checkpoint", str(ckpt), "--dataset", BLOB_SPEC, "--out", str(tmp_path / "e")],
    )
    assert result.exit_code == 2
    assert "trailing bytes" in result.output


def test_train_nonfinite_run_exits_3_naming_the_op(tmp_path):
    # A learning rate of 1e300 overflows the first layer's product on the
    # second batch; the deferred step check sees the non-finite terms and
    # the replay names the op.
    with np.errstate(over="ignore", invalid="ignore"):
        result = CliRunner().invoke(
            main,
            ["train", "--method", "amcl", "--dataset", "blobs:classes=4,per_class=32,dim=16",
             "--members", "2", "--epochs", "3", "--t-tau", "1", "--lr", "1e300",
             "--arch", "mlp", "--out", str(tmp_path / "run")],
        )
    assert result.exit_code == 3
    assert "epoch 1, batch at example 64: non-finite values produced by op 'dense'" in result.output


def test_eval_checkpoint_with_a_non_binary_specialization_exits_2(trained_run, tmp_path):
    # 2 classes x 2 members: the int8 matrix ends 46 bytes before the file
    # does (counter block: 6 bytes of flags, 8 of shape, 32 of counts).
    raw = bytearray((trained_run / "checkpoint.amc1").read_bytes())
    assert set(raw[-50:-46]) == {0, 1}
    raw[-50] = 5
    ckpt = tmp_path / "checkpoint.amc1"
    ckpt.write_bytes(bytes(raw))
    result = CliRunner().invoke(
        main,
        ["eval", "--checkpoint", str(ckpt), "--dataset", BLOB_SPEC, "--out", str(tmp_path / "e")],
    )
    assert result.exit_code == 2
    assert "specialization matrix holds entries other than 0 and 1" in result.output


def test_eval_checkpoint_with_nonfinite_payload_exits_2(trained_run, tmp_path):
    from mclkit.data import load_checkpoint, save_checkpoint

    state = load_checkpoint(trained_run / "checkpoint.amc1")
    state.members[0].params["head.b"].data[1] = np.inf
    ckpt = tmp_path / "checkpoint.amc1"
    save_checkpoint(state, ckpt)
    result = CliRunner().invoke(
        main,
        ["eval", "--checkpoint", str(ckpt), "--dataset", BLOB_SPEC, "--out", str(tmp_path / "e")],
    )
    assert result.exit_code == 2
    assert "tensor member0/head.b holds non-finite values" in result.output


@pytest.mark.parametrize(
    "dataset,op",
    [
        ("blobs:classes=4,per_class=32,dim=16", "dense"),
        ("bars:classes=2,per_class=8,size=16", "conv2d"),
    ],
)
def test_diverging_train_prints_no_numpy_warnings(tmp_path, dataset, op):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import mclkit

    src = str(Path(mclkit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mclkit.cli", "train", "--method", "amcl", "--dataset", dataset,
         "--members", "2", "--epochs", "2", "--t-tau", "1", "--batch-size", "8", "--lr", "1e300",
         "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert f"non-finite values produced by op '{op}'" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("seeded", [True, False])
def test_compare_matches_train_then_eval(tmp_path, seeded):
    # compare takes train's defaults and reseeds the training spec for its
    # held-out set, so for the same method and flags its error strings are
    # those of train followed by eval on the reseeded spec.
    spec = "blobs:classes=3,per_class=30,dim=8,separation=2.0"
    flags = ["--dataset", spec + (",seed=10" if seeded else ""), "--epochs", "3",
             "--t-tau", "2", "--batch-size", "16", "--hidden", "16,16"]
    eval_args = ["--dataset", spec + ",seed=11"] if seeded else ["--dataset", spec, "--seed", "1"]
    result = CliRunner().invoke(main, ["compare", "--methods", "ie,amcl", *flags, "--out", str(tmp_path / "cmp")])
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()[1:]]
    for method, oracle, top1, _, status in rows:
        assert status == "ok"
        run = tmp_path / method
        result = CliRunner().invoke(main, ["train", "--method", method, *flags, "--out", str(run)])
        assert result.exit_code == 0, result.output
        result = CliRunner().invoke(
            main, ["eval", "--checkpoint", str(run / "checkpoint.amc1"), *eval_args, "--out", str(run / "eval")]
        )
        assert result.exit_code == 0, result.output
        errors = (run / "eval" / "errors.csv").read_text().splitlines()[1].split(",")
        assert [oracle, top1] == errors[:2]
    assert any(float(row[2]) > 0.0 for row in rows)  # the comparison is not between zeros
