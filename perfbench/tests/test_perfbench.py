"""Tests of the benchmark itself (not of mclkit).

    python3 -m pytest -q perfbench/tests

They run every workload at a tiny size, so they check names, units,
bookkeeping and determinism, not speed.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workload  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = 0.125  # dataset and epoch factor

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def bench_run(name, trace, seed=0):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--scale", str(TINY)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_round(name, tmp_path, seed=0):
    """One tiny round under a fresh tracer, as the traced run does it."""
    import mclkit

    wl = workload.WORKLOADS[name]
    rnd = workload.Run(mclkit)
    tracer = Tracer()
    with tracer:
        train_ds, heldout = workload.build_datasets(wl, seed, TINY)
        workload.one_round(rnd, wl, seed, wl.scaled_epochs(TINY), train_ds, heldout, str(tmp_path), first=True)
    return tracer, rnd


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workload.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workload.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        n: run.layer_unit(n) for n in run.LAYER_METRICS
    }


@pytest.mark.parametrize("name", list(workload.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_declared_metric(name, trace):
    out = bench_run(name, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for value in out["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_layers_that_do_not_run_read_zero():
    mlp = bench_run("mlp-blobs-compare", 1)["metrics"]
    amcl = bench_run("cnn-bars-amcl", 1)["metrics"]
    assert mlp["autodiff.conv2d.calls"]["value"] == 0
    assert mlp["fusion.member_features.calls"]["value"] == 0
    assert amcl["fusion.member_features.calls"]["value"] == 0
    assert amcl["autodiff.conv2d.calls"]["value"] > 0
    assert mlp["losses.cmcl.s"]["value"] > 0


def test_traced_self_times_add_up_to_train_plus_eval(tmp_path):
    tracer, rnd = traced_round("cnn-bars-fusion", tmp_path)
    roots = tracer.root_s
    assert sum(tracer.self_s.values()) == pytest.approx(sum(roots.values()), rel=1e-9)
    # Below train and eval nothing escapes: their traced self times and those
    # of every frame under them, with the tracer's own time, add up to their
    # wall time, which the workload's own clock measured around the same calls.
    assert set(roots) >= {"training.train", "evaluation.evaluate_ensemble"}
    train, evaluate = "training.train", "evaluation.evaluate_ensemble"
    assert roots[train] + tracer.overhead_s[train] == pytest.approx(sum(rnd.train_calls_s), rel=0.02)
    assert roots[evaluate] + tracer.overhead_s[evaluate] == pytest.approx(
        sum(sum(v) for v in rnd.eval_s.values()), rel=0.02
    )
    assert tracer.calls["fusion.member_features"] > 0
    spans = tracer.span_records()
    assert spans and all(s["end"] >= s["start"] for s in spans)
    assert all(s["parent"] < i for i, s in enumerate(spans))


def test_tracer_time_is_kept_out_of_the_caller():
    import types

    calls = 20000
    lib = types.SimpleNamespace(child=lambda: None)

    def parent():
        for _ in range(calls):
            lib.child()

    lib.parent = parent
    tracer = Tracer()
    tracer.residual_s = tracer_module.calibrate_residual()
    tracer._timed(lib, "child", "child")
    tracer._timed(lib, "parent", "parent")
    lib.parent()
    tracer.uninstall()
    # Untraced, the parent's own time is a bare loop of cheap calls; the
    # tracer's bookkeeping for its children is many times that and must not
    # be counted as the parent's.
    assert tracer.calls["child"] == calls
    assert tracer.self_s["parent"] < 0.5 * tracer.overhead_s["parent"]
    assert lib.parent is parent


def test_deterministic_counts_repeat_exactly(tmp_path):
    names = ("autodiff.graph.nodes_per_step", "autodiff.conv2d.gflop",
             "autodiff.finite_check.calls", "training.steps")
    first = traced_round("cnn-bars-amcl", tmp_path)[0].layer_metrics()
    second = traced_round("cnn-bars-amcl", tmp_path)[0].layer_metrics()
    assert all(first[n] > 0 for n in names)
    assert {n: first[n] for n in names} == {n: second[n] for n in names}


def test_timed_run_leaves_mclkit_unwrapped(tmp_path):
    tracer = Tracer().install()
    wrapped = [(owner, attr) for owner, attr, _ in tracer._saved]
    tracer.uninstall()
    before = {(owner, attr): vars(owner)[attr] for owner, attr in wrapped}

    import argparse

    import mclkit

    wl = workload.WORKLOADS["cnn-bars-amcl"]
    train_ds, heldout = workload.build_datasets(wl, 0, TINY)
    args = argparse.Namespace(trace=0, seconds=0.0, seed=0, scale=TINY)
    out = workload.measure(mclkit, wl, args, wl.scaled_epochs(TINY), train_ds, heldout, str(tmp_path))
    assert out["attempted"] > 0
    after = {(owner, attr): vars(owner)[attr] for owner, attr in wrapped}
    assert after == before
    assert not any(hasattr(fn, "__wrapped__") for fn in after.values())
    assert mclkit.autodiff.conv2d is before[(mclkit.autodiff, "conv2d")]

    # A traced round puts every name back as well.
    args.trace = 1
    workload.measure(mclkit, wl, args, wl.scaled_epochs(TINY), train_ds, heldout, str(tmp_path))
    assert {(o, a): vars(o)[a] for o, a in wrapped} == before


def test_failures_are_counted_and_the_run_goes_on(tmp_path):
    import dataclasses

    import mclkit

    rnd = workload.Run(mclkit)

    def diverge():
        raise mclkit.NumericError("non-finite values")

    assert rnd.op("train", diverge) is workload.FAILED
    assert (rnd.attempted, rnd.failed) == (1, 1)

    # A floor no ensemble can meet fails the first eval pass; the other
    # passes still run and are timed.
    wl = dataclasses.replace(workload.WORKLOADS["cnn-bars-amcl"], top1_floor_by_method=(("amcl", 101.0),))
    rnd = workload.Run(mclkit)
    train_ds, heldout = workload.build_datasets(wl, 0, TINY)
    workload.one_round(rnd, wl, 0, wl.scaled_epochs(TINY), train_ds, heldout, str(tmp_path), first=True)
    assert rnd.failed == 1 and "below the floors" in rnd.errors[0]
    assert len(rnd.eval_s["amcl"]) == wl.eval_passes


def test_inputs_follow_the_seed():
    wl = workload.WORKLOADS["mlp-blobs-compare"]
    a0, h0 = workload.build_datasets(wl, 0, TINY)
    a0b, _ = workload.build_datasets(wl, 0, TINY)
    a1, h1 = workload.build_datasets(wl, 1, TINY)
    assert a0.checksum() == a0b.checksum()
    assert a0.checksum() != a1.checksum()
    assert h0.checksum() != a0.checksum() and h0.checksum() != h1.checksum()


def test_statistics():
    assert run.median([3, 1, 2]) == 2
    assert run.median([4, 1, 2, 3]) == 2.5
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(100))) == (90, 89)
    assert run.throughput({"a": [1.0, 1.0], "b": [3.0, 3.0]}, 10) == pytest.approx(40 / 8)
    assert run.throughput({}, 10) == 0.0
    ref = workload.REFERENCE_S
    assert run.at_reference_speed({"a": [2.0, 3.0]}, {"a": [2 * ref, ref]})["a"] == pytest.approx([1.0, 3.0])


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", "cnn-bars-amcl"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
