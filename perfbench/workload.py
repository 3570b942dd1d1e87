"""One benchmark workload, run in a fresh process by ``run.py``.

    python3 perfbench/workload.py --workload cnn-bars-amcl --seed 0 \
        --seconds 30 --trace 0 --t0 <time.monotonic() of the parent> \
        --result out.json

The process imports mclkit, builds its datasets from the seed and then
repeats rounds until ``--seconds`` are used up. One round trains every
method of the workload with ``train``, saves and reloads a checkpoint,
checks the reloaded ensemble against the trained one, and times
``evaluate_ensemble`` passes over the held-out set. Rounds are identical,
so every round must reproduce the first round's accuracy exactly. Next to
every sampled epoch and pass, and once after set-up, it times a fixed
``Reference`` piece of work, so ``run.py`` can report times at one host
speed.

With ``--trace 1`` the process runs exactly two rounds, whatever
``--seconds`` says: one without tracing, the reference for the tracing
overhead, and one under ``tracer.Tracer``, so the traced counts repeat.
``--setup-only`` stops at the point where ``train`` would be called.

Every raw sample is written as JSON to ``--result``; ``run.py`` turns the
samples into metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train_spec: dict
    eval_spec: dict
    methods: tuple
    members: int
    epochs: int
    eval_passes: int
    fusion: str = "none"
    hidden_sizes: tuple = (64, 64)
    checkpoint_every_epoch: bool = False
    # (method, percent) pairs that replace TOP1_FLOOR_PCT for a method.
    top1_floor_by_method: tuple = ()

    def top1_floor(self, method: str) -> float:
        return dict(self.top1_floor_by_method).get(method, TOP1_FLOOR_PCT)

    def scaled_epochs(self, scale: float) -> int:
        """Epochs per train call; a scale below 1 (quick tests) shortens
        training with the datasets, to no fewer than two epochs."""
        return self.epochs if scale >= 1.0 else max(2, round(self.epochs * scale))


# Held-out accuracy (percent) every method must reach.
TOP1_FLOOR_PCT = 95.0
ORACLE_FLOOR_PCT = 95.0

BATCH_SIZE = 32
EVAL_BATCH = 512

# One compute thread: BLAS pools and mclkit's member thread pool pinned to 1.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "AMCL_THREADS": "1",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cnn-bars-amcl",
            why=(
                "conv2d forward and backward take about 74% of its traced training time (maxpool 18%), "
                "so CNN hot-path work shows here; graph-walk and objective changes barely move it"
            ),
            train_spec=dict(kind="bars", n_classes=2, per_class=64, size=16),
            eval_spec=dict(kind="bars", n_classes=2, per_class=256, size=16),
            methods=("amcl",),
            members=2,
            epochs=8,
            eval_passes=5,
        ),
        Workload(
            name="mlp-blobs-compare",
            why=(
                "graph overhead bound (finite checks take about 37% of its traced training time) and "
                "the only workload running all four objectives; it bypasses conv changes"
            ),
            train_spec=dict(kind="blobs", n_classes=4, per_class=128, dim=16),
            eval_spec=dict(kind="blobs", n_classes=4, per_class=8192, dim=16),
            methods=("ie", "smcl", "cmcl", "amcl"),
            members=3,
            epochs=12,
            eval_passes=4,
            hidden_sizes=(32, 16),
            # K=1 smcl specialists are not trained on the classes they lose,
            # so the plain average of their outputs is a weak top-1 predictor
            # (51-86% over seeds 0-39); its oracle accuracy is held at 95%.
            top1_floor_by_method=(("smcl", 40.0),),
        ),
        Workload(
            name="cnn-bars-fusion",
            why=(
                "the only workload running fusion.py and writing a checkpoint every epoch; "
                "its gap to cnn-bars-amcl is the fusion and checkpoint cost"
            ),
            train_spec=dict(kind="bars", n_classes=2, per_class=64, size=16),
            eval_spec=dict(kind="bars", n_classes=2, per_class=256, size=16),
            methods=("amcl",),
            members=2,
            epochs=8,
            eval_passes=5,
            fusion="module",
            checkpoint_every_epoch=True,
        ),
    )
}

# What ``Run.op`` returns for an operation that failed.
FAILED = object()

# Examples of the held-out set the reloaded ensemble is compared on, bit
# for bit, against the in-memory one.
IDENTITY_EXAMPLES = 64


# What the reference work takes on a fast spell of a shared 2-vCPU x86 host.
# Timed throughputs and set-up times are reported at this host speed.
REFERENCE_S = 1.6e-3
# Reference time spent next to a sample, as a share of the sample's time: a
# median over more passes for a longer sample, at about 5% more run time.
REFERENCE_SHARE = 0.05


class Reference:
    """A fixed piece of single-thread numpy work, timed next to every
    sampled epoch, evaluation pass and set-up.

    The host this benchmark was written on runs the same work at one of two
    speeds, about 2x apart, for seconds to minutes at a time. The program's
    time over the reference's time, measured a moment apart, stays put when
    the host changes speed; ``run.py`` reports times as that ratio times
    ``REFERENCE_S``. The work mixes the two kinds the workloads do: small
    matmuls between Python-level calls (the MLP graph) and larger BLAS calls
    (the CNN). It does not touch mclkit, so no change to mclkit moves it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a, self.b = rng.standard_normal((2, 64, 64))
        self.x = rng.standard_normal((32, 16))
        self.w = rng.standard_normal((16, 32))

    def run(self) -> float:
        """Seconds one pass of the reference work took."""
        np = self.np
        start = time.perf_counter()
        for _ in range(40):
            c = self.a @ self.b
            np.maximum(c, 0.0, out=c)
        for _ in range(150):
            h = self.x @ self.w
            np.all(np.isfinite(h))
            np.maximum(h, 0.0).sum()
        return time.perf_counter() - start

    def median_s(self, passes: int) -> float:
        return sorted(self.run() for _ in range(passes))[passes // 2]


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


class Run:
    """Counts operations and failures and keeps every timing sample."""

    def __init__(self, mclkit):
        self.mcl = mclkit
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.epoch_s = {}  # "method/phase" -> [seconds of each epoch]
        self.eval_s = {}  # method -> [seconds of each evaluate_ensemble pass]
        # With a reference, the reference time next to each of those samples.
        self.reference = None
        self.epoch_ref_s = {}
        self.eval_ref_s = {}
        self.train_calls_s = []
        self.accuracy = {}  # method -> (top-1 %, oracle %) of the first round

    def op(self, what, fn, *args, **kwargs):
        """One operation: returns its result, or FAILED after an MclError or
        a failed check, so the rest of the run goes on."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (self.mcl.MclError, CheckFailed) as exc:
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            return FAILED

    def reference_s(self, sample_s: float):
        """Reference seconds to pair with a sample that took ``sample_s``,
        or None when this run times no reference."""
        if self.reference is None:
            return None
        return self.reference.median_s(max(1, round(REFERENCE_SHARE * sample_s / REFERENCE_S)))


def build_datasets(wl: Workload, seed: int, scale: float):
    from mclkit import data

    def spec(fields, seed_):
        fields = dict(fields)
        if scale != 1.0:
            fields["per_class"] = max(1, int(fields["per_class"] * scale))
        return data.DatasetSpec(seed=seed_, **fields)

    train_ds = data.build_dataset(spec(wl.train_spec, seed))
    heldout = data.build_dataset(spec(wl.eval_spec, seed + 1))
    return train_ds, heldout


def train_config(wl: Workload, method: str, seed: int, epochs: int):
    from mclkit import training

    return training.TrainConfig(
        method=method,
        members=wl.members,
        overlap_k=1,
        epochs=epochs,
        batch_size=BATCH_SIZE,
        seed=seed,
        t_tau=max(1, epochs // 2),
        fusion=wl.fusion,
        hidden_sizes=wl.hidden_sizes,
    )


def one_round(run: Run, wl: Workload, seed: int, epochs: int, train_ds, heldout, workdir, first: bool):
    """Train, checkpoint, reload, verify and evaluate every method once."""
    import numpy as np
    from mclkit import data, ensemble, evaluation, training

    probe = heldout.features[:IDENTITY_EXAMPLES]
    for method in wl.methods:
        cfg = train_config(wl, method, seed, epochs)
        ckpt = os.path.join(workdir, f"{method}.amc1")
        samples = []
        last = [None]

        def on_epoch(epoch, state, record):
            if wl.checkpoint_every_epoch:
                run.op("save_checkpoint", data.save_checkpoint, state, ckpt)
            now = time.perf_counter()
            # Epoch 1 also pays for building the ensemble; it is not sampled.
            if last[0] is not None:
                samples.append((f"{method}/{record.phase}", now - last[0], run.reference_s(now - last[0])))
            last[0] = time.perf_counter()

        def train_once():
            start = time.perf_counter()
            try:
                state, log = training.train(train_ds, cfg, on_epoch=on_epoch)
            finally:
                run.train_calls_s.append(time.perf_counter() - start)
            for key, dt, ref in samples:
                run.epoch_s.setdefault(key, []).append(dt)
                if ref is not None:
                    run.epoch_ref_s.setdefault(key, []).append(ref)
            if not all(math.isfinite(r.train_loss) for r in log.records):
                raise CheckFailed("non-finite training loss")
            return state

        def load_once(state):
            loaded = data.load_checkpoint(ckpt)
            reference = ensemble.member_probabilities(state, probe, batch_size=EVAL_BATCH)
            if not np.array_equal(reference, ensemble.member_probabilities(loaded, probe, batch_size=EVAL_BATCH)):
                raise CheckFailed("reloaded member probabilities differ from the trained ensemble")
            return loaded

        def eval_once(loaded):
            start = time.perf_counter()
            _, report = evaluation.evaluate_ensemble(loaded, heldout, batch_size=EVAL_BATCH)
            pass_s = time.perf_counter() - start
            run.eval_s.setdefault(method, []).append(pass_s)
            ref = run.reference_s(pass_s)
            if ref is not None:
                run.eval_ref_s.setdefault(method, []).append(ref)
            acc = (100.0 - report.top1_error, 100.0 - report.oracle_error)
            if first and method not in run.accuracy:
                run.accuracy[method] = acc
                if acc[0] < wl.top1_floor(method) or acc[1] < ORACLE_FLOOR_PCT:
                    raise CheckFailed(
                        f"accuracy (top-1 {acc[0]:.2f}%, oracle {acc[1]:.2f}%) below the"
                        f" floors ({wl.top1_floor(method)}%, {ORACLE_FLOOR_PCT}%)"
                    )
            elif acc != run.accuracy.get(method):
                raise CheckFailed(f"accuracy {acc} differs from the first pass {run.accuracy.get(method)}")

        state = run.op(f"train {method}", train_once)
        if state is FAILED or run.op(f"save {method}", data.save_checkpoint, state, ckpt) is FAILED:
            continue
        loaded = run.op(f"load {method}", load_once, state)
        if loaded is FAILED:
            continue
        for _ in range(wl.eval_passes):
            run.op(f"eval {method}", eval_once, loaded)


def steal_ticks():
    """Hypervisor steal ticks of all CPUs so far, or None where unreadable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--scale", type=float, default=1.0, help="dataset and epoch factor (tests use a small one)")
    args = p.parse_args(argv)

    steal0 = steal_ticks()
    import mclkit

    wl = WORKLOADS[args.workload]
    train_ds, heldout = build_datasets(wl, args.seed, args.scale)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "setup_ref_s": Reference().median_s(7)}
    if not args.setup_only:
        epochs = wl.scaled_epochs(args.scale)
        workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.dirname(os.path.abspath(args.result)))
        try:
            result.update(measure(mclkit, wl, args, epochs, train_ds, heldout, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    steal1 = steal_ticks()
    result["steal_ticks"] = None if steal0 is None or steal1 is None else steal1 - steal0
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    with open(args.result, "w") as f:
        json.dump(result, f)


def environment() -> dict:
    """What the numbers were measured on, as this process sees it."""
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def measure(mclkit, wl, args, epochs, train_ds, heldout, workdir):
    run = Run(mclkit)
    out = {"train_examples": len(train_ds), "eval_examples": len(heldout)}
    if args.trace:
        from tracer import Tracer

        one_round(run, wl, args.seed, epochs, train_ds, heldout, workdir, first=True)
        out["untraced_epoch_s"] = run.epoch_s
        run.epoch_s = {}
        run.eval_s = {}
        tracer = Tracer()
        with tracer:
            wall = time.perf_counter()
            # Rebuilt under the tracer, so data.build_dataset is timed too.
            train_ds, heldout = build_datasets(wl, args.seed, args.scale)
            one_round(run, wl, args.seed, epochs, train_ds, heldout, workdir, first=False)
            wall = time.perf_counter() - wall
        out["layers"] = tracer.layer_metrics()
        out["self_s"] = dict(tracer.self_s)
        out["root_s"] = dict(tracer.root_s)
        out["incl_by_root"] = [[root, name, t] for (root, name), t in tracer.incl_by_root.items()]
        out["tracer_s"] = sum(tracer.overhead_s.values())
        out["tracer_calls"] = sum(tracer.calls.values())
        out["residual_us"] = tracer.residual_s * 1e6
        out["round_s"] = wall
        out["spans"] = tracer.span_records()
    else:
        run.reference = Reference()
        deadline = time.perf_counter() + args.seconds
        round_s = 0.0
        first = True
        # Another round starts while at least half of it fits before the
        # deadline, so a run lasts about --seconds on average.
        while first or time.perf_counter() + round_s / 2 <= deadline:
            start = time.perf_counter()
            one_round(run, wl, args.seed, epochs, train_ds, heldout, workdir, first)
            round_s = time.perf_counter() - start
            first = False
    out.update(
        epoch_s=run.epoch_s,
        eval_s=run.eval_s,
        epoch_ref_s=run.epoch_ref_s,
        eval_ref_s=run.eval_ref_s,
        train_calls_s=run.train_calls_s,
        accuracy=run.accuracy,
        attempted=run.attempted,
        failed=run.failed,
        errors=run.errors,
    )
    return out


if __name__ == "__main__":
    main()
