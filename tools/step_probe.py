"""Time of a CNN training step against the GEMMs it runs.

    python3 tools/step_probe.py [--src ../parent/src] [--rounds 4]

At the ``cnn-bars-amcl`` shapes (128 16x16 one-channel bars of two classes,
filters 32, 64, 128, B=32, M=2, amcl with its freeze after epoch 4) it runs
``training.train`` for 8 epochs of 4 steps and times every step inside it,
from the start of ``training._step`` (forward, objective, backward, gradient
gather and checks) to the end of the SGD update that follows. Each round is
one such training run, then as many runs of the same GEMMs alone, on
operands of the same shapes and layouts. Real training runs matter: one
batch stepped over and over from one ensemble read some ops up to twice
their time inside training (conv2's backward 19.9 against 11.7 ms, pool1's
6.4 against 4.0, on a shared 2-core Xeon). It prints

- the median step time, the median GEMM-set time and their ratio;
- minor page faults per step (``getrusage``), a sign of fresh mmaps and of
  heap pages trimmed and faulted back in;
- one more training run with every op wrapped: each op's median forward and
  backward time per step, by layer (conv1..conv3, pool1..pool3, then the
  rest by op name), and the time of the step none of them holds.

One BLAS thread unless ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` are
set: both default to 1 before numpy is imported, and the header prints what
was used. ``--src`` points at the ``src`` directory whose ``mclkit`` to load
(default: this checkout's), so two checkouts can be compared with the same
script. Only numpy and the standard library are needed.
"""
from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# A default-threaded OpenBLAS read some first rows several times slower; the
# benchmark runs one thread. Set before numpy loads BLAS; a caller's setting wins.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
CALLER_THREADS = {k: os.environ[k] for k in THREAD_VARS if k in os.environ}
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

SIZE, CLASSES, PER_CLASS, FILTERS = 16, 2, 64, (32, 64, 128)
BATCH, MEMBERS, EPOCHS = 32, 2, 8


def threads_line() -> str:
    return ", ".join(f"{k}={os.environ[k]}" + ("" if k in CALLER_THREADS else " (default)")
                     for k in THREAD_VARS)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class StepClock:
    """Rebinds ``training._step`` and ``SgdOptimizer.step`` so each training
    step's time and minor faults are appended to ``times`` and ``faults``;
    ``on_step`` runs as each step starts."""

    def __init__(self, training, on_step=lambda: None):
        self.times, self.faults = [], []
        step, update = training._step, training.SgdOptimizer.step
        started = []

        def timed_step(*args, **kwargs):
            on_step()
            started[:] = [time.perf_counter(), minor_faults()]
            return step(*args, **kwargs)

        def timed_update(optimizer, *args, **kwargs):
            update(optimizer, *args, **kwargs)
            self.times.append(time.perf_counter() - started[0])
            self.faults.append(minor_faults() - started[1])

        training._step, training.SgdOptimizer.step = timed_step, timed_update


def make_training():
    """A closure running one ``training.train`` call at the workload's shapes."""
    from mclkit import data, training

    ds = data.build_dataset(data.DatasetSpec(kind="bars", n_classes=CLASSES, per_class=PER_CLASS, size=SIZE, seed=0))
    cfg = training.TrainConfig(method="amcl", members=MEMBERS, overlap_k=1, epochs=EPOCHS, batch_size=BATCH,
                               t_tau=EPOCHS // 2, conv_filters=FILTERS)
    return lambda: training.train(ds, cfg)


def make_gemms(rng):
    """A closure running the step's GEMMs alone, as ``conv2d`` and ``dense``
    run them: each conv's forward (batched over the members; conv1's on the
    one patch matrix of the shared batch), weight gradient (conv1's with the
    members side by side) and input gradient (none for conv1), and the
    classifier's three."""
    gemms = []
    cin, size = 1, SIZE
    for i, f in enumerate(FILTERS):
        k, rows = 9 * cin, BATCH * size * size
        w = rng.normal(size=(MEMBERS, k, f))
        if i == 0:
            cols, g = rng.normal(size=(1, rows, k)), rng.normal(size=(rows, MEMBERS * f))
            gemms += [(cols, w), (cols[0].T, g)]
        else:
            cols, g = rng.normal(size=(MEMBERS, rows, k)), rng.normal(size=(MEMBERS, rows, f))
            gemms += [(cols, w), (cols.swapaxes(1, 2), g), (g, w.swapaxes(1, 2))]
        cin, size = f, size // 2
    flat, width = cin * size * size, CLASSES + 1
    x, g = rng.normal(size=(MEMBERS, BATCH, flat)), rng.normal(size=(MEMBERS, BATCH, width))
    w = rng.normal(size=(MEMBERS, flat, width))
    gemms += [(x, w), (g, w.swapaxes(1, 2)), (x.swapaxes(1, 2), g)]

    def run():
        for a, b in gemms:
            a @ b

    return run


def gemm_times(gemms, repeats: int) -> list:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        gemms()
        times.append(time.perf_counter() - start)
    return times


LAYER_NAMES = {"conv2d": "conv", "conv2d_members": "conv", "maxpool2x2": "pool"}
WRAPPED = ("conv2d", "conv2d_members", "maxpool2x2", "dense", "reshape", "log_softmax", "assigned_nll", "tensor_sum")


def wrap_ops(ad, fwd: dict, bwd: dict, seen: dict):
    """Rebind ``ad``'s ops so each call adds its forward time to ``fwd`` and
    its node's backward time to ``bwd``, keyed by layer; ``seen`` counts the
    calls of each layer kind in the current step."""
    originals = {name: getattr(ad, name) for name in WRAPPED if hasattr(ad, name)}

    def wrapper(name, op):
        def call(*args, **kwargs):
            kind = LAYER_NAMES.get(name, name)
            seen[kind] += 1
            label = f"{kind}{seen[kind]}" if kind in ("conv", "pool") else name
            start = time.perf_counter()
            result = op(*args, **kwargs)
            fwd[label] += time.perf_counter() - start
            node = result[0] if isinstance(result, tuple) else result
            back = node._backward
            if back is not None:
                def timed_back(g, back=back):
                    t0 = time.perf_counter()
                    out = back(g)
                    bwd[label] += time.perf_counter() - t0
                    return out
                node._backward = timed_back
            return result
        return call

    for name, op in originals.items():
        setattr(ad, name, wrapper(name, op))
    return originals


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="CNN training step time against its GEMMs.")
    p.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                   help="directory holding the mclkit package to measure")
    p.add_argument("--rounds", type=int, default=4, help="alternations of a training run and its GEMM sets")
    args = p.parse_args(argv)
    sys.path.insert(0, args.src)
    import logging

    import mclkit.autodiff as ad
    from mclkit import training

    logging.getLogger("mclkit").setLevel(logging.ERROR)  # the freeze's idle-member warning
    print(f"mclkit from {Path(ad.__file__).parent}; numpy {np.__version__}; nproc {os.cpu_count()}; "
          f"{threads_line()}")
    print(f"B={BATCH} M={MEMBERS} filters {FILTERS} on {SIZE}x{SIZE} bars, amcl, {EPOCHS} epochs of "
          f"{CLASSES * PER_CLASS // BATCH} steps per training run")
    fwd, bwd, seen = defaultdict(float), defaultdict(float), defaultdict(int)
    steps = []  # each wrapped step's (forward, backward) totals by layer

    def next_step():
        if seen:
            steps.append({label: (fwd[label], bwd[label]) for label in fwd})
        for totals in (fwd, bwd, seen):
            totals.clear()

    clock = StepClock(training, next_step)
    train, gemms = make_training(), make_gemms(np.random.default_rng(0))
    train()  # warm: first-touch pages, BLAS set-up
    gemm_times(gemms, 3)
    clock.times.clear()
    clock.faults.clear()
    gemm_s = []
    for _ in range(args.rounds):
        before = len(clock.times)
        train()
        gemm_s += gemm_times(gemms, len(clock.times) - before)
    step_ms, gemm_ms = 1e3 * statistics.median(clock.times), 1e3 * statistics.median(gemm_s)
    print(f"step {step_ms:.2f} ms, GEMMs alone {gemm_ms:.2f} ms, step/GEMM {step_ms / gemm_ms:.2f}; "
          f"minor faults per step {statistics.median(clock.faults):.0f} (median of {len(clock.times)} steps)")

    clock.times.clear()
    originals = wrap_ops(ad, fwd, bwd, seen)
    try:
        train()
        next_step()
    finally:
        for name, op in originals.items():
            setattr(ad, name, op)
    total = 1e3 * statistics.median(clock.times)
    print(f"\nwrapped step {total:.2f} ms (per-op medians, ms)")
    print(f"{'op':14} {'forward':>8} {'backward':>9}")
    held = 0.0
    for label in steps[0]:  # in call order: every op with a backward ran forward first
        f = 1e3 * statistics.median(step[label][0] for step in steps)
        b = 1e3 * statistics.median(step[label][1] for step in steps)
        held += f + b
        print(f"{label:14} {f:8.2f} {b:9.2f}")
    print(f"{'(rest)':14} {total - held:8.2f}   graph walk, objective glue, gather, checks, SGD")
    return 0


if __name__ == "__main__":
    sys.exit(main())
