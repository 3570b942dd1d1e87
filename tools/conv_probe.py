"""Memory and time of one ``autodiff.conv2d`` forward per CNN layer.

    python3 tools/conv_probe.py [--src ../parent/src] [--repeats 7]

For conv1, conv2 and conv3 at the ``cnn-bars-amcl`` shapes (16x16 one-channel
bars, filters 32, 64, 128, 3x3 kernels, relu and bias on), it runs one forward

- at the evaluation chunk: B=512, one member ([F, C, 3, 3] kernel), under
  ``no_graph``, as ``ensemble.probability_chunks`` runs it;
- at the training batch: B=32, M=2 ([M, F, C, 3, 3] kernels; conv1 over the
  shared input batch, conv2 and conv3 over member-major inputs), recording a
  graph, as a training step runs it.

Each row is the ``tracemalloc`` peak of one forward (numpy's allocations
made during the call: the padded input, the patch rows, the output; not
the input, which exists before) and the median wall time of ``--repeats``
forwards. ``--src`` points at the ``src`` directory whose ``mclkit`` to
load (default: this checkout's), so two checkouts can be compared with the
same script. One BLAS thread unless ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``
are set: both default to 1 before numpy is imported, and the header prints
what was used. Only numpy and the standard library are needed.
"""
from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

# With default BLAS threads the first row read several times its usual time in
# some runs; the benchmark runs one thread. Set before numpy loads BLAS; a
# caller's setting wins.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
CALLER_THREADS = {k: os.environ[k] for k in THREAD_VARS if k in os.environ}
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

# (name, input channels, filters, spatial extent) of the three conv layers.
LAYERS = [("conv1", 1, 32, 16), ("conv2", 32, 64, 8), ("conv3", 64, 128, 4)]
EVAL_BATCH, TRAIN_BATCH, TRAIN_MEMBERS = 512, 32, 2


def cases(ad, rng):
    """(layer, phase, forward) for every layer at both phases."""
    for name, cin, f, size in LAYERS:
        x = rng.normal(size=(EVAL_BATCH, cin, size, size))
        w, b = rng.normal(size=(f, cin, 3, 3)), rng.normal(size=f)

        def evaluate(x=x, w=w, b=b):
            with ad.no_graph():
                return ad.conv2d(x, w, b, relu=True)

        yield name, f"eval B={EVAL_BATCH} M=1", evaluate
        shared = name == "conv1"
        xt = rng.normal(size=(TRAIN_BATCH, cin, size, size) if shared
                        else (TRAIN_MEMBERS, TRAIN_BATCH, cin, size, size))
        x = ad.Tensor(xt, op="input" if shared else "leaf")
        w = ad.Tensor(rng.normal(size=(TRAIN_MEMBERS, f, cin, 3, 3)), op="param")
        b = ad.Tensor(rng.normal(size=(TRAIN_MEMBERS, f)), op="param")
        yield name, f"train B={TRAIN_BATCH} M={TRAIN_MEMBERS}", lambda x=x, w=w, b=b: ad.conv2d(x, w, b, relu=True)


def peak_mib(forward) -> float:
    tracemalloc.start()
    try:
        out = forward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    return peak / 2**20


def median_ms(forward, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = forward()
        times.append(time.perf_counter() - start)
        del out
    return 1e3 * statistics.median(times)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Per-layer conv2d forward memory and time.")
    p.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                   help="directory holding the mclkit package to measure")
    p.add_argument("--repeats", type=int, default=7, help="timed forwards per row")
    args = p.parse_args(argv)
    sys.path.insert(0, args.src)
    import mclkit.autodiff as ad

    threads = ", ".join(f"{k}={os.environ[k]}" + ("" if k in CALLER_THREADS else " (default)")
                        for k in THREAD_VARS)
    print(f"mclkit from {Path(ad.__file__).parent}; numpy {np.__version__}; nproc {os.cpu_count()}; "
          f"{threads}; tile budget "
          f"{getattr(ad, 'CONV_TILE_BYTES', 0) / 2**20:g} MiB (0: untiled)")
    print(f"{'layer':6} {'phase':16} {'peak MiB':>9} {'median ms':>10}")
    for name, phase, forward in cases(ad, np.random.default_rng(0)):
        forward()  # warm: first-touch pages, BLAS set-up
        print(f"{name:6} {phase:16} {peak_mib(forward):9.1f} {median_ms(forward, args.repeats):10.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
