"""Memory and time of one ``autodiff.conv2d`` forward per CNN layer, and of
one evaluation pass.

    python3 tools/conv_probe.py [--src ../parent/src] [--repeats 7]

For conv1, conv2 and conv3 at the ``cnn-bars-amcl`` shapes (16x16 one-channel
bars, filters 32, 64, 128, 3x3 kernels, relu and bias on, M=2 members:
[M, F, C, 3, 3] kernels, conv1 over the shared input batch, conv2 and conv3
over member-major inputs), it runs one forward

- at the evaluation tile: 27 examples, the largest of the near-equal tiles
  ``ensemble_forward`` cuts a 512-example chunk into at M=2, under
  ``no_graph`` and inside ``conv_workspace``, as evaluation runs it;
- at the training batch: B=32, recording a graph, as a training step runs it.

Each of those rows is the ``tracemalloc`` peak of one forward (numpy's
allocations made during the call: the padded input, the patch matrix, the
output; not the input, which exists before) and the median wall time of
``--repeats`` forwards. Two more rows time a whole evaluation pass,
``ensemble.probability_chunks`` over the workloads' 512 evaluation examples
(one chunk) with fusion ``none`` and ``module``: its median time, minor page
faults per pass (``getrusage``) and ``tracemalloc`` peak. ``--src`` points at
the ``src`` directory whose ``mclkit`` to load (default: this checkout's), so
two checkouts can be compared with the same script. One BLAS thread unless
``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` are set: both default to 1
before numpy is imported, and the header prints what was used. Only numpy
and the standard library are needed.
"""
from __future__ import annotations

import argparse
import os
import resource
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
# 512 examples in near-equal tiles below 28 (conv2's patch matrix over both
# members under the 8 MiB mmap threshold): 19 tiles of 26 or 27.
EVAL_BATCH, EVAL_TILE, TRAIN_BATCH, MEMBERS = 512, 27, 32, 2


def cases(ad, rng):
    """(layer, phase, forward) for every layer at both phases."""
    for name, cin, f, size in LAYERS:
        shared = name == "conv1"
        w = ad.Tensor(rng.normal(size=(MEMBERS, f, cin, 3, 3)), op="param")
        b = ad.Tensor(rng.normal(size=(MEMBERS, f)), op="param")
        for phase, bsz in (("eval", EVAL_TILE), ("train", TRAIN_BATCH)):
            xt = rng.normal(size=(bsz, cin, size, size) if shared else (MEMBERS, bsz, cin, size, size))
            x = ad.Tensor(xt, op="input" if shared else "leaf")
            if phase == "train":
                yield name, f"train B={bsz} M={MEMBERS}", lambda x=x, w=w, b=b: ad.conv2d(x, w, b, relu=True)
                continue

            def evaluate(x=x, w=w, b=b):
                with ad.no_graph(), ad.conv_workspace():
                    return ad.conv2d(x, w, b, relu=True)

            yield name, f"eval B={bsz} M={MEMBERS}", evaluate


def passes(rng):
    """(fusion, pass) for an evaluation pass over 512 examples at M=2."""
    from mclkit.ensemble import build_ensemble, probability_chunks
    from mclkit.models import ArchitectureSpec

    arch = ArchitectureSpec(kind="simple_cnn", input_shape=(1, 16, 16), n_classes=2)
    x = rng.uniform(size=(EVAL_BATCH, 1, 16, 16))
    for fusion in ("none", "module"):
        state = build_ensemble(method="amcl", arch=arch, members=MEMBERS, overlap_k=1, t_tau=1, beta=0.75,
                               gamma=0.75, p_share=0.5, fusion_mode=fusion, seed=0)
        yield fusion, lambda state=state: list(probability_chunks(state, x))


def minor_faults(forward, repeats: int) -> float:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        forward()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / repeats


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
          f"{threads}")
    print(f"{'layer':6} {'phase':16} {'peak MiB':>9} {'median ms':>10}")
    rng = np.random.default_rng(0)
    for name, phase, forward in cases(ad, rng):
        forward()  # warm: first-touch pages, BLAS set-up
        print(f"{name:6} {phase:16} {peak_mib(forward):9.1f} {median_ms(forward, args.repeats):10.2f}", flush=True)
    print(f"{'pass':6} {'fusion':16} {'peak MiB':>9} {'median ms':>10} {'faults':>8}")
    for fusion, forward in passes(rng):
        forward()
        faults = minor_faults(forward, args.repeats)
        print(f"{'eval':6} {fusion:16} {peak_mib(forward):9.1f} {median_ms(forward, args.repeats):10.2f} "
              f"{faults:8.0f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
