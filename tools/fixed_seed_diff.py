"""Byte-for-byte comparison of fixed-seed CLI outputs between two checkouts.

    python3 tools/fixed_seed_diff.py --a ../parent --b .

Each checkout's ``src/mclkit`` runs the same 17 configurations through
``mclkit train`` and ``mclkit eval``: MLP M=3 ie/smcl/cmcl/amcl, smcl, cmcl
and amcl with K=2, amcl with fusion module and share; CNN M=2 ie/smcl/cmcl/amcl,
amcl with fusion module and share, CNN M=3 amcl with K=2 (where a batched
or side-by-side GEMM over the members would first block differently), and
CNN M=3 amcl with fusion module, evaluated on a test set whose last chunk is
smaller than one evaluation tile. Each runs with one BLAS thread. Every file the two checkouts write is compared
byte for byte: ``train_log.csv``, ``purity_flow.csv``, ``summary.csv``,
``config.txt``, every checkpoint (the fusion runs also save one per epoch)
and every file of ``mclkit eval`` (errors, confidence histograms, and for
amcl the cross-entropy split, cumulative purity and OOD scores). A differing ``.csv`` also reports how many
of its cells differ and the largest absolute difference among its numeric
cells, so outputs that move only in their last digits show as such. Outputs
go under ``--work`` (default: a temporary directory, removed at the end).
Exit status 0 when every file matches, 1 when any differs or is missing on
one side.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# The test sets hold 600 examples: one full 512-example evaluation chunk and a
# partial second one, so a change to evaluation chunking or memory handling
# that moves bits shows up on both archs.
MLP_DATA = "blobs:classes=4,per_class=48,dim=16,seed=3"
MLP_TEST = "blobs:classes=4,per_class=150,dim=16,seed=4"
MLP_OOD = "blobs:classes=4,per_class=16,dim=16,seed=5"
CNN_DATA = "bars:classes=2,per_class=24,size=16,seed=3"
CNN_TEST = "bars:classes=2,per_class=300,size=16,seed=4"
CNN_OOD = "bars:classes=2,per_class=48,size=16,seed=5"
# 524 examples: a full chunk and a last one of 12, below one evaluation tile
# (18 examples at M=3), so a tile smaller than the rest is checked too.
CNN_SHORT_TAIL_TEST = "bars:classes=2,per_class=262,size=16,seed=4"

MLP = ["--arch", "mlp", "--hidden", "32,16", "--members", "3", "--epochs", "6", "--t-tau", "3",
       "--batch-size", "32", "--dataset", MLP_DATA]
CNN_ANY_M = ["--arch", "simple_cnn", "--epochs", "3", "--t-tau", "2", "--batch-size", "16",
             "--dataset", CNN_DATA]
CNN = CNN_ANY_M + ["--members", "2"]
EVERY_EPOCH = ["--checkpoint-every", "1"]

# name -> (train arguments, test spec, OOD spec)
CONFIGS = {
    **{f"mlp-{m}": (MLP + ["--method", m], MLP_TEST, MLP_OOD) for m in ("ie", "smcl", "cmcl", "amcl")},
    "mlp-smcl-k2": (MLP + ["--method", "smcl", "--overlap", "2"], MLP_TEST, MLP_OOD),
    "mlp-cmcl-k2": (MLP + ["--method", "cmcl", "--overlap", "2"], MLP_TEST, MLP_OOD),
    "mlp-amcl-k2": (MLP + ["--method", "amcl", "--overlap", "2"], MLP_TEST, MLP_OOD),
    "mlp-amcl-module": (MLP + ["--method", "amcl", "--fusion", "module"] + EVERY_EPOCH, MLP_TEST, MLP_OOD),
    "mlp-amcl-share": (MLP + ["--method", "amcl", "--fusion", "share"] + EVERY_EPOCH, MLP_TEST, MLP_OOD),
    **{f"cnn-{m}": (CNN + ["--method", m], CNN_TEST, CNN_OOD) for m in ("ie", "smcl", "cmcl", "amcl")},
    "cnn-amcl-module": (CNN + ["--method", "amcl", "--fusion", "module"] + EVERY_EPOCH, CNN_TEST, CNN_OOD),
    "cnn-amcl-share": (CNN + ["--method", "amcl", "--fusion", "share"] + EVERY_EPOCH, CNN_TEST, CNN_OOD),
    "cnn-amcl-m3-k2": (CNN_ANY_M + ["--members", "3", "--method", "amcl", "--overlap", "2"],
                       CNN_TEST, CNN_OOD),
    "cnn-amcl-m3-module": (CNN_ANY_M + ["--members", "3", "--method", "amcl", "--fusion", "module"],
                           CNN_SHORT_TAIL_TEST, CNN_OOD),
}


def _mclkit(checkout: Path, cwd: Path, args: list) -> None:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "mclkit.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"mclkit {' '.join(args)} failed in {checkout}:\n{proc.stderr[-2000:]}")


def run_config(checkout: Path, side_dir: Path, name: str) -> None:
    """Train and evaluate one configuration; relative output paths keep
    ``config.txt`` free of the side's directory."""
    train_args, test_spec, ood_spec = CONFIGS[name]
    _mclkit(checkout, side_dir, ["train", *train_args, "--seed", "0", "--out", name])
    amcl = "amcl" in train_args
    extra = ["--ce-split", "--purity", "--ood-dataset", ood_spec] if amcl else []
    _mclkit(checkout, side_dir, ["eval", "--checkpoint", f"{name}/checkpoint.amc1",
                                 "--dataset", test_spec, "--histograms", *extra,
                                 "--out", f"{name}/eval"])


def csv_difference(a: Path, b: Path) -> str:
    """How many cells of two CSV files differ, and by how much at most where
    both cells are numbers. A row or cell present on one side only differs."""
    with a.open(newline="") as fa, b.open(newline="") as fb:
        rows = list(itertools.zip_longest(csv.reader(fa), csv.reader(fb), fillvalue=[]))
    cells = differing = 0
    largest = 0.0
    for row_a, row_b in rows:
        for cell_a, cell_b in itertools.zip_longest(row_a, row_b):
            cells += 1
            if cell_a == cell_b:
                continue
            differing += 1
            try:
                largest = max(largest, abs(float(cell_a) - float(cell_b)))
            except (TypeError, ValueError):
                pass
    return f"{differing} of {cells} cells differ, largest numeric difference {largest:.3g}"


def compare_trees(a: Path, b: Path) -> list:
    """Relative paths that exist on one side only or differ in content."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    problems = [f"only in A: {p}" for p in sorted(files_a - files_b)]
    problems += [f"only in B: {p}" for p in sorted(files_b - files_a)]
    for p in sorted(files_a & files_b):
        if (a / p).read_bytes() != (b / p).read_bytes():
            detail = f" ({csv_difference(a / p, b / p)})" if p.suffix == ".csv" else ""
            problems.append(f"differs: {p}{detail}")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Diff fixed-seed CLI outputs of two checkouts byte for byte.")
    p.add_argument("--a", required=True, help="first checkout (repository root)")
    p.add_argument("--b", required=True, help="second checkout (repository root)")
    p.add_argument("--work", default=None, help="keep the outputs in this (empty) directory")
    args = p.parse_args(argv)
    checkouts = {side: Path(path).resolve() for side, path in (("A", args.a), ("B", args.b))}
    for side, checkout in checkouts.items():
        if not (checkout / "src" / "mclkit").is_dir():
            p.error(f"--{side.lower()} {checkout} has no src/mclkit")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work or tmp)
        for name in CONFIGS:
            for side, checkout in checkouts.items():
                side_dir = work / side
                side_dir.mkdir(parents=True, exist_ok=True)
                run_config(checkout, side_dir, name)
            print(f"ran {name}", flush=True)
        problems = compare_trees(work / "A", work / "B")
        count = sum(1 for f in (work / "A").rglob("*") if f.is_file())
    for line in problems:
        print(line)
    print(f"{len(CONFIGS)} configurations: {count} files in A, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
