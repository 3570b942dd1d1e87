"""mclkit benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload cnn-bars-amcl --seed 0 --seconds 30 --trace 0

Run it from the root of the repository. It starts the workload in fresh
child processes (``workload.py``) with one compute thread, so every number
is single-thread and closed-loop: the next call starts when the previous
one returned. Ten extra children only import mclkit and build the
datasets, five before the main child and five after it; with the main
child they give eleven set-up times, whose median is ``setup_s``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer table of one traced round (see README.md). Lines before the last
one are for reading: sample counts, the slow tail of each timing, and the
recorded environment. The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record,
spans included, goes to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workload import ORACLE_FLOOR_PCT, REFERENCE_S, THREAD_ENV, WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
DEFAULT_SECONDS = 30
SETUP_PROBES = 5  # before the main child, and as many after it
CHILD_TIMEOUT_S = 170
OUT_DIR = ".perfbench_out"
SOURCE = os.path.join("src", "mclkit")

END_TO_END_UNITS = {
    "train_examples_per_s": "1/s",
    "eval_examples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "top1_accuracy_pct": "%",
    "oracle_accuracy_pct": "%",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".mb"):
        return "MB"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_share"):
        return "ratio"
    return "count"


# Every per-layer metric the traced run reports, in table order. A layer a
# workload does not run reads 0.
LAYER_METRICS = (
    *(f"autodiff.{op}.{d}_s" for op in ("conv2d", "maxpool2x2", "matmul", "softmax", "log", "elementwise") for d in ("fwd", "bwd")),
    "autodiff.conv2d.calls",
    "autodiff.conv2d.gflop",
    "autodiff.backward.s",
    "autodiff.backward.calls",
    "autodiff.graph_walk.self_s",
    "autodiff.topo_order.s",
    "autodiff.graph.nodes_per_step",
    "autodiff.finite_check.s",
    "autodiff.finite_check.calls",
    "autodiff.finite_check.mb",
    "autodiff.backward.useful_grad_share",
    "autodiff.sgd_step.s",
    "autodiff.sgd_step.calls",
    "models.forward_to_tap.s",
    "models.forward_from_tap.s",
    "fusion.member_features.s",
    "fusion.member_features.calls",
    "ensemble.ensemble_forward.s",
    "ensemble.member_probabilities.s",
    "ensemble.build_ensemble.s",
    "losses.ie.s",
    "losses.smcl.s",
    "losses.cmcl.s",
    "losses.lba.s",
    "losses.mba.s",
    "losses.assign_top_k.s",
    "losses.accumulate_counts.s",
    "training.train.s",
    "training.steps",
    "training.self_s",
    "evaluation.evaluate_ensemble.s",
    "evaluation.self_s",
    "data.build_dataset.s",
    "data.save_checkpoint.s",
    "data.save_checkpoint.calls",
    "data.load_checkpoint.s",
    "data.checkpoint.mb",
    "trace.overhead_pct",
)


# -- statistics -------------------------------------------------------------

def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def tail(values):
    """(p, value): the highest whole percentile with at least ten samples
    beyond it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    s = sorted(values)
    return p, s[min(n - 1, math.ceil(p / 100.0 * n) - 1)]


def at_reference_speed(samples: dict, refs: dict) -> dict:
    """Each sample over the reference time measured next to it, times
    REFERENCE_S: the time it would have taken at the reference host speed."""
    return {k: [s / r * REFERENCE_S for s, r in zip(v, refs[k])] for k, v in samples.items()}


def throughput(samples: dict, examples: int) -> float:
    """Examples per second from per-group medians, groups weighted by their
    sample counts: the examples of all sampled epochs (or passes) over the
    time they would take at each group's median. 0 when every operation
    that would have given a sample failed."""
    work = sum(len(v) for v in samples.values()) * examples
    time_s = sum(len(v) * median(v) for v in samples.values() if v)
    return work / time_s if time_s else 0.0


# -- running ----------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(extra: list, result_path: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), *extra,
           "--t0", repr(time.monotonic()), "--result", result_path]
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload child exceeded {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited with {proc.returncode}:\n{err[-4000:]}")
    with open(result_path) as f:
        result = json.load(f)
    os.remove(result_path)
    return result


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_lines() -> int:
    total = 0
    for name in sorted(os.listdir(SOURCE)):
        if name.endswith(".py"):
            with open(os.path.join(SOURCE, name)) as f:
                total += sum(1 for _ in f)
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one mclkit benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="dataset and epoch factor; below 1 only for quick tests")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "__init__.py")):
        print(f"error: {SOURCE} not found; run from the root of an mclkit checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    result_path = os.path.join(OUT_DIR, f"{tag}.child.json")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", repr(args.scale)]

    def setup_probes():
        return [run_child(common + ["--seconds", "0", "--setup-only"], result_path)
                for _ in range(SETUP_PROBES)]

    # Half the set-up probes run before the main child and half after, so
    # their median spans the whole run rather than one spell of host speed.
    setups = setup_probes()
    main_run = run_child(
        common + ["--seconds", repr(args.seconds), "--trace", str(args.trace)],
        result_path,
    )
    setups += [main_run] + setup_probes()
    setups = [(r["setup_s"], r["setup_ref_s"]) for r in setups]

    report = summarize(args, main_run, setups)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as f:
        json.dump({**report, "spans": main_run.get("spans", [])}, f, indent=1)
    for line in report["lines"]:
        print(line)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


def share_lines(incl_by_root: list) -> list:
    """Where the time of the traced train and evaluate_ensemble calls went:
    the share of a few inclusive times that were spent below each."""
    by_root = {(root, name): t for root, name, t in incl_by_root}
    lines = []
    for root in ("training.train", "evaluation.evaluate_ensemble"):
        total = by_root.get((root, root), 0.0)
        if not total:
            continue
        parts = {
            "conv2d": by_root.get((root, "autodiff.conv2d.fwd"), 0.0) + by_root.get((root, "autodiff.conv2d.bwd"), 0.0),
            "maxpool2x2": (by_root.get((root, "autodiff.maxpool2x2.fwd"), 0.0)
                           + by_root.get((root, "autodiff.maxpool2x2.bwd"), 0.0)),
            "finite_check": by_root.get((root, "autodiff.finite_check"), 0.0),
            "backward": by_root.get((root, "autodiff.backward"), 0.0),
            "fusion": by_root.get((root, "fusion.member_features"), 0.0),
            "save_checkpoint": by_root.get((root, "data.save_checkpoint"), 0.0),
        }
        lines.append(f"  share of {root} ({total:.3f}s): "
                     + ", ".join(f"{k} {100.0 * v / total:.1f}%" for k, v in parts.items()))
    return lines


def summarize(args, run: dict, setup_pairs: list) -> dict:
    """Metrics and report lines of one run. ``setup_pairs`` holds (set-up
    seconds, reference seconds) of each process."""
    wl = WORKLOADS[args.workload]
    lines = [f"workload {wl.name} seed {args.seed} trace {args.trace}: {wl.why}"]
    setups = [s / r * REFERENCE_S for s, r in setup_pairs]
    epochs, evals = run["epoch_s"], run["eval_s"]
    if not args.trace:
        epochs = at_reference_speed(epochs, run["epoch_ref_s"])
        evals = at_reference_speed(evals, run["eval_ref_s"])
        lines.append(
            f"  times at reference speed (reference {REFERENCE_S * 1e3:g} ms); on the wall clock:"
            f" train {throughput(run['epoch_s'], run['train_examples']):.5g}/s,"
            f" eval {throughput(run['eval_s'], run['eval_examples']):.5g}/s,"
            f" setup {median([s for s, _ in setup_pairs]):.4f}s,"
            f" reference median {1e3 * median([r for v in run['epoch_ref_s'].values() for r in v] or [0.0]):.3f} ms"
        )
    timings = {f"train epoch {k}": v for k, v in epochs.items()}
    timings.update({f"eval pass {k}": v for k, v in evals.items()})
    timings["setup"] = setups
    for name, values in timings.items():
        t = tail(values)
        slow = f", p{t[0]} {t[1]:.4f}s" if t else ", too few samples for a tail"
        lines.append(f"  {name}: n={len(values)} median {median(values):.4f}s{slow}")

    acc = run["accuracy"]
    if args.trace:
        layers = dict(run["layers"])
        untraced = throughput(run["untraced_epoch_s"], run["train_examples"])
        traced = throughput(run["epoch_s"], run["train_examples"])
        layers["trace.overhead_pct"] = 100.0 * (untraced / traced - 1.0) if traced else 0.0
        metrics = {name: {"value": layers[name], "unit": layer_unit(name)} for name in LAYER_METRICS}
        self_sum = sum(run["self_s"].values())
        lines.append(f"  traced round {run['round_s']:.3f}s; traced root frames {sum(run['root_s'].values()):.3f}s;"
                     f" self times add up to {self_sum:.3f}s; {len(run['spans'])} spans")
        lines.append(f"  tracer time removed from the frames: {run['tracer_s']:.3f}s over {run['tracer_calls']}"
                     f" traced calls ({run['residual_us']:.3f} us each calibrated as unseen by the clock reads)")
        lines += share_lines(run["incl_by_root"])
        for name, value in sorted(run["self_s"].items(), key=lambda kv: -kv[1]):
            lines.append(f"    self {name}: {value:.4f}s")
    else:
        values = {
            "train_examples_per_s": throughput(epochs, run["train_examples"]),
            "eval_examples_per_s": throughput(evals, run["eval_examples"]),
            "setup_s": median(setups),
            "peak_rss_mib": run["peak_rss_mib"],
            "top1_accuracy_pct": sum(a[0] for a in acc.values()) / max(1, len(acc)),
            "oracle_accuracy_pct": sum(a[1] for a in acc.values()) / max(1, len(acc)),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for method, (top1, oracle) in sorted(acc.items()):
        lines.append(f"  {method}: top-1 accuracy {top1:.4f}% (floor {wl.top1_floor(method)}%),"
                     f" oracle {oracle:.4f}% (floor {ORACLE_FLOOR_PCT}%)")
    for err in run["errors"]:
        lines.append(f"  FAILED {err}")

    env = dict(run["environment"])
    env.update(git_commit=git_commit(), src_lines=source_lines(), steal_ticks=run["steal_ticks"])
    lines.append("  environment: " + json.dumps(env, sort_keys=True))
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": run["failed"] == 0 and len(acc) == len(wl.methods),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
        "samples": {"epoch_s": run["epoch_s"], "eval_s": run["eval_s"], "setup_s": setup_pairs,
                    "epoch_ref_s": run.get("epoch_ref_s"), "eval_ref_s": run.get("eval_ref_s")},
        "environment": env,
        "lines": lines,
    }


if __name__ == "__main__":
    sys.exit(main())
