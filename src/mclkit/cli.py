"""Experiment runner: train, evaluate, and compare ensemble methods.

All reports are plain CSV so runs can be diffed byte-for-byte; nothing in
the output depends on wall-clock time. Exit codes: 0 success, 1 partial
failure (compare sub-run failed), 2 usage or configuration error, 3 numeric
failure.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import click
import numpy as np

from .autodiff import SgdConfig
from .data import (
    build_dataset,
    load_checkpoint,
    parse_dataset_spec,
    save_checkpoint,
    with_seed,
)
from .errors import (
    ConfigurationError,
    FormatError,
    InputError,
    MclError,
    NumericError,
    StateError,
    UnsupportedMethodError,
)
from .evaluation import (
    confidence_histogram,
    cross_entropy_split,
    evaluate_ensemble,
    ood_score,
    purity_flow,
    renormalize_rows,
)
from .training import TrainConfig, train

EXIT_PARTIAL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


@dataclass
class ExperimentConfig:
    """Flat, file-serializable experiment settings; flags override file values.
    The training defaults are read from ``TrainConfig`` and ``SgdConfig``."""

    method: str = "amcl"
    dataset: str = "bars:classes=2,per_class=128"
    members: int = TrainConfig.members
    overlap: int = TrainConfig.overlap_k
    beta: float = TrainConfig.beta
    gamma: float = TrainConfig.gamma
    t_tau: int = TrainConfig.t_tau
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    seed: int = TrainConfig.seed
    fusion: str = TrainConfig.fusion
    lr: float = SgdConfig.learning_rate
    momentum: float = SgdConfig.momentum
    weight_decay: float = SgdConfig.weight_decay
    p_share: float = TrainConfig.p_share
    arch: str = TrainConfig.arch_kind
    hidden: str = ",".join(str(h) for h in TrainConfig.hidden_sizes)
    out: str = ""

    def to_file(self, path) -> None:
        lines = [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        values: dict = {}
        types = {f.name: f.type for f in fields(cls)}
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            key = key.strip()
            if not eq or key not in types:
                raise ConfigurationError(f"{path}:{lineno}: unknown config entry {line!r}")
            caster = {"int": int, "float": float, "str": str}[types[key]]
            values[key] = caster(value.strip())
        return cls(**values)


def _resolve_config(config_path, overrides: dict) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(config_path) if config_path else ExperimentConfig()
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _train_config(cfg: ExperimentConfig) -> TrainConfig:
    hidden = tuple(int(h) for h in cfg.hidden.split(",") if h.strip())
    return TrainConfig(
        method=cfg.method,
        members=cfg.members,
        overlap_k=cfg.overlap,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
        sgd=SgdConfig(
            learning_rate=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay
        ),
        beta=cfg.beta,
        gamma=cfg.gamma,
        t_tau=cfg.t_tau,
        fusion=cfg.fusion,
        p_share=cfg.p_share,
        arch_kind=cfg.arch,
        hidden_sizes=hidden,
    )


def _dataset_from_spec(spec_text: str, default_seed: int):
    spec = parse_dataset_spec(spec_text)
    if spec.kind in ("blobs", "bars") and "seed=" not in spec_text:
        spec = with_seed(spec, default_seed)
    return spec, build_dataset(spec)


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(str(item) for item in row) + "\n")


def _summary_rows(cfg: ExperimentConfig, state, log) -> tuple:
    last = log.records[-1]
    header = (
        "method,members,overlap,epochs,batch_size,seed,beta,gamma,t_tau,fusion,"
        "final_train_loss,final_oracle_error,final_top1_error,frozen"
    )
    row = (
        cfg.method,
        cfg.members,
        cfg.overlap,
        cfg.epochs,
        cfg.batch_size,
        cfg.seed,
        repr(cfg.beta),
        repr(cfg.gamma),
        cfg.t_tau,
        cfg.fusion,
        repr(last.train_loss),
        repr(last.oracle_error),
        repr(last.top1_error),
        int(state.specialization is not None and state.specialization.frozen),
    )
    return header, row


# The ExperimentConfig fields that train and compare both take as flags; a
# flag left unset (None) keeps the config's value.
_SHARED_OPTIONS = (
    click.option("--members", type=int, default=None, help="Ensemble size M"),
    click.option("--overlap", type=int, default=None, help="Specialists per example K"),
    click.option("--beta", type=float, default=None),
    click.option("--gamma", type=float, default=None),
    click.option("--t-tau", type=int, default=None, help="Epoch threshold for the assignment switch"),
    click.option("--epochs", type=int, default=None),
    click.option("--batch-size", type=int, default=None),
    click.option("--seed", type=int, default=None),
    click.option("--fusion", type=click.Choice(["none", "module", "share"]), default=None),
    click.option("--lr", type=float, default=None),
    click.option("--momentum", type=float, default=None),
    click.option("--weight-decay", type=float, default=None),
    click.option("--arch", type=click.Choice(["auto", "simple_cnn", "mlp"]), default=None),
    click.option("--hidden", default=None, help="Comma-separated MLP hidden widths"),
)


def _shared_options(command):
    for option in reversed(_SHARED_OPTIONS):
        command = option(command)
    return command


@click.group()
@click.pass_context
def main(ctx):
    """Desk-scale multiple-choice-learning experiment runner."""
    # A diverging run ends as a NumericError naming the op, not numpy warnings.
    ctx.with_resource(np.errstate(over="ignore", invalid="ignore", divide="ignore"))


@main.command("train")
@click.option("--method", type=click.Choice(["ie", "smcl", "cmcl", "amcl"]), default=None)
@click.option("--dataset", "dataset_spec", default=None, help="Dataset spec, e.g. bars:classes=2,per_class=128")
@_shared_options
@click.option("--p-share", type=float, default=None)
@click.option("--checkpoint-every", type=int, default=0, help="Also checkpoint every N epochs")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", default=None, help="Output directory (required)")
def cmd_train(dataset_spec, config_path, checkpoint_every, out, **overrides):
    """Train one ensemble and write checkpoint + CSV reports."""
    try:
        cfg = _resolve_config(config_path, {**overrides, "dataset": dataset_spec, "out": out})
        if not cfg.out:
            raise ConfigurationError("--out is required (or set out= in the config file)")
        train_cfg = _train_config(cfg)
        _, dataset = _dataset_from_spec(cfg.dataset, cfg.seed)
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)

        def hook(epoch, state, record):
            if checkpoint_every and epoch % checkpoint_every == 0:
                save_checkpoint(state, out_dir / f"checkpoint_ep{epoch}.amc1")

        state, log = train(dataset, train_cfg, on_epoch=hook)
    except (ConfigurationError, InputError, StateError, FormatError) as exc:
        raise click.UsageError(str(exc))
    except NumericError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)

    save_checkpoint(state, out_dir / "checkpoint.amc1")
    log.to_csv(out_dir / "train_log.csv")
    log.purity_to_csv(out_dir / "purity_flow.csv")
    header, row = _summary_rows(cfg, state, log)
    _write_csv(out_dir / "summary.csv", header, [row])
    cfg.to_file(out_dir / "config.txt")
    click.echo(f"trained {cfg.method} ensemble -> {out_dir}")


@main.command("eval")
@click.option("--checkpoint", "checkpoint_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--dataset", "dataset_spec", required=True, help="Test dataset spec")
@click.option("--ood-dataset", "ood_spec", default=None, help="Extra inputs scored by auxiliary probability")
@click.option("--histograms/--no-histograms", default=False, help="Per-class confidence histograms")
@click.option("--ce-split/--no-ce-split", default=False, help="Specialized vs non-specialized cross-entropies")
@click.option("--purity/--no-purity", default=False, help="Cumulative assignment ratios from the checkpoint")
@click.option("--seed", type=int, default=TrainConfig.seed, help="Seed for synthetic test data without an explicit seed")
@click.option("--out", required=True, help="Output directory")
def cmd_eval(checkpoint_path, dataset_spec, ood_spec, histograms, ce_split, purity, seed, out):
    """Evaluate a checkpoint and write metric CSVs."""
    try:
        state = load_checkpoint(checkpoint_path)
        _, dataset = _dataset_from_spec(dataset_spec, seed)
        if dataset.n_classes != state.n_classes:
            raise ConfigurationError(
                f"dataset has {dataset.n_classes} classes, checkpoint expects {state.n_classes}"
            )
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)

        pred, report = evaluate_ensemble(state, dataset)
        _write_csv(
            out_dir / "errors.csv",
            "oracle_error,top1_error,n_examples",
            [(repr(report.oracle_error), repr(report.top1_error), len(dataset))],
        )

        def histogram(name, probs, c):
            centers, counts = confidence_histogram(probs, dataset.labels, c)
            _write_csv(out_dir / name, "bin_center,count", zip((repr(float(x)) for x in centers), counts))

        if histograms:
            for c in range(state.n_classes):
                histogram(f"confidence_class{c}.csv", pred.normalized, c)
            per_model = renormalize_rows(pred.per_model)
            for m in range(len(state.members)):
                for c in range(state.n_classes):
                    histogram(f"confidence_class{c}_model{m}.csv", per_model[:, m], c)

        if ce_split:
            spec_vals, non_vals = cross_entropy_split(
                pred.per_model, dataset.labels, state.specialization
            )
            rows = [("specialized", repr(float(v))) for v in spec_vals]
            rows += [("non_specialized", repr(float(v))) for v in non_vals]
            _write_csv(out_dir / "ce_split.csv", "bucket,cross_entropy", rows)
            report.ce_split = (spec_vals, non_vals)

        if ood_spec is not None:
            _, ood_ds = _dataset_from_spec(ood_spec, seed + 1)
            scores = ood_score(state, ood_ds.features)
            _write_csv(
                out_dir / "ood_scores.csv",
                "index,score",
                ((i, repr(float(s))) for i, s in enumerate(scores)),
            )
            report.ood_scores = scores

        if purity:
            if state.counter is None:
                raise StateError("checkpoint carries no assignment counter")
            counts = state.counter.counts
            ratios = purity_flow([counts])[0]
            rows = [
                (c, m, int(count), repr(float(ratios[c, m])))
                for (c, m), count in np.ndenumerate(counts)
            ]
            _write_csv(out_dir / "purity_cumulative.csv", "class,model,count,ratio", rows)

        (out_dir / "summary.txt").write_text("\n".join(report.summary_lines()) + "\n")
    except (ConfigurationError, InputError, StateError, FormatError, UnsupportedMethodError) as exc:
        raise click.UsageError(str(exc))
    except NumericError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    click.echo(f"evaluation written -> {out}")


@main.command("compare")
@click.option("--methods", required=True, help="Comma-separated subset of ie,smcl,cmcl,amcl")
@click.option("--dataset", "dataset_spec", required=True, help="Training dataset spec")
@click.option("--eval-dataset", "eval_spec", default=None, help="Held-out spec; defaults to the training spec reseeded")
@_shared_options
@click.option("--out", required=True)
def cmd_compare(methods, dataset_spec, eval_spec, out, **overrides):
    """Train every requested method under identical conditions and tabulate."""
    requested = [m.strip() for m in methods.split(",") if m.strip()]
    unknown = [m for m in requested if m not in ("ie", "smcl", "cmcl", "amcl")]
    if unknown:
        raise click.UsageError(f"unknown methods: {', '.join(unknown)}")
    if not requested:
        raise click.UsageError("no methods requested")

    cfg = _resolve_config(None, {**overrides, "dataset": dataset_spec})
    try:
        spec, train_ds = _dataset_from_spec(dataset_spec, cfg.seed)
        if eval_spec is not None:
            _, eval_ds = _dataset_from_spec(eval_spec, cfg.seed + 1)
        elif spec.kind in ("blobs", "bars"):
            eval_ds = build_dataset(with_seed(spec, spec.seed + 1))
        else:
            eval_ds = train_ds
    except (ConfigurationError, InputError, FormatError) as exc:
        raise click.UsageError(str(exc))

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    failed = False
    for method in requested:
        try:
            state, _ = train(train_ds, _train_config(replace(cfg, method=method)))
            _, report = evaluate_ensemble(state, eval_ds)
            oracle, top1 = report.oracle_error, report.top1_error
            hm = 0.0 if oracle + top1 == 0 else 2.0 * oracle * top1 / (oracle + top1)
            rows.append((method, repr(oracle), repr(top1), repr(hm), "ok"))
        except MclError as exc:
            click.echo(f"{method}: failed ({exc})", err=True)
            rows.append((method, "", "", "", "FAILED"))
            failed = True
    _write_csv(out_dir / "comparison.csv", "method,oracle_error,top1_error,harmonic_mean,status", rows)
    click.echo(f"comparison written -> {out_dir / 'comparison.csv'}")
    if failed:
        sys.exit(EXIT_PARTIAL)


if __name__ == "__main__":
    main()
