"""Per-layer tracing of mclkit from outside the package.

The tracer rebinds module and class attributes of mclkit where its callers
look them up (``mclkit.autodiff.conv2d``, which models and fusion reach as
``ad.conv2d``; ``mclkit.training.ensemble_forward``, which training imported
by name; ``MemberModel.forward_to_tap``) and restores every one of them on
``uninstall``. Nothing under ``src/`` is edited.

Each wrapped call is one frame on a stack. A frame's inclusive time is added
to its name; its self time is the inclusive time minus the time of the
traced frames directly below it, so the self times of all names add up to
the inclusive time of the outermost frames. Layer-boundary calls also leave
a span (name, start, end, parent) in memory; per-op numbers are aggregated
counters only, which keeps memory flat however long the run is.
"""
from __future__ import annotations

import os
import time
from collections import defaultdict

# Autodiff leaf ops (the ones that create graph nodes) and the row of the
# per-op table each is reported in. Composite helpers such as ``dense`` and
# ``tensor_mean`` are left alone: their time is the time of these leaves.
OP_GROUPS = {
    "conv2d": "conv2d",
    "maxpool2x2": "maxpool2x2",
    "matmul": "matmul",
    "softmax": "softmax",
    "log": "log",
    "add": "elementwise",
    "sub": "elementwise",
    "mul": "elementwise",
    "neg": "elementwise",
    "relu": "elementwise",
    "sigmoid": "elementwise",
    "tensor_sum": "elementwise",
    "reshape": "elementwise",
    "concat": "elementwise",
}
OP_TABLE = ("conv2d", "maxpool2x2", "matmul", "softmax", "log", "elementwise")

# Graph nodes whose gradient nobody reads: input batches, constants, masks.
DISCARDED_GRAD_OPS = frozenset({"const", "input", "leaf"})

# Objective entry points training calls through ``losses.<name>``; ie's
# cross-entropies are computed by a separate call, counted under ie too.
OBJECTIVES = {
    "member_cross_entropies": "losses.ie",
    "ie_loss_terms": "losses.ie",
    "smcl_loss_terms": "losses.smcl",
    "cmcl_loss_terms": "losses.cmcl",
    "lba_loss_terms": "losses.lba",
    "mba_loss_terms": "losses.mba",
}


class Tracer:
    """Accumulates inclusive time, self time and call counts per name.

    The tracer's own work (entering and leaving a wrapper, counting bytes and
    flops, wrapping ``_backward`` closures) is kept out of every frame: each
    frame's inclusive time is its clock time minus the tracer time spent
    inside it, and that tracer time is reported separately in
    ``overhead_s``. A traced call also costs a little before its first and
    after its last clock read (the Python call into the wrapper, the final
    bookkeeping); that part is calibrated once per tracer and removed the
    same way.
    """

    def __init__(self):
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.root_s = defaultdict(float)  # outermost frames, by name
        self.overhead_s = defaultdict(float)  # tracer time inside them, by name
        self.incl_by_root = defaultdict(float)  # (outermost frame, name) -> inclusive time
        self._root = None
        self.residual_s = 0.0  # per traced call, unseen by its clock reads
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []  # per open frame: [traced children's time, tracer time]
        self._span_stack = []
        self._saved = []

    # -- timing ---------------------------------------------------------
    def call(self, name, fn, args, kwargs, span=False, after=None):
        entered = time.perf_counter()
        if not self._stack:
            self._root = name
        span_id = None
        if span:
            span_id = len(self.spans)
            parent = self._span_stack[-1] if self._span_stack else -1
            self.spans.append([name, 0.0, 0.0, parent])
            self._span_stack.append(span_id)
        frame = [0.0, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._close(name, frame, span_id, start, time.perf_counter() - start, entered)
            raise
        dt = time.perf_counter() - start
        if after is not None:
            after(args, out)
        self._close(name, frame, span_id, start, dt, entered)
        return out

    def _close(self, name, frame, span_id, start, dt, entered):
        self._stack.pop()
        if span_id is not None:
            self._span_stack.pop()
            self.spans[span_id][1] = start
            self.spans[span_id][2] = start + dt
        incl = dt - frame[1]
        self.incl_s[name] += incl
        self.incl_by_root[self._root, name] += incl
        self.self_s[name] += incl - frame[0]
        self.calls[name] += 1
        tracer_s = frame[1] + (time.perf_counter() - entered - dt) + self.residual_s
        if self._stack:
            self._stack[-1][0] += incl
            self._stack[-1][1] += tracer_s
        else:
            self.root_s[name] += incl
            self.overhead_s[name] += tracer_s

    def wrap(self, name, original, span=False, after=None):
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, span, after)
        wrapper.__wrapped__ = original
        return wrapper

    # -- installing wrappers ---------------------------------------------
    def _rebind(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _timed(self, owner, attr, name, span=False, after=None):
        self._rebind(owner, attr, self.wrap(name, vars(owner)[attr], span, after))

    def _op(self, ad, op, group):
        bwd_name = f"autodiff.{group}.bwd"

        def after(args, out):
            flop = _conv_flop(out, args) if op == "conv2d" else 0.0
            self.counts["conv2d.flop"] += flop
            if out._backward is not None:
                out._backward = self._timed_backward(out._backward, out.parents, bwd_name, 2.0 * flop)

        self._timed(ad, op, f"autodiff.{group}.fwd", after=after)

    def _timed_backward(self, back, parents, name, flop):
        # Captures the parents, not the node, so no reference cycle keeps
        # a finished step's graph alive.
        def after(_args, contribs):
            self.counts["conv2d.flop"] += flop
            for parent, contrib in zip(parents, contribs):
                nbytes = contrib.nbytes
                self.counts["grad.bytes"] += nbytes
                if parent.op not in DISCARDED_GRAD_OPS:
                    self.counts["grad.useful_bytes"] += nbytes

        return self.wrap(name, back, after=after)

    def install(self):
        """Wrap every traced entry point; returns self for chaining."""
        from mclkit import autodiff, data, ensemble, evaluation, fusion, losses, models, training

        self.residual_s = calibrate_residual()
        for op, group in OP_GROUPS.items():
            self._op(autodiff, op, group)

        def finite(args, _out):
            self.counts["finite_check.bytes"] += args[0].nbytes

        def walked(_args, order):
            self.counts["graph.nodes"] += len(order)

        def saved(args, _out):
            self.counts["checkpoint.bytes"] += os.path.getsize(args[1])

        self._timed(autodiff, "_check_finite", "autodiff.finite_check", after=finite)
        self._timed(autodiff, "topo_order", "autodiff.topo_order", after=walked)
        self._timed(autodiff, "backward", "autodiff.backward", span=True)
        self._timed(autodiff, "sgd_step", "autodiff.sgd_step", span=True)
        self._timed(models.MemberModel, "forward_to_tap", "models.forward_to_tap")
        self._timed(models.MemberModel, "forward_from_tap", "models.forward_from_tap")
        self._timed(fusion.FusionModule, "member_features", "fusion.member_features")
        # Only training's forwards: the evaluation forwards are timed as
        # member_probabilities, which calls ensemble.ensemble_forward itself.
        self._timed(training, "ensemble_forward", "ensemble.ensemble_forward", span=True)
        self._timed(ensemble, "member_probabilities", "ensemble.member_probabilities", span=True)
        self._timed(training, "build_ensemble", "ensemble.build_ensemble")
        for attr, name in OBJECTIVES.items():
            self._timed(losses, attr, name, span=True)
        self._timed(losses, "assign_top_k", "losses.assign_top_k")
        self._timed(losses, "accumulate_counts", "losses.accumulate_counts")
        self._timed(training, "train", "training.train", span=True)
        self._timed(evaluation, "evaluate_ensemble", "evaluation.evaluate_ensemble", span=True)
        self._timed(data, "build_dataset", "data.build_dataset")
        self._timed(data, "save_checkpoint", "data.save_checkpoint", span=True, after=saved)
        self._timed(data, "load_checkpoint", "data.load_checkpoint", span=True)
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- report -----------------------------------------------------------
    def layer_metrics(self) -> dict:
        """The per-layer table, keyed by metric name, values in base units."""
        s, n, c = self.incl_s, self.calls, self.counts
        out = {}
        for group in OP_TABLE:
            out[f"autodiff.{group}.fwd_s"] = s[f"autodiff.{group}.fwd"]
            out[f"autodiff.{group}.bwd_s"] = s[f"autodiff.{group}.bwd"]
        closures = sum(s[f"autodiff.{g}.bwd"] for g in OP_TABLE)
        # Finite checks inside backward are its direct children; the ones in
        # forward ops hang below those ops instead.
        backward_checks = (
            s["autodiff.backward"] - self.self_s["autodiff.backward"]
            - closures - s["autodiff.topo_order"]
        )
        steps = n["autodiff.sgd_step"]
        grad_bytes = c["grad.bytes"]
        out.update({
            "autodiff.conv2d.calls": n["autodiff.conv2d.fwd"],
            "autodiff.conv2d.gflop": c["conv2d.flop"] / 1e9,
            "autodiff.backward.s": s["autodiff.backward"],
            "autodiff.backward.calls": n["autodiff.backward"],
            "autodiff.graph_walk.self_s": s["autodiff.backward"] - closures - backward_checks,
            "autodiff.topo_order.s": s["autodiff.topo_order"],
            "autodiff.graph.nodes_per_step": (
                c["graph.nodes"] / n["autodiff.topo_order"] if n["autodiff.topo_order"] else 0.0
            ),
            "autodiff.finite_check.s": s["autodiff.finite_check"],
            "autodiff.finite_check.calls": n["autodiff.finite_check"],
            "autodiff.finite_check.mb": c["finite_check.bytes"] / 1e6,
            "autodiff.backward.useful_grad_share": (
                c["grad.useful_bytes"] / grad_bytes if grad_bytes else 0.0
            ),
            "autodiff.sgd_step.s": s["autodiff.sgd_step"],
            "autodiff.sgd_step.calls": steps,
            "models.forward_to_tap.s": s["models.forward_to_tap"],
            "models.forward_from_tap.s": s["models.forward_from_tap"],
            "fusion.member_features.s": s["fusion.member_features"],
            "fusion.member_features.calls": n["fusion.member_features"],
            "ensemble.ensemble_forward.s": s["ensemble.ensemble_forward"],
            "ensemble.member_probabilities.s": s["ensemble.member_probabilities"],
            "ensemble.build_ensemble.s": s["ensemble.build_ensemble"],
            "losses.ie.s": s["losses.ie"],
            "losses.smcl.s": s["losses.smcl"],
            "losses.cmcl.s": s["losses.cmcl"],
            "losses.lba.s": s["losses.lba"],
            "losses.mba.s": s["losses.mba"],
            "losses.assign_top_k.s": s["losses.assign_top_k"],
            "losses.accumulate_counts.s": s["losses.accumulate_counts"],
            "training.train.s": s["training.train"],
            "training.steps": steps,
            "training.self_s": self.self_s["training.train"],
            "evaluation.evaluate_ensemble.s": s["evaluation.evaluate_ensemble"],
            "evaluation.self_s": self.self_s["evaluation.evaluate_ensemble"],
            "data.build_dataset.s": s["data.build_dataset"],
            "data.save_checkpoint.s": s["data.save_checkpoint"],
            "data.save_checkpoint.calls": n["data.save_checkpoint"],
            "data.load_checkpoint.s": s["data.load_checkpoint"],
            "data.checkpoint.mb": c["checkpoint.bytes"] / 1e6,
        })
        return out

    def span_records(self) -> list:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


def calibrate_residual(calls=20000, repeats=5) -> float:
    """Seconds per traced call that the wrapper's own clock reads miss.

    A traced parent calls a traced no-op ``calls`` times; its self time,
    less a plain loop of as many direct calls, is what each traced call
    leaves in its caller. The median of ``repeats`` estimates, at least 0.
    """
    probe = Tracer()
    child = probe.wrap("child", _noop)

    def traced_loop():
        for _ in range(calls):
            child()

    def plain_loop():
        for _ in range(calls):
            _noop()

    estimates = []
    for _ in range(repeats):
        start = time.perf_counter()
        plain_loop()
        plain = time.perf_counter() - start
        before = probe.self_s["parent"]
        probe.call("parent", traced_loop, (), {})
        estimates.append((probe.self_s["parent"] - before - plain) / calls)
    estimates.sort()
    return max(0.0, estimates[len(estimates) // 2])


def _noop():
    return None


def _conv_flop(out, args) -> float:
    """Multiply-adds of one conv2d forward, times two, from the shapes."""
    bsz, f, h, w = out.data.shape
    weight = args[1]
    kernel = weight.data.shape if hasattr(weight, "data") else weight.shape
    _, cin, kh, kw = kernel
    return 2.0 * bsz * f * h * w * cin * kh * kw
