"""In-memory span tracer for the oodnet benchmark, and the per-layer
metrics derived from its spans.

The tracer wraps oodnet's public functions and methods from outside the
package: nothing under ``src/`` changes, and ``uninstall`` restores every
original. Each wrapped call records a span (name, start, end, parent,
request id, batch size). A function imported by name into other modules
(``from .nn import extract_features``) is replaced in every oodnet module
that binds it, so calls through any of those names are seen.

Spans carry the phase they ran in: ``setup`` or ``work`` (the workload's
own operations). Counts are only kept during ``work``.
"""
from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from weakref import WeakKeyDictionary

import numpy as np


class Span:
    __slots__ = ("name", "parent", "phase", "request", "batch", "start", "end")

    def __init__(self, name, parent, phase, request, batch):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.request = request
        self.batch = batch
        self.start = self.end = 0


def _first_len(*args, **kwargs):
    return len(args[0])


def _second_len(*args, **kwargs):
    return len(args[1])


def _images(model, images, *args, **kwargs):
    return 1 if np.ndim(images) == 2 else len(images)


def _head_train_samples(head, feats_main, feats_anom, cfg):
    return 2 * min(len(feats_main), len(feats_anom)) * cfg.epochs


# (module, attribute, span name, batch-size function). A dotted attribute
# names a method, wrapped on its class.
TRACED = [
    ("nn", "Backbone.forward", "nn.forward", _second_len),
    ("nn", "Backbone.backward", "nn.backward", _second_len),
    ("nn", "SGD.step", "nn.sgd_step", None),
    ("nn", "softmax_xent", "nn.softmax_xent", _first_len),
    ("nn", "train_epoch", "nn.train_epoch", None),
    ("nn", "train", "nn.train", None),
    ("nn", "extract_features", "nn.extract_features", _images),
    ("centerloss", "center_loss", "centerloss.loss", _first_len),
    ("centerloss", "center_loss_grads", "centerloss.grads", _first_len),
    ("centerloss", "Centers.apply_deltas", "centerloss.apply_deltas", None),
    ("data", "synth_blobs", "data.synth", None),
    ("data", "parse_idx", "data.parse_idx", None),
    ("data", "load_idx_file", "data.load_idx", None),
    ("data", "normalize", "data.normalize", _first_len),
    ("data", "make_batches", "data.make_batches", _first_len),
    ("detector", "fit_stats", "detector.fit", _first_len),
    ("detector", "DetectorModel.calibrate", "detector.calibrate", _second_len),
    ("detector", "DetectorModel.is_normal", "detector.is_normal", None),
    ("detector", "DetectorModel.anomaly_score", "detector.anomaly_score", None),
    ("detector", "DetectorModel.is_normal_many", "detector.is_normal_many",
     _second_len),
    ("detector", "DetectorModel.anomaly_score_many",
     "detector.anomaly_score_many", _second_len),
    ("head", "OodHead.forward_many", "head.forward", _second_len),
    ("head", "classify_ood", "head.classify", None),
    ("head", "train_head", "head.train_head", None),
    ("head", "train_head_on_features", "head.train", _head_train_samples),
    ("evalkit", "roc", "evalkit.roc", _first_len),
    ("evalkit", "pca2", "evalkit.pca2", _first_len),
    ("evalkit", "write_metrics_csv", "evalkit.write_metrics_csv", None),
    ("evalkit", "write_roc_csv", "evalkit.write_roc_csv", None),
    ("evalkit", "write_projection_csv", "evalkit.write_projection_csv",
     _first_len),
    ("archive", "save_model", "archive.save", None),
    ("archive", "load_model", "archive.load", None),
    ("experiment", "run_experiment", "experiment.run", None),
    ("experiment", "run_stage_one", "experiment.stage_one", None),
    ("experiment", "run_calibration", "experiment.calibration", None),
    ("experiment", "run_stage_two", "experiment.stage_two", None),
    ("experiment", "evaluate", "experiment.evaluate", None),
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_score", "cli.score", None),
]

# Backbone layer classes whose forward/backward calls become per-layer spans.
LAYER_CLASSES = ["Conv2D", "ReLU", "MaxPool2x2", "Flatten", "Dense"]


def layer_groups(backbone) -> dict:
    """Backbone layer -> group name: conv1, pool1, conv2, pool2, dense.

    A ReLU joins the group of the layer before it; everything from the
    first Flatten or Dense on is one ``dense`` group.
    """
    groups, convs, pools, current = {}, 0, 0, None
    for layer in backbone.layers:
        kind = type(layer).__name__
        if current != "dense":
            if kind == "Conv2D":
                convs += 1
                current = f"conv{convs}"
            elif kind == "MaxPool2x2":
                pools += 1
                current = f"pool{pools}"
            elif kind in ("Flatten", "Dense"):
                current = "dense"
        groups[layer] = current
    return groups


class Tracer:
    """Records spans of wrapped oodnet calls; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.request = "setup"
        self.ops = 0
        self.counts = Counter()
        self._stack: list[int] = []
        self._digests: set = set()
        self._groups = WeakKeyDictionary()
        self._undo = []
        self.t0 = time.perf_counter_ns()

    # -- phases and requests ------------------------------------------------

    def begin_op(self, request):
        """Start one workload operation; counts are per operation."""
        self._close_op()
        self.phase = "work"
        self.request = request
        self.ops += 1

    def count(self, name, n=1):
        if self.phase == "work":
            self.counts[name] += n

    def _close_op(self):
        self.counts["nn.inference_distinct"] += len(self._digests)
        self._digests.clear()

    # -- wrapping -----------------------------------------------------------

    def _call(self, name, batch, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.phase, self.request, batch)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name, batch_of):
        tracer = self
        hook = {"nn.forward": self._on_forward,
                "nn.backward": self._on_backward}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            batch = batch_of(*args, **kwargs) if batch_of else None
            if hook:
                hook(args, batch)
            return tracer._call(name, batch, fn, args, kwargs)
        return traced

    def _wrap_layer(self, fn, suffix):
        tracer = self

        @functools.wraps(fn)
        def traced(layer, x, *rest):
            group = tracer._groups.get(layer)
            if group is None:
                return fn(layer, x, *rest)
            return tracer._call(f"nn.{group}.{suffix}", len(x), fn,
                                (layer, x) + rest, {})
        return traced

    def _in_training(self):
        return any(self.spans[i].name == "nn.train_epoch" for i in self._stack)

    def _on_forward(self, args, batch):
        backbone, images = args[0], args[1]
        if backbone.layers[0] not in self._groups:
            self._groups.update(layer_groups(backbone))
        if self._in_training():
            self.count("nn.train_samples", batch)
        elif self.phase == "work":
            self.count("nn.inference_samples", batch)
            self._digests.update(hash(row.tobytes()) for row in np.asarray(images))

    def _on_backward(self, args, batch):
        self.count("nn.backward_samples", batch)

    def _counting(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            inner = tracer.spans[tracer._stack[-1]].name if tracer._stack else ""
            tracer.count(f"{name}@{inner}")
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Wrap every traced oodnet function and method."""
        import oodnet
        import oodnet.cli  # noqa: F401  (imports every other oodnet module)
        from oodnet import detector, nn

        modules = [m for key, m in list(sys.modules.items())
                   if key == "oodnet" or key.startswith("oodnet.")]
        for modname, attr, name, batch_of in TRACED:
            home = getattr(oodnet, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._patch_method(getattr(home, cls_name), meth,
                                   self._wrap(getattr(getattr(home, cls_name), meth),
                                              name, batch_of))
            else:
                orig = getattr(home, attr)
                self._patch_bindings(modules, orig, self._wrap(orig, name, batch_of))
        for cls_name in LAYER_CLASSES:
            cls = getattr(nn, cls_name)
            for meth, suffix in (("forward", "fwd"), ("backward", "bwd")):
                self._patch_method(cls, meth,
                                   self._wrap_layer(getattr(cls, meth), suffix))
        self._patch_bindings([detector], detector.cho_solve,
                             self._counting(detector.cho_solve, "cho_solve"))

    def _patch_method(self, cls, meth, wrapper):
        own = meth in cls.__dict__
        orig = cls.__dict__.get(meth)
        setattr(cls, meth, wrapper)
        self._undo.append((cls, meth, own, orig))

    def _patch_bindings(self, modules, orig, wrapper):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, True, orig))

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self):
        self._close_op()
        for target, key, own, orig in reversed(self._undo):
            if own:
                setattr(target, key, orig)
            else:
                delattr(target, key)
        self._undo.clear()

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "phase": s.phase, "request": s.request, "batch": s.batch,
                    "start_us": (s.start - self.t0) / 1e3,
                    "end_us": (s.end - self.t0) / 1e3}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


class SpanView:
    """The spans of one phase, indexed by name and by parent."""

    def __init__(self, spans, phase):
        self.spans = spans
        self.ids = [i for i, s in enumerate(spans) if s.phase == phase]
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for i in self.ids:
            self.by_name[spans[i].name].append(i)
            self.children[spans[i].parent].append(i)

    def ms(self, i):
        s = self.spans[i]
        return (s.end - s.start) / 1e6

    def named(self, name, batch=None):
        return [i for i in self.by_name.get(name, ())
                if batch is None or self.spans[i].batch == batch]

    def self_ms(self, i):
        """Duration minus the part of it that child spans cover."""
        covered, reach = 0, self.spans[i].start
        for c in sorted(self.children.get(i, ()), key=lambda c: self.spans[c].start):
            start, end = max(self.spans[c].start, reach), self.spans[c].end
            if end > start:
                covered += end - start
                reach = end
        s = self.spans[i]
        return (s.end - s.start - covered) / 1e6

    def child_ms(self, i, names):
        return sum(self.ms(c) for c in self.children.get(i, ())
                   if self.spans[c].name in names)

    def has_ancestor(self, i, name):
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def per_request_ms(self, names):
        total = defaultdict(float)
        for name in names:
            for i in self.by_name.get(name, ()):
                total[self.spans[i].request] += self.ms(i)
        return list(total.values())


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else None


def _span_ms(name, batch=None, scale=1.0):
    """Median duration of the spans with this name (and batch size)."""
    return lambda v: _median([v.ms(i) for i in v.named(name, batch)], scale)


STAGES = ["stage_one", "calibration", "stage_two", "evaluate"]
PROJECTION = {"nn.extract_features", "evalkit.pca2",
              "evalkit.write_projection_csv"}
CSV_WRITES = ["evalkit.write_metrics_csv", "evalkit.write_roc_csv",
              "evalkit.write_projection_csv"]


def _stage_seconds(v: SpanView, stage):
    """Seconds per cell of one stage of ``run_experiment``. The six stages
    partition the cell: ``io`` is whatever the other five leave over
    (archive and CSV writes, dataset loading, the runner's own code)."""
    values = []
    for run in v.named("experiment.run"):
        parts = {s: v.child_ms(run, {f"experiment.{s}"}) for s in STAGES}
        parts["projection"] = v.child_ms(run, PROJECTION)
        parts["io"] = v.ms(run) - sum(parts.values())
        values.append(parts[stage] / 1e3)
    return _median(values)


def _layer_ms(v: SpanView, group, direction):
    parent = "nn.forward" if direction == "fwd" else "nn.backward"
    values = [v.child_ms(i, {f"nn.{group}.{direction}"})
              for i in v.named(parent, batch=64)
              if any(v.spans[c].name == f"nn.{group}.{direction}"
                     for c in v.children.get(i, ()))]
    return _median(values)


def _centerloss_step_ms(v: SpanView):
    names = {"centerloss.loss", "centerloss.grads", "centerloss.apply_deltas"}
    values = []
    for epoch in v.named("nn.train_epoch"):
        steps = sum(1 for c in v.children.get(epoch, ())
                    if v.spans[c].name == "nn.backward")
        spent = v.child_ms(epoch, names)
        if steps and spent:
            values.append(spent / steps)
    return _median(values)


def _samples_per_s(v: SpanView, names, count_name):
    samples = sum(v.spans[i].batch for i in v.named(count_name))
    seconds = sum(v.ms(i) for n in names for i in v.named(n)) / 1e3
    return samples / seconds if samples and seconds > 0 else None


# Timed metrics: name -> (unit, function of a SpanView, None when the
# phase ran no span the metric needs).
TIMED = {}
for _g in ("conv1", "pool1", "conv2", "pool2", "dense"):
    for _d in ("fwd", "bwd"):
        TIMED[f"nn.{_g}.{_d}_ms"] = (
            "ms", functools.partial(_layer_ms, group=_g, direction=_d))
TIMED.update({
    "nn.forward_b1_ms": ("ms", _span_ms("nn.forward", batch=1)),
    "nn.sgd_step_ms": ("ms", lambda v: _median(
        [v.ms(i) for i in v.named("nn.sgd_step")
         if v.has_ancestor(i, "nn.train_epoch")])),
    "nn.softmax_xent_ms": ("ms", _span_ms("nn.softmax_xent")),
    "centerloss.step_ms": ("ms", _centerloss_step_ms),
    "detector.fit_ms": ("ms", _span_ms("detector.fit")),
    "detector.calibrate_ms": ("ms", _span_ms("detector.calibrate")),
    "detector.single_us": ("us", lambda v: _median(v.per_request_ms(
        ["detector.is_normal", "detector.anomaly_score"]), 1e3)),
    "detector.batch_samples_per_s": ("samples/s", lambda v: _samples_per_s(
        v, ["detector.is_normal_many", "detector.anomaly_score_many"],
        "detector.is_normal_many")),
    "head.train_samples_per_s": ("samples/s", lambda v: _samples_per_s(
        v, ["head.train"], "head.train")),
    "head.forward_b1_us": ("us", _span_ms("head.forward", batch=1, scale=1e3)),
    "evalkit.roc_ms": ("ms", _span_ms("evalkit.roc")),
    "evalkit.pca2_ms": ("ms", _span_ms("evalkit.pca2")),
    "evalkit.csv_write_ms": ("ms", lambda v: _median(
        v.per_request_ms(CSV_WRITES))),
    "archive.save_ms": ("ms", _span_ms("archive.save")),
    "archive.load_ms": ("ms", _span_ms("archive.load")),
    "data.parse_idx_ms": ("ms", _span_ms("data.parse_idx")),
    "data.make_batches_ms": ("ms", _span_ms("data.make_batches")),
})
for _s in STAGES + ["projection", "io"]:
    TIMED[f"experiment.{_s}_s"] = ("s", functools.partial(_stage_seconds, stage=_s))
TIMED["cli.score_self_ms"] = ("ms", lambda v: _median(
    [v.self_ms(i) for i in v.named("cli.score")]))


def _per(n, d):
    return n / d if d else 0.0


def counted_metrics(tracer: Tracer, view: SpanView) -> dict:
    """Counts per workload operation; 0 where the workload bypasses the layer.

    Every operation of a workload has the same shape, so these repeat
    exactly from run to run.
    """
    c, ops = tracer.counts, tracer.ops
    inference = c["nn.inference_samples"]
    single_images = len(view.named("detector.is_normal"))
    single_solves = (c["cho_solve@detector.is_normal"]
                     + c["cho_solve@detector.anomaly_score"])
    cli_head_calls = sum(1 for i in view.named("head.forward")
                         if view.has_ancestor(i, "cli.score"))
    return {
        "nn.forward_samples": (_per(c["nn.train_samples"] + inference, ops), "count"),
        "nn.backward_samples": (_per(c["nn.backward_samples"], ops), "count"),
        "experiment.embed_redundancy": (
            _per(inference, c["nn.inference_distinct"]), "ratio"),
        "detector.solves_per_image": (_per(single_solves, single_images), "count"),
        "head.forward_calls_per_image": (
            _per(cli_head_calls, c["cli.images"]), "count"),
    }


def layer_metrics(tracer: Tracer) -> dict:
    """name -> (value, unit), from the workload's own spans. A layer the
    workload bypasses reads 0."""
    work = SpanView(tracer.spans, "work")
    setup = SpanView(tracer.spans, "setup")
    out = {name: (fn(work) or 0.0, unit) for name, (unit, fn) in TIMED.items()}
    out.update(counted_metrics(tracer, work))
    out["data.synth_s"] = (sum(setup.ms(i) for i in setup.named("data.synth")) / 1e3, "s")
    return out


def span_table(tracer: Tracer) -> list[str]:
    """One line per (phase, span name): calls, total and self time."""
    rows = {}
    for phase in ("setup", "work"):
        view = SpanView(tracer.spans, phase)
        for name, ids in view.by_name.items():
            rows[(phase, name)] = (len(ids), sum(view.ms(i) for i in ids),
                                   sum(view.self_ms(i) for i in ids))
    lines = [f"{'phase':<6} {'span':<32} {'calls':>7} {'total_ms':>11} {'self_ms':>11}"]
    for (phase, name), (calls, total, own) in sorted(rows.items()):
        lines.append(f"{phase:<6} {name:<32} {calls:>7} {total:>11.2f} {own:>11.2f}")
    return lines
