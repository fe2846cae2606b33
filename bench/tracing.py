"""Spans around the calls into tailbayes' public functions, from outside.

A wrapper replaces each traced function where its caller looks the name
up (a module attribute, a name bound by ``from ... import``, or a class
method).  Each call made while the tracer is active records one span:
(layer, start, end, parent index, points).  Spans stay in memory until
``aggregate`` folds them into per-layer self times; self time is a span's
duration minus the time its child spans cover.  A call counts towards a
layer's ``calls`` and ``points`` only when it enters the layer from
outside, so a method calling a sibling method of the same layer (pdf ->
log_pdf) is one call.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

# Per-layer metrics of the traced run: "<layer>.<figure>", where figure is
# calls, self_ms (per round), self_us (per call), values_per_s or
# points_per_s (over self time) or us_per_point.  A layer is a span name.
METRICS = (
    "import.self_ms",
    "cli.ingest.self_ms", "cli.ingest.values_per_s",
    "cli.document.self_ms", "cli.main.self_ms",
    "sufficient.suff_stats.calls", "sufficient.suff_stats.self_ms",
    "sufficient.suff_stats.values_per_s",
    "sufficient.merge.calls", "sufficient.merge.self_ms",
    *(f"pot_pipeline.{name}.{figure}"
      for name in ("fit", "sequential_update", "predict", "support")
      for figure in ("calls", "self_us")),
    *(f"{module}.update.self_us"
      for module in ("conjugate_pareto", "conjugate_exponential",
                     "conjugate_power", "conjugate_uniform")),
    "pot_pipeline.select_threshold.self_ms",
    "pot_pipeline.holdout_log_predictive.calls",
    "pot_pipeline.holdout_log_predictive.self_ms",
    *(f"{layer}.{figure}" for layer in ("distributions.eval", "predictives.eval")
      for figure in ("calls", "self_ms", "points_per_s")),
    "conjugate_uniform.posterior_joint.calls",
    "conjugate_uniform.posterior_joint.self_ms",
    *(f"conjugate_uniform.{name}.us_per_point"
      for name in ("pdf", "cdf", "quantile", "width_cdf")),
)

_EVAL_METHODS = ("pdf", "log_pdf", "cdf", "quantile")


def _first_arg_size(args, kwargs, result):
    return int(np.size(args[0])) if args else 0


def _method_arg_size(args, kwargs, result):
    return int(np.size(args[1])) if len(args) > 1 else 0


def _result_size(args, kwargs, result):
    return len(result)


def _no_size(args, kwargs, result):
    return 0


class Tracer:
    """Records spans while ``active``; inactive wrappers only forward."""

    def __init__(self):
        self.active = False
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._undo: list = []

    def wrap(self, layer: str, fn, size=_no_size):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans[idx] = (layer, t0, t1, parent,
                                   size(args, kwargs, result))

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        def counted(*args, **kwargs):
            if self.active:
                self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap tailbayes' public functions where their callers find them."""
        from tailbayes import (conjugate_exponential, conjugate_pareto,
                               conjugate_power, conjugate_uniform,
                               distributions, pot_pipeline, predictives,
                               sufficient)

        pipeline = {
            "fit": ("pot_pipeline.fit", _no_size),
            "sequential_update": ("pot_pipeline.sequential_update", _no_size),
            "predict": ("pot_pipeline.predict", _no_size),
            "support": ("pot_pipeline.support", _no_size),
            "select_threshold": ("pot_pipeline.select_threshold",
                                 _first_arg_size),
            "holdout_log_predictive": ("pot_pipeline.holdout_log_predictive",
                                       _no_size),
            "suff_stats": ("sufficient.suff_stats", _first_arg_size),
            "merge": ("sufficient.merge", _no_size),
        }
        wrapped = {}
        for name, (layer, size) in pipeline.items():
            wrapped[name] = self.wrap(layer, getattr(pot_pipeline, name), size)
            self._patch(pot_pipeline, name, wrapped[name])
        for name in ("suff_stats", "merge"):
            self._patch(sufficient, name, wrapped[name])

        updates = (
            (conjugate_pareto, "conjugate_pareto.update",
             ("posterior_l", "posterior_alpha", "posterior_joint",
              "noninformative")),
            (conjugate_exponential, "conjugate_exponential.update",
             ("posterior_l", "posterior_alpha", "posterior_joint",
              "noninformative")),
            (conjugate_power, "conjugate_power.update",
             ("posterior_u", "posterior_alpha", "posterior_joint",
              "noninformative")),
            (conjugate_uniform, "conjugate_uniform.update",
             ("posterior_w", "posterior_location", "noninformative")),
        )
        for module, layer, names in updates:
            for name in names:
                self._patch(module, name,
                            self.wrap(layer, getattr(module, name)))
        self._patch(conjugate_uniform, "posterior_joint",
                    self.wrap("conjugate_uniform.posterior_joint",
                              conjugate_uniform.posterior_joint))
        if hasattr(conjugate_uniform, "quad"):
            self._patch(conjugate_uniform, "quad",
                        self.count("conjugate_uniform.quad",
                                   conjugate_uniform.quad))

        joint_pred = conjugate_uniform.UniformJointPredictive
        for method, layer in (("pdf", "conjugate_uniform.pdf"),
                              ("log_pdf", "conjugate_uniform.pdf"),
                              ("cdf", "conjugate_uniform.cdf"),
                              ("quantile", "conjugate_uniform.quantile")):
            self._patch(joint_pred, method,
                        self.wrap(layer, getattr(joint_pred, method),
                                  _method_arg_size))
        joint_post = conjugate_uniform.UniformJointPosterior
        self._patch(joint_post, "width_cdf",
                    self.wrap("conjugate_uniform.width_cdf",
                              joint_post.width_cdf, _method_arg_size))

        for module, layer in ((distributions, "distributions.eval"),
                              (predictives, "predictives.eval")):
            for cls_name in module.__all__:
                cls = getattr(module, cls_name)
                if not isinstance(cls, type):
                    continue
                for method in _EVAL_METHODS:
                    if method in vars(cls):
                        self._patch(cls, method,
                                    self.wrap(layer, vars(cls)[method],
                                              _method_arg_size))

    def install_cli(self, cli_module) -> None:
        """Wrap the names the CLI binds at import, plus its own layers."""
        self.install()
        from tailbayes import pot_pipeline

        for name in ("fit", "holdout_log_predictive", "predict",
                     "sequential_update", "suff_stats", "support"):
            if hasattr(cli_module, name):
                self._patch(cli_module, name, getattr(pot_pipeline, name))
        self._patch(cli_module, "ingest",
                    self.wrap("cli.ingest", cli_module.ingest, _result_size))
        for name in ("render_document", "load_document"):
            self._patch(cli_module, name,
                        self.wrap("cli.document", getattr(cli_module, name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list, dict]:
        """Hand over the recorded spans and counts and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


def aggregate(spans) -> tuple[dict, float]:
    """Per-layer [self seconds, calls, points] and the time top-level
    spans cover, from one batch of spans."""
    child_time = [0.0] * len(spans)
    for layer, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict = {}
    covered = 0.0
    for i, (layer, t0, t1, parent, points) in enumerate(spans):
        row = out.setdefault(layer, [0.0, 0, 0])
        row[0] += (t1 - t0) - child_time[i]
        if parent < 0:
            covered += t1 - t0
        if parent < 0 or spans[parent][0] != layer:
            row[1] += 1
            row[2] += points
    return out, covered


def dump_spans(path: str, spans, counts) -> None:
    with open(path, "w") as handle:
        json.dump({"spans": spans, "counts": counts}, handle)


def load_spans(path: str):
    with open(path) as handle:
        doc = json.load(handle)
    return [tuple(s) for s in doc["spans"]], doc["counts"]
