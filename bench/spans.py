"""Timing wrappers around oodkit's public functions, for the traced run.

A Recorder keeps spans (name, start, end, parent, counts) in memory.
install() replaces each wrapped function in every oodkit module that
bound it, so a call made through `from .nn import forward` in scores,
metrics or trainer is timed the same as one through `nn.forward`.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

FORWARD_SPANS = {"eval": "nn.forward_eval", "train": "nn.forward_train", "mc_dropout": "nn.forward_mc"}


def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _forward_name(args, kwargs) -> str:
    return FORWARD_SPANS[_arg(args, kwargs, 2, "mode", "eval")]


def _rows_in(args, kwargs, result) -> dict:
    return {"rows": len(_arg(args, kwargs, 1, "inputs"))}


def _rows_out(args, kwargs, result) -> dict:
    return {"rows": len(result)}


def _passes(args, kwargs, result) -> dict:
    return {"passes": int(_arg(args, kwargs, 2, "num_passes"))}


def _manifest_bytes(args, kwargs, result) -> dict:
    return {"bytes": sum(entry["bytes"] for entry in result["outputs"].values())}


# (module, function, span name or a function of the call's arguments
#  that returns one, function of (args, kwargs, result) giving counts)
LAYERS = [
    ("seeding", "derive_seed", "seeding.derive_seed", None),
    ("datasynth", "read_split", "datasynth.read_split", _rows_out),
    ("nn", "forward", _forward_name, _rows_in),
    ("nn", "backward", "nn.backward", None),
    ("nn", "sgd_step", "nn.sgd_step", None),
    ("nn", "softmax", "nn.softmax", None),
    ("nn", "load_model", "nn.load_model", None),
    ("objectives", "cross_entropy_loss", "objectives.loss", None),
    ("objectives", "ce_cosine_loss", "objectives.loss", None),
    ("objectives", "cosine_margin_ranking_loss", "objectives.loss", None),
    ("objectives", "outlier_exposure_loss", "objectives.loss", None),
    ("scores", "mc_dropout_predict", "scores.mc_dropout_predict", _passes),
    ("scores", "fit_mahalanobis", "scores.fit_mahalanobis", None),
    ("scores", "mahalanobis_score", "scores.mahalanobis_score", None),
    ("scores", "penultimate_features", "scores.penultimate_features", None),
    ("scores", "write_score_dump", "scores.write_score_dump", None),
    ("metrics", "auc_roc", "metrics.auc_roc", None),
    ("metrics", "export_decision_grid", "metrics.export_decision_grid", None),
    ("metrics", "export_histograms", "metrics.export_histograms", None),
    ("trainer", "train", "trainer.train", None),
    # private, but it is the one place per-epoch validation happens
    ("trainer", "_validation_metrics", "trainer.validation", None),
    ("trainer", "evaluate_model", "trainer.evaluate_model", None),
    ("trainer", "score_populations", "trainer.score_populations", None),
    ("cli", "build_manifest", "cli.build_manifest", _manifest_bytes),
]


class Recorder:
    """Spans of the calls made through wrapped functions, in call order.

    Each span is [name, start, end, parent index or -1, counts or None].
    A call made inside an open span of the same name (ce_cosine_loss
    calling cross_entropy_loss) is folded into that span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if open_ and spans[open_[-1]][0] == span_name:
                return fn(*args, **kwargs)
            span = [span_name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return timed

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def install(recorder: Recorder) -> list[tuple]:
    """Wrap every function in LAYERS. Returns the patches for uninstall()."""
    import oodkit

    modules = [oodkit] + [
        importlib.import_module(f"oodkit.{name}")
        for name in sorted({layer[0] for layer in LAYERS})
    ]
    patches = []
    for module_name, func_name, span_name, count in LAYERS:
        original = getattr(importlib.import_module(f"oodkit.{module_name}"), func_name)
        timed = recorder.wrap(span_name, original, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, timed)
                    patches.append((module, attr, original))
    return patches


def wrapper_seconds(calls: int = 20_000, repeats: int = 5) -> float:
    """Median extra time of one call through a Recorder wrapper over a
    direct call, measured on a function that does nothing."""
    def noop(x):
        return x

    costs = []
    for _ in range(repeats):
        timed = Recorder().wrap("noop", noop)
        start = perf_counter()
        for i in range(calls):
            noop(i)
        direct = perf_counter() - start
        start = perf_counter()
        for i in range(calls):
            timed(i)
        costs.append((perf_counter() - start - direct) / calls)
    return statistics.median(costs)


def uninstall(patches: list[tuple]) -> None:
    for module, attr, original in patches:
        setattr(module, attr, original)


def layer_table(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive total_s, self_s (time not covered
    by child spans) and the summed counts."""
    self_time = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    table: dict[str, dict] = {}
    for (name, start, end, _, counts), own in zip(spans, self_time):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
        for key, value in (counts or {}).items():
            row[key] = row.get(key, 0) + value
    return table
