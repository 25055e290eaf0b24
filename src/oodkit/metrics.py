"""Separation and robustness metrics plus CSV exports for figures.

AUC is the Mann-Whitney rank statistic: the probability that a random
outlier scores more outlier-like than a random in-distribution point,
ties counting one half.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .datasynth import CORRUPTION_KINDS, SEVERITIES
from .nn import MlpModel, eval_logits, softmax
from .nn import forward  # noqa: F401  (kept bound: tracing patches metrics.forward)
from .scores import SCORE_KINDS, _entropy_rows, predictive_samples

ORIENTATIONS = ("higher_id", "higher_ood")
GRID_QUANTITIES = ("predicted_class", "confidence", "entropy")


def auc_roc(scores_id, scores_ood, orientation: str) -> float:
    """Rank-based AUC of OOD-vs-ID separation, in [0, 1].

    orientation says which way the raw score runs: "higher_id" for
    confidence-like scores, "higher_ood" for entropy-like scores.
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(
            f"orientation must be one of {ORIENTATIONS}, got {orientation!r}"
        )
    s_id = np.asarray(scores_id, dtype=np.float64).ravel()
    s_ood = np.asarray(scores_ood, dtype=np.float64).ravel()
    if s_id.size == 0 or s_ood.size == 0:
        raise ValueError("both score populations must be non-empty")
    if not (np.all(np.isfinite(s_id)) and np.all(np.isfinite(s_ood))):
        raise ValueError("non-finite scores")
    if orientation == "higher_id":
        s_id, s_ood = -s_id, -s_ood
    # U counts, per outlier, the ID scores strictly below it plus half
    # the tied ones; twice U is an integer, so the sum is exact
    sorted_id = np.sort(s_id)
    below = np.searchsorted(sorted_id, s_ood, side="left")
    at_or_below = np.searchsorted(sorted_id, s_ood, side="right")
    u = float((below.sum() + at_or_below.sum()) / 2)
    return u / (s_id.size * s_ood.size)


def accuracy(predictions, labels) -> float:
    """Percent of matching entries."""
    pred = np.asarray(predictions).ravel()
    y = np.asarray(labels).ravel()
    if pred.shape != y.shape or pred.size == 0:
        raise ValueError("predictions and labels must be equal-length, non-empty")
    return float(100.0 * np.mean(pred == y))


def classify(model: MlpModel, inputs) -> np.ndarray:
    """Argmax class of the pass-averaged predictive distribution, which
    is one eval pass for now."""
    samples, _ = predictive_samples(model, inputs, passes=1, seed=0)
    return samples.mean_probs().argmax(axis=1)


def mce(error_table: dict[str, dict[int, float]]) -> float:
    """Sum over corruption kinds of the mean error across severities.

    The table maps kind -> severity -> error percent and must cover the
    full corruption suite at every severity.
    """
    missing_kinds = [k for k in CORRUPTION_KINDS if k not in error_table]
    if missing_kinds:
        raise ValueError(f"error table missing kinds: {missing_kinds}")
    extra = [k for k in error_table if k not in CORRUPTION_KINDS]
    if extra:
        raise ValueError(f"unknown corruption kinds: {extra}")
    total = 0.0
    for kind in CORRUPTION_KINDS:
        row = error_table[kind]
        missing = [s for s in SEVERITIES if s not in row]
        if missing:
            raise ValueError(f"kind {kind!r} missing severities: {missing}")
        vals = [float(row[s]) for s in SEVERITIES]
        if any(not np.isfinite(v) or v < 0 or v > 100 for v in vals):
            raise ValueError(f"kind {kind!r} has error values outside [0, 100]")
        total += float(np.mean(vals))
    return total


def grid_bounds(features, pad: float = 0.2) -> tuple[float, float, float, float]:
    """Bounding box of 2-D features, padded by a fraction of each extent."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"features must be (N, 2), got {x.shape}")
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    padded_lo = lo - pad * span
    padded_hi = hi + pad * span
    # a zero extent's 1e-12 pad is below the float spacing from |x| of
    # about 1e3 on; one ulp each way keeps the box from collapsing
    flat = padded_lo >= padded_hi
    lo = np.where(flat, np.nextafter(lo, -np.inf), padded_lo)
    hi = np.where(flat, np.nextafter(hi, np.inf), padded_hi)
    return float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1])


def export_decision_grid(
    model: MlpModel,
    bounds: tuple[float, float, float, float],
    resolution: int,
    paths: dict,
) -> None:
    """Evaluate quantities over a regular grid and write x0,x1,value CSVs.

    paths maps each wanted quantity to its output file; one eval pass
    over the grid serves them all. The pass keeps only the logits, so
    its memory is two buffers of resolution**2 rows of the widest hidden
    layer (nn.eval_logits), freed before any line is formatted. Rows
    iterate x1 outer, x0 inner (x0 varies fastest).
    """
    unknown = [q for q in paths if q not in GRID_QUANTITIES]
    if unknown or not paths:
        raise ValueError(
            f"quantities must be some of {GRID_QUANTITIES}, got {list(paths)}"
        )
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    x0_min, x0_max, x1_min, x1_max = bounds
    if not (x0_min < x0_max and x1_min < x1_max):
        raise ValueError(f"degenerate bounds {bounds}")
    if model.input_dim != 2:
        raise ValueError("decision grids require a 2-D input model")
    xs = np.linspace(x0_min, x0_max, resolution)
    ys = np.linspace(x1_min, x1_max, resolution)
    gx, gy = np.meshgrid(xs, ys)  # row-major: x0 varies fastest
    logits = eval_logits(model, np.column_stack([gx.ravel(), gy.ravel()]))
    probs = softmax(logits)
    values = {
        "predicted_class": logits.argmax(axis=1),
        "confidence": probs.max(axis=1),
        "entropy": _entropy_rows(probs),
    }
    x0s = [repr(v) for v in xs.tolist()]
    prefixes = [f"{x0},{x1}," for x1 in map(repr, ys.tolist()) for x0 in x0s]
    for quantity, path in paths.items():
        fmt = str if quantity == "predicted_class" else repr
        # the bytes csv.writer would write: no field here needs quoting
        lines = [p + fmt(v) for p, v in zip(prefixes, values[quantity].tolist())]
        with open(path, "w", newline="") as fh:
            fh.write("x0,x1,value\r\n")
            fh.write("\r\n".join(lines))
            fh.write("\r\n")


def export_histograms(
    score_dumps: dict[str, tuple], bins: int, path
) -> None:
    """Shared-edge histograms per score kind for the ID and OOD populations.

    score_dumps maps kind -> (id_scores, ood_scores). Writes CSV rows
    score_kind,population,bin_lo,bin_hi,count; per-population counts sum
    to the population size.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if not score_dumps:
        raise ValueError("no score populations given")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["score_kind", "population", "bin_lo", "bin_hi", "count"])
        for kind in sorted(score_dumps):
            s_id = np.asarray(score_dumps[kind][0], dtype=np.float64).ravel()
            s_ood = np.asarray(score_dumps[kind][1], dtype=np.float64).ravel()
            if s_id.size == 0 or s_ood.size == 0:
                raise ValueError(f"kind {kind!r} has an empty population")
            combined = np.concatenate([s_id, s_ood])
            lo, hi = float(combined.min()), float(combined.max())
            if lo == hi:
                lo, hi = lo - 0.5, hi + 0.5
            edges = np.linspace(lo, hi, bins + 1)
            for name, scores in (("id", s_id), ("ood", s_ood)):
                counts, _ = np.histogram(scores, bins=edges)
                for b in range(bins):
                    writer.writerow([
                        kind, name, repr(float(edges[b])),
                        repr(float(edges[b + 1])), int(counts[b]),
                    ])


@dataclass
class EvalReport:
    """Evaluation summary. AUC values are percentages."""

    id_accuracy: float
    auc: dict[str, float]
    mce: float | None = None
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        bad = [k for k in self.auc if k not in SCORE_KINDS]
        if bad:
            raise ValueError(f"unknown score kinds in AUC table: {bad}")
        for k, v in self.auc.items():
            if not 0.0 <= v <= 100.0:
                raise ValueError(f"AUC {k} = {v} outside [0, 100]")
        if not 0.0 <= self.id_accuracy <= 100.0:
            raise ValueError(f"accuracy {self.id_accuracy} outside [0, 100]")
        if self.mce is not None and self.mce < 0:
            raise ValueError(f"mce {self.mce} must be >= 0")
