"""Detection scores: softmax statistics, MC-dropout, Mahalanobis.

Score orientation is not normalised here; SCORE_ORIENTATION says which
way each kind runs, and the AUC helper takes it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasynth import write_csv
from .nn import MlpModel, forward, mc_dropout_probs, one_blas_thread, softmax
from .seeding import STREAM_MC, derive_seed

# kind -> the population it scores higher, in report order
SCORE_ORIENTATION = {
    "confidence": "higher_id",
    "entropy": "higher_ood",
    "mutual_information": "higher_ood",
    "mahalanobis": "higher_id",
}
SCORE_KINDS = tuple(SCORE_ORIENTATION)


@dataclass
class PredictiveSamples:
    """Stacked softmax outputs of T stochastic passes, shape (T, N, k)."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 3:
            raise ValueError(f"probs must be (T, N, k), got {self.probs.shape}")
        if self.probs.shape[0] < 1:
            raise ValueError("need at least one pass")
        # written so that NaN fails both checks
        if not np.all(self.probs >= 0):
            raise ValueError("negative or NaN probabilities")
        sums = self.probs.sum(axis=2)
        if not np.max(np.abs(sums - 1.0)) <= 1e-10:
            raise ValueError("probability rows must sum to 1 within 1e-10")

    @property
    def num_passes(self) -> int:
        return self.probs.shape[0]

    def mean_probs(self) -> np.ndarray:
        return self.probs.mean(axis=0)


def predict_probs(model: MlpModel, inputs) -> np.ndarray:
    """Deterministic eval-mode class probabilities."""
    logits, _ = forward(model, inputs, mode="eval")
    return softmax(logits)


@one_blas_thread()
def mc_dropout_predict(
    model: MlpModel, inputs, num_passes: int, seed: int
) -> PredictiveSamples:
    """num_passes stochastic forward passes; pass t draws its masks from
    derive_seed(seed, STREAM_MC, t).

    With dropout_rate = 0 every pass equals the eval-mode prediction.
    Runs under one_blas_thread(), so a large call may run its passes on
    more than one thread (nn.pass_threads).
    """
    if num_passes < 1:
        raise ValueError(f"num_passes must be >= 1, got {num_passes}")
    seeds = [derive_seed(seed, STREAM_MC, t) for t in range(num_passes)]
    return PredictiveSamples(mc_dropout_probs(model, inputs, seeds))


def uses_mc(model: MlpModel, passes: int) -> bool:
    """Whether predictive_samples draws MC-dropout passes: passes > 1 on a
    dropout model."""
    return passes > 1 and model.dropout_rate > 0


@one_blas_thread()
def predictive_samples(
    model: MlpModel, inputs, passes: int, seed: int
) -> PredictiveSamples:
    """The model's predictive distribution on `inputs`, as it deploys: the
    one function that draws one, MC-averaged or deterministic.

    A dropout model with passes > 1 gets `passes` MC-dropout passes
    seeded by `seed`. Otherwise predict_probs' one eval-mode pass gives a
    T=1 stack, and the seed is ignored. Runs under one_blas_thread().
    """
    if uses_mc(model, passes):
        return mc_dropout_predict(model, inputs, passes, seed)
    return PredictiveSamples(predict_probs(model, inputs)[None])


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    # 0 * log 0 = 0. One temporary: log(p) * p is p * log(p) bit for bit,
    # since IEEE multiplication commutes
    terms = np.where(p > 0.0, p, 1.0)
    np.log(terms, out=terms)
    terms *= p
    return -terms.sum(axis=-1)


def confidence_score(samples: PredictiveSamples) -> np.ndarray:
    """Max class probability of the pass-averaged prediction. Higher = ID."""
    return samples.mean_probs().max(axis=1)


def entropy_score(samples: PredictiveSamples) -> np.ndarray:
    """Shannon entropy (nats) of the pass-averaged prediction. Higher = OOD."""
    return _entropy_rows(samples.mean_probs())


def mutual_information_score(samples: PredictiveSamples) -> np.ndarray:
    """Predictive entropy minus mean per-pass entropy. Higher = OOD.

    Exactly zero when T = 1; otherwise non-negative up to float error.
    """
    total = _entropy_rows(samples.mean_probs())
    per_pass = _entropy_rows(samples.probs).mean(axis=0)
    return total - per_pass


# the kinds scored from predictive samples, in report order
SOFTMAX_SCORES = {
    "confidence": confidence_score,
    "entropy": entropy_score,
    "mutual_information": mutual_information_score,
}


@dataclass
class MahalanobisDetector:
    """Class means plus one tied precision matrix over the feature space."""

    class_means: np.ndarray  # (k, d)
    precision: np.ndarray  # (d, d)

    def __post_init__(self):
        self.class_means = np.asarray(self.class_means, dtype=np.float64)
        self.precision = np.asarray(self.precision, dtype=np.float64)
        if self.class_means.ndim != 2 or self.class_means.shape[0] < 1:
            raise ValueError("class_means must be (k, d) with k >= 1")
        d = self.class_means.shape[1]
        if self.precision.shape != (d, d):
            raise ValueError(
                f"precision shape {self.precision.shape} != ({d}, {d})"
            )
        if np.max(np.abs(self.precision - self.precision.T)) > 1e-9:
            raise ValueError("precision must be symmetric within 1e-9")

    @property
    def feature_dim(self) -> int:
        return self.class_means.shape[1]


def fit_mahalanobis(
    features, labels, shrinkage: float | None = None
) -> MahalanobisDetector:
    """Fit per-class means and a tied covariance, then invert.

    shrinkage=None uses 1e-6 * trace(cov)/d; an explicit 0 requires the
    pooled covariance to be non-singular.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"features must be a non-empty 2-D array, got {x.shape}")
    if y.shape != (x.shape[0],):
        raise ValueError("labels length does not match features")
    if shrinkage is not None and shrinkage < 0:
        raise ValueError(f"shrinkage must be >= 0, got {shrinkage}")
    classes = np.unique(y)
    d = x.shape[1]
    means = np.zeros((classes.size, d))
    pooled = np.zeros((d, d))
    for i, c in enumerate(classes):
        block = x[y == c]
        if block.shape[0] < 2:
            raise ValueError(f"Mahalanobis fit needs 2 rows per class; class {c} has 1")
        means[i] = block.mean(axis=0)
        centred = block - means[i]
        pooled += centred.T @ centred
    pooled /= x.shape[0]
    if shrinkage is None:
        shrinkage = 1e-6 * np.trace(pooled) / d
        if shrinkage == 0:
            raise ValueError("Mahalanobis fit needs features that vary, but "
                             "they are constant within every class")
    cov = pooled + shrinkage * np.eye(d)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError(
            "tied covariance is singular; pass shrinkage > 0"
        ) from None
    precision = np.linalg.inv(cov)
    precision = (precision + precision.T) / 2.0
    return MahalanobisDetector(means, precision)


def mahalanobis_score(detector: MahalanobisDetector, rows) -> np.ndarray:
    """max over classes of the negated squared Mahalanobis distance.

    Zero at a class mean, negative elsewhere. Higher = ID.
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != detector.feature_dim:
        raise ValueError(
            f"rows must be (N, {detector.feature_dim}), got {x.shape}"
        )
    # (k, N, d) differences -> per-class quadratic forms
    diffs = x[None, :, :] - detector.class_means[:, None, :]
    quad = np.einsum("kni,ij,knj->kn", diffs, detector.precision, diffs)
    return (-quad).max(axis=0)


def penultimate_features(model: MlpModel, inputs) -> np.ndarray:
    """Eval-mode input to the final linear layer."""
    _, trace = forward(model, inputs, mode="eval")
    return trace.penultimate_features


def write_score_dump(path, scores_id, scores_ood) -> None:
    """CSV of one score kind: example_id,score,is_ood.

    Example ids run over the ID block first, then the OOD block.
    """
    s_id = np.asarray(scores_id, dtype=np.float64).ravel()
    s_ood = np.asarray(scores_ood, dtype=np.float64).ravel()
    scores = [(v, 0) for v in s_id.tolist()] + [(v, 1) for v in s_ood.tolist()]
    write_csv(path, "example_id,score,is_ood",
              [f"{i},{v!r},{is_ood}" for i, (v, is_ood) in enumerate(scores)])
