"""Detection scores: softmax statistics, MC-dropout, Mahalanobis.

Score orientation is not normalised here; SCORE_ORIENTATION says which
way each kind runs, and the AUC helper takes it explicitly.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .datasynth import write_csv
from .nn import (
    MlpModel, eval_trace, forward, forward_into, mc_dropout_blocks, one_blas_thread,
    row_sums, softmax,
)
from .seeding import STREAM_MC, derive_seed

# kind -> the population it scores higher, in report order
SCORE_ORIENTATION = {
    "confidence": "higher_id",
    "entropy": "higher_ood",
    "mutual_information": "higher_ood",
    "mahalanobis": "higher_id",
}
SCORE_KINDS = tuple(SCORE_ORIENTATION)

# Passes that mc_dropout_predict folds at a time, so at most this many
# passes' probabilities are alive. On bench train_dropout (2 vCPUs, seed
# 5) peak RSS read 48.9, 49.4 and 50.5 MB at 8, 16 and 32 passes, against
# 57.4 MB for eval's whole 200-pass stack, with op_s within noise.
MC_BLOCK_PASSES = 16


class PredictiveSamples:
    """What the softmax scores read of T passes over N rows of k classes:
    mean_probs(), shape (N, k), each row's mean per-pass entropy
    mean_pass_entropy, shape (N,), and num_passes. Folded with
    pass_entropy=False, the samples skip the per-pass entropies, and
    reading mean_pass_entropy raises ValueError.

    Built from a (T, N, k) stack, or by fold() from its blocks in pass
    order, so that one block at a time need be alive. Every block must
    hold no negative or NaN probability, and rows that sum to 1 within
    1e-10. The statistics equal stack.mean(axis=0) and
    _entropy_rows(stack).mean(axis=0) bit for bit: numpy reduces the pass
    axis in pass order into +0.0 when there are at least 2 values per
    pass, so both are summed that way and divided by T. At N = 1 numpy
    sums the T per-pass entropies pairwise, so they are kept and
    averaged by numpy; that is the one array that grows with T.
    """

    def __init__(self, probs, *, pass_entropy: bool = True):
        """The statistics of a (T, N, k) stack, folded as one block."""
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 3:
            raise ValueError(f"probs must be (T, N, k), got {probs.shape}")
        self._fold([probs], len(probs), pass_entropy)

    @classmethod
    def fold(
        cls, blocks, num_passes: int, *, pass_entropy: bool = True
    ) -> "PredictiveSamples":
        """The statistics of num_passes passes, given as blocks of shape
        (T_b, N, k) in pass order."""
        samples = cls.__new__(cls)
        samples._fold(blocks, num_passes, pass_entropy)
        return samples

    def _fold(self, blocks, num_passes: int, pass_entropy: bool) -> None:
        if num_passes < 1:
            raise ValueError("need at least one pass")
        total = entropy = None
        done = 0
        for block in blocks:
            # written so that NaN fails both checks
            if not np.all(block >= 0):
                raise ValueError("negative or NaN probabilities")
            if not np.max(np.abs(row_sums(block) - 1.0)) <= 1e-10:
                raise ValueError("probability rows must sum to 1 within 1e-10")
            if total is None:
                total = np.zeros(block.shape[1:])
                if pass_entropy:
                    n = block.shape[1]
                    # a running sum at N >= 2, the per-pass values at N = 1
                    entropy = np.zeros(n) if n >= 2 else np.empty((num_passes, n))
            if entropy is not None:
                if entropy.ndim == 1:
                    for row in _entropy_rows(block):
                        entropy += row
                else:
                    entropy[done:done + len(block)] = _entropy_rows(block)
            for probs in block:
                total += probs
            done += len(block)
        if done != num_passes:
            raise ValueError(f"blocks hold {done} passes, not {num_passes}")
        total /= num_passes
        total.flags.writeable = False
        self._mean_probs = total
        if entropy is not None:
            entropy = entropy / num_passes if entropy.ndim == 1 else entropy.mean(axis=0)
        self._mean_pass_entropy = entropy
        self.num_passes = num_passes

    def mean_probs(self) -> np.ndarray:
        """The pass-averaged class probabilities, shape (N, k), read-only."""
        return self._mean_probs

    @property
    def mean_pass_entropy(self) -> np.ndarray:
        """Each row's mean per-pass entropy, shape (N,)."""
        if self._mean_pass_entropy is None:
            raise ValueError("mean_pass_entropy was not folded: these samples "
                             "were drawn with pass_entropy=False")
        return self._mean_pass_entropy


def predict_probs(model: MlpModel, inputs) -> np.ndarray:
    """Deterministic eval-mode class probabilities."""
    logits, _ = forward(model, inputs, mode="eval")
    return softmax(logits)


@one_blas_thread()
def mc_dropout_predict(
    model: MlpModel, inputs, num_passes: int, seed: int, *,
    pass_entropy: bool = True,
) -> PredictiveSamples:
    """num_passes stochastic forward passes; pass t draws its masks from
    derive_seed(seed, STREAM_MC, t). pass_entropy=False skips the
    per-pass entropies (PredictiveSamples).

    With dropout_rate = 0 every pass equals the eval-mode prediction.
    Runs under one_blas_thread(), so a large call may run its passes on
    more than one thread (nn.pass_threads).
    """
    if num_passes < 1:
        raise ValueError(f"num_passes must be >= 1, got {num_passes}")
    seeds = [derive_seed(seed, STREAM_MC, t) for t in range(num_passes)]
    blocks = mc_dropout_blocks(model, inputs, seeds, MC_BLOCK_PASSES)
    with contextlib.closing(blocks):
        return PredictiveSamples.fold(blocks, num_passes, pass_entropy=pass_entropy)


def uses_mc(model: MlpModel, passes: int) -> bool:
    """Whether predictive_samples draws MC-dropout passes: passes > 1 on a
    dropout model."""
    return passes > 1 and model.dropout_rate > 0


@one_blas_thread()
def predictive_samples(
    model: MlpModel, inputs, passes: int, seed: int, *,
    pass_entropy: bool = True,
) -> PredictiveSamples:
    """The model's predictive distribution on `inputs`, as it deploys: the
    one function that draws one, MC-averaged or deterministic.

    A dropout model with passes > 1 gets `passes` MC-dropout passes
    seeded by `seed`. Otherwise predict_probs' one eval-mode pass gives a
    T=1 stack, and the seed is ignored. pass_entropy=False skips the
    per-pass entropies, which only mutual_information_score reads. Runs
    under one_blas_thread().
    """
    if uses_mc(model, passes):
        return mc_dropout_predict(model, inputs, passes, seed,
                                  pass_entropy=pass_entropy)
    return PredictiveSamples(predict_probs(model, inputs)[None],
                             pass_entropy=pass_entropy)


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    # 0 * log 0 = 0. One temporary: log(p) * p is p * log(p) bit for bit,
    # since IEEE multiplication commutes
    terms = np.where(p > 0.0, p, 1.0)
    np.log(terms, out=terms)
    terms *= p
    return -row_sums(terms)


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
    return _entropy_rows(samples.mean_probs()) - samples.mean_pass_entropy


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
        # written so that NaN fails the check
        if not np.max(np.abs(self.precision - self.precision.T)) <= 1e-9:
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
    ordered = np.sort(y)  # np.unique(y) would import numpy.ma
    classes = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
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
    # np.linalg.cholesky accepts a matrix of infinities
    if not np.all(np.isfinite(cov)):
        raise ValueError("Mahalanobis fit needs a finite tied covariance, but "
                         "the features' covariance overflows")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError(
            "tied covariance is singular; pass shrinkage > 0"
        ) from None
    precision = np.linalg.inv(cov)
    if not np.all(np.isfinite(precision)):
        raise ValueError("Mahalanobis fit needs a finite precision, but "
                         "inverting the tied covariance overflows")
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
    if len(x) < 3:
        # einsum picks the order of each quadratic form's sum from its
        # operands' shapes and strides, and on one or two rows of 2
        # features the per-class form below picks another one than this
        # batched form; the (k, N, d) differences are small here
        diffs = x[None, :, :] - detector.class_means[:, None, :]
        quad = np.einsum("kni,ij,knj->kn", diffs, detector.precision, diffs)
        return (-quad).max(axis=0)
    # one class at a time, so the differences are (N, d), not (k, N, d);
    # the running maximum is numpy's reduction over the class axis
    best = None
    for mean in detector.class_means:
        diff = x - mean
        score = -np.einsum("ni,ij,nj->n", diff, detector.precision, diff)
        best = score if best is None else np.maximum(best, score, out=best)
    return best


def penultimate_features(model: MlpModel, inputs) -> np.ndarray:
    """Eval-mode input to the final linear layer, from an nn.eval_trace pass."""
    trace = eval_trace(model, inputs)
    forward_into(model, trace, None)
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
