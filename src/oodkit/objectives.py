"""Training objectives and a reference triplet ranking loss.

The trainable losses all return a LossResult carrying the scalar loss,
per-term breakdown, and analytic logit gradients for the in-distribution
block and (where applicable) the out-of-distribution block. Gradients
are averaged over the batch, so the loss is the mean per-example value.

The triplet ranking loss at the bottom is a reference implementation:
loss value and regime only, no gradients.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .nn import row_sums, softmax_in_place


def require_finite(config) -> None:
    """Reject NaN and infinite floats in a config dataclass. Range checks
    like `x < 0` are false for NaN, so they would let it through."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass
class LossResult:
    loss: float
    d_logits_in: np.ndarray
    d_logits_out: np.ndarray | None
    terms: dict[str, float] = field(default_factory=dict)


@dataclass
class ObjectiveParams:
    """Knobs for the similarity-regularised objectives.

    lam weights the cosine term of ce_cosine (lam = -1 gives the minimax
    form) and the uniformity term of outlier_exposure. gamma is the
    ranking margin and may be negative: mean cosine of probability rows
    lives in [0, 1], so a non-negative gamma keeps the hinge always
    active.
    """

    lam: float = -1.0
    gamma: float = -0.5
    lambda1: float = 0.5
    lambda2: float = 0.1
    alpha: float = 0.95
    k: int = 3

    def __post_init__(self):
        require_finite(self)
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be >= 0")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")


def _check_logits(logits, name: str) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty 2-D batch, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError(f"non-finite entries in {name}")
    return z


def _check_labels(labels, n: int, k: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} != ({n},)")
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError("labels must be integers")
    if y.min() < 0 or y.max() >= k:
        raise ValueError(f"labels must lie in [0, {k}), got range "
                         f"[{y.min()}, {y.max()}]")
    return y


def _check_batch(logits_in, labels, logits_out):
    """The checked (z_in, y, z_out) of a loss with an outlier batch."""
    z_in = _check_logits(logits_in, "logits_in")
    z_out = _check_logits(logits_out, "logits_out")
    if z_in.shape != z_out.shape:
        raise ValueError(
            f"logits_in shape {z_in.shape} != logits_out shape {z_out.shape}"
        )
    return z_in, _check_labels(labels, *z_in.shape), z_out


def _log_softmax(z: np.ndarray) -> np.ndarray:
    # the max stays numpy's: a column-wise one can break a tie of 0.0 and
    # -0.0 the other way, and log-softmax keeps that zero's sign
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(row_sums(np.exp(shifted))[:, None])


def _softmax(z: np.ndarray) -> np.ndarray:
    # nn.softmax without its input check
    p = z.copy(order="K")
    softmax_in_place(p)
    return p


def _softmax_vjp(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    # dL/dz for L with dL/dp = g, p = softmax(z): p * (g - <g, p>)
    dot = (g * p).sum(axis=1, keepdims=True)
    return p * (g - dot)


def _row_cosines(p: np.ndarray, q: np.ndarray):
    """Per-row cosine of two probability batches plus cached norms. A
    softmax row sums to 1, so its norm is at least 1/sqrt(k)."""
    pn = np.linalg.norm(p, axis=1, keepdims=True)
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    s = (p * q).sum(axis=1, keepdims=True) / (pn * qn)
    return s, pn, qn


def _cosine_grads(p, q, s, pn, qn, weight: float):
    """Logit gradients of weight * mean_i cos(p_i, q_i)."""
    gp = weight * (q / (pn * qn) - s * p / pn**2)
    gq = weight * (p / (pn * qn) - s * q / qn**2)
    return _softmax_vjp(p, gp), _softmax_vjp(q, gq)


# Each loss below is its checks, then one call to its *_into kernel. Every
# kernel takes (z_in, y, z_out, params): checked logits, integer labels y
# in [0, k) and ObjectiveParams, where cross-entropy reads only z_in and y.
# It writes the logit gradients into (d_in, d_out) and returns (loss,
# terms). The training step calls the kernels directly, with its inputs
# checked once per train() call and its logits once per step.


def _run_kernel(kernel, z_in, y, z_out=None, params=None) -> LossResult:
    """Run a *_into kernel into fresh gradient arrays."""
    d_in = np.empty_like(z_in)
    d_out = None if z_out is None else np.empty_like(z_out)
    loss, terms = kernel(z_in, y, z_out, params, d_in, d_out)
    return LossResult(loss, d_in, d_out, terms)


def cross_entropy_loss(logits_in, labels) -> LossResult:
    """Mean cross-entropy on labelled in-distribution logits."""
    z = _check_logits(logits_in, "logits_in")
    return _run_kernel(cross_entropy_into, z, _check_labels(labels, *z.shape))


def cross_entropy_into(
    z_in, y, z_out, params, d_in, d_out
) -> tuple[float, dict[str, float]]:
    n = len(z_in)
    rows = np.arange(n)
    logp = _log_softmax(z_in)
    # -mean(logp[rows, y]); add.reduce is the sum mean() takes
    loss = float(-(np.add.reduce(logp[rows, y]) / n))
    np.exp(logp, out=d_in)
    # d_in[rows, y] -= 1.0, without the gather and scatter (rows are unique)
    np.subtract.at(d_in, (rows, y), 1.0)
    d_in /= n
    return loss, {"ce": loss}


def ce_cosine_loss(logits_in, labels, logits_out, lam: float) -> LossResult:
    """Cross-entropy plus lam * mean row-wise cosine between the softmax
    rows of the in-distribution batch and a paired outlier batch.

    Positive lam penalises similarity between the paired predictive
    distributions; lam = -1 is the minimax form, which rewards it and in
    practice drives outlier predictions toward the uniform vector.
    """
    checked = _check_batch(logits_in, labels, logits_out)
    return _run_kernel(ce_cosine_into, *checked, ObjectiveParams(lam=lam))


def ce_cosine_into(z_in, y, z_out, params, d_in, d_out) -> tuple[float, dict[str, float]]:
    ce, _ = cross_entropy_into(z_in, y, z_out, params, d_in, d_out)
    p = _softmax(z_in)
    q = _softmax(z_out)
    s, pn, qn = _row_cosines(p, q)
    cos_term = float(params.lam * s.mean())
    if params.lam != 0.0:
        g_in, g_out = _cosine_grads(p, q, s, pn, qn, params.lam / len(z_in))
        d_in += g_in
        d_out[...] = g_out
    else:
        d_out.fill(0.0)
    return ce + cos_term, {"ce": ce, "cosine": cos_term}


def cosine_margin_ranking_loss(
    logits_in, labels, logits_out, params: ObjectiveParams
) -> LossResult:
    """Hinged cosine ranking with uniformity and confidence anchors.

    loss = max(0, gamma + mean_i cos(p_in_i, p_out_i))
         + lambda1 * mean_i sum_c |p_out_ic - 1/k|
         + lambda2 * mean_i (p_in_i[y_i] - alpha)^2

    The hinge takes subgradient 0 at its kink. There is no explicit
    cross-entropy term; the lambda2 anchor supplies the label signal.
    """
    z_in, y, z_out = _check_batch(logits_in, labels, logits_out)
    if z_in.shape[1] != params.k:
        raise ValueError(f"params.k = {params.k} but logits have {z_in.shape[1]} classes")
    return _run_kernel(cosine_margin_ranking_into, z_in, y, z_out, params)


def cosine_margin_ranking_into(
    z_in, y, z_out, params: ObjectiveParams, d_in, d_out
) -> tuple[float, dict[str, float]]:
    n, k = z_in.shape
    p = _softmax(z_in)
    q = _softmax(z_out)
    s, pn, qn = _row_cosines(p, q)

    hinge_arg = params.gamma + float(s.mean())
    hinge = max(0.0, hinge_arg)
    d_in.fill(0.0)
    d_out.fill(0.0)
    if hinge_arg > 0.0:
        g_in, g_out = _cosine_grads(p, q, s, pn, qn, 1.0 / n)
        d_in += g_in
        d_out += g_out

    uniform = 1.0 / k
    l1_term = float(params.lambda1 * np.abs(q - uniform).sum(axis=1).mean())
    if params.lambda1 != 0.0:
        g_l1 = (params.lambda1 / n) * np.sign(q - uniform)
        d_out += _softmax_vjp(q, g_l1)

    rows = np.arange(n)
    p_true = p[rows, y]
    l2_term = float(params.lambda2 * ((p_true - params.alpha) ** 2).mean())
    if params.lambda2 != 0.0:
        g_l2 = np.zeros_like(p)
        g_l2[rows, y] = (params.lambda2 / n) * 2.0 * (p_true - params.alpha)
        d_in += _softmax_vjp(p, g_l2)

    loss = hinge + l1_term + l2_term
    return loss, {"hinge": hinge, "l1": l1_term, "l2": l2_term}


def outlier_exposure_loss(logits_in, labels, logits_out, lam: float) -> LossResult:
    """Cross-entropy plus lam * mean cross-entropy of outlier predictions
    against the uniform distribution over the k classes."""
    if lam < 0:
        raise ValueError(f"outlier exposure weight must be >= 0, got {lam}")
    checked = _check_batch(logits_in, labels, logits_out)
    return _run_kernel(outlier_exposure_into, *checked, ObjectiveParams(lam=lam))


def outlier_exposure_into(
    z_in, y, z_out, params, d_in, d_out
) -> tuple[float, dict[str, float]]:
    ce, _ = cross_entropy_into(z_in, y, z_out, params, d_in, d_out)
    n, k = z_out.shape
    logq = _log_softmax(z_out)
    oe_term = float(params.lam * (-logq.mean(axis=1)).mean())
    if params.lam != 0.0:
        # (lam / n) * (exp(logq) - 1/k)
        np.exp(logq, out=d_out)
        d_out -= 1.0 / k
        d_out *= params.lam / n
    else:
        d_out.fill(0.0)
    return ce + oe_term, {"ce": ce, "oe": oe_term}


# ---------------------------------------------------------------------------
# Reference triplet ranking loss (value only, no gradients)
# ---------------------------------------------------------------------------


def triplet_ranking_loss(z, z_pos, z_neg, gamma: float) -> tuple[float, str]:
    """Triplet margin loss plus the regime of the triplet.

    Returns (max(0, gamma + d_pos - d_neg), regime) where regime is
    "easy" when d_neg > d_pos + gamma, "hard" when d_neg < d_pos, and
    "semi_hard" in between.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    anchor = np.asarray(z, dtype=np.float64).ravel()
    pos = np.asarray(z_pos, dtype=np.float64).ravel()
    neg = np.asarray(z_neg, dtype=np.float64).ravel()
    if not (anchor.shape == pos.shape == neg.shape):
        raise ValueError("anchor/positive/negative shapes differ")
    d_pos = float(np.linalg.norm(anchor - pos))
    d_neg = float(np.linalg.norm(anchor - neg))
    loss = max(0.0, gamma + d_pos - d_neg)
    if d_neg > d_pos + gamma:
        regime = "easy"
    elif d_neg < d_pos:
        regime = "hard"
    else:
        regime = "semi_hard"
    return loss, regime
