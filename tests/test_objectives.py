import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodkit.nn import softmax
from oodkit.objectives import (
    ObjectiveParams,
    ce_cosine_into,
    ce_cosine_loss,
    cosine_margin_ranking_into,
    cosine_margin_ranking_loss,
    cross_entropy_into,
    cross_entropy_loss,
    outlier_exposure_into,
    outlier_exposure_loss,
    triplet_ranking_loss,
)

from _gradcheck import check_pair_gradients

LN2 = float(np.log(2.0))
LN3 = float(np.log(3.0))


def random_instance(rng: np.random.Generator, k: int | None = None):
    n = int(rng.integers(2, 9))
    k = k if k is not None else int(rng.integers(2, 6))
    z_in = rng.normal(0.0, 2.0, size=(n, k))
    z_out = rng.normal(0.0, 2.0, size=(n, k))
    y = rng.integers(0, k, size=n)
    return z_in, y, z_out


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------


def test_ce_extreme_logits_loss_near_zero():
    z = np.array([[50.0, 0.0, 0.0]])
    assert cross_entropy_loss(z, np.array([0])).loss < 1e-12


def test_ce_uniform_logits():
    z = np.zeros((4, 3))
    res = cross_entropy_loss(z, np.array([0, 1, 2, 0]))
    assert res.loss == pytest.approx(LN3, abs=1e-12)


def test_ce_analytic_example():
    # softmax([ln2,0,0]) = [.5,.25,.25]; -log(0.25) = ln 4
    res = cross_entropy_loss(np.array([[LN2, 0.0, 0.0]]), np.array([1]))
    assert res.loss == pytest.approx(np.log(4.0), abs=1e-12)


def test_ce_gradient_formula():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(6, 4))
    y = rng.integers(0, 4, size=6)
    res = cross_entropy_loss(z, y)
    expected = softmax(z)
    expected[np.arange(6), y] -= 1.0
    expected /= 6
    np.testing.assert_allclose(res.d_logits_in, expected, atol=1e-14)
    assert res.d_logits_out is None


def reference_log_softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 70), k=st.integers(2, 12), lam=st.sampled_from([0.0, 0.7]),
       seed=st.integers(0, 2**32 - 1))
def test_in_place_kernels_equal_the_reference_expressions(rows, k, lam, seed):
    # the expressions cross_entropy_loss and outlier_exposure_loss used
    # before their kernels wrote into caller buffers; then every kernel,
    # called in the one shape (z_in, y, z_out, params, d_in, d_out) the
    # training step uses, against its public loss
    rng = np.random.default_rng(seed)
    z_in = rng.normal(0.0, 3.0, size=(rows, k))
    z_out = rng.normal(0.0, 3.0, size=(rows, k))
    y = rng.integers(0, k, size=rows)
    logp = reference_log_softmax(z_in)
    ce = float(-logp[np.arange(rows), y].mean())
    d_in = np.exp(logp)
    d_in[np.arange(rows), y] -= 1.0
    d_in /= rows
    result = cross_entropy_loss(z_in, y)
    assert result.loss == ce and result.d_logits_in.tobytes() == d_in.tobytes()

    logq = reference_log_softmax(z_out)
    oe = float(lam * (-logq.mean(axis=1)).mean())
    d_out = np.zeros_like(z_out)
    if lam != 0.0:
        d_out = (lam / rows) * (np.exp(logq) - 1.0 / k)
    result = outlier_exposure_loss(z_in, y, z_out, lam)
    assert result.loss == ce + oe
    assert result.d_logits_in.tobytes() == d_in.tobytes()
    assert result.d_logits_out.tobytes() == d_out.tobytes()

    params = ObjectiveParams(lam=lam, k=k)
    for kernel, expected in (
        (cross_entropy_into, cross_entropy_loss(z_in, y)),
        (ce_cosine_into, ce_cosine_loss(z_in, y, z_out, lam)),
        (cosine_margin_ranking_into, cosine_margin_ranking_loss(z_in, y, z_out, params)),
        (outlier_exposure_into, outlier_exposure_loss(z_in, y, z_out, lam)),
    ):
        d_in, d_out = np.full_like(z_in, np.nan), np.full_like(z_out, np.nan)
        assert kernel(z_in, y, z_out, params, d_in, d_out) == (expected.loss, expected.terms)
        assert d_in.tobytes() == expected.d_logits_in.tobytes()
        if expected.d_logits_out is not None:
            assert d_out.tobytes() == expected.d_logits_out.tobytes()


def test_ce_input_validation():
    with pytest.raises(ValueError):
        cross_entropy_loss(np.zeros((2, 3)), np.array([0, 3]))  # label too big
    with pytest.raises(ValueError):
        cross_entropy_loss(np.zeros((0, 3)), np.array([], dtype=int))
    with pytest.raises(ValueError):
        cross_entropy_loss(np.array([[np.inf, 0.0]]), np.array([0]))
    with pytest.raises(ValueError):
        cross_entropy_loss(np.zeros((2, 3)), np.array([0.0, 1.0]))  # float labels


# ---------------------------------------------------------------------------
# ce_cosine
# ---------------------------------------------------------------------------


def test_ce_cosine_lambda_zero_reduces_to_ce_bitwise():
    rng = np.random.default_rng(2)
    z_in, y, z_out = random_instance(rng)
    plain = cross_entropy_loss(z_in, y)
    res = ce_cosine_loss(z_in, y, z_out, lam=0.0)
    assert res.loss == plain.loss
    np.testing.assert_array_equal(res.d_logits_in, plain.d_logits_in)
    np.testing.assert_array_equal(res.d_logits_out, np.zeros_like(z_out))


def test_ce_cosine_identical_blocks_lambda_one():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(5, 3))
    y = rng.integers(0, 3, size=5)
    ce = cross_entropy_loss(z, y).loss
    res = ce_cosine_loss(z, y, z.copy(), lam=1.0)
    assert res.loss == pytest.approx(ce + 1.0, abs=1e-12)


def test_ce_cosine_antisymmetric_in_lambda():
    rng = np.random.default_rng(4)
    for _ in range(20):
        z_in, y, z_out = random_instance(rng)
        lam = float(rng.uniform(0.1, 3.0))
        ce = cross_entropy_loss(z_in, y).loss
        up = ce_cosine_loss(z_in, y, z_out, lam).loss - ce
        down = ce_cosine_loss(z_in, y, z_out, -lam).loss - ce
        assert up == pytest.approx(-down, abs=1e-12)


def test_ce_cosine_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    z_in = rng.normal(size=(4, 3))
    y = rng.integers(0, 3, size=4)
    z_out = rng.normal(size=(4, 3))
    err = check_pair_gradients(
        lambda a, b: ce_cosine_loss(a, y, b, lam=0.5), z_in, z_out
    )
    assert err <= 1e-4


def test_ce_cosine_shape_mismatch():
    with pytest.raises(ValueError):
        ce_cosine_loss(np.zeros((3, 3)), np.array([0, 1, 2]), np.zeros((2, 3)), 1.0)


def test_ce_cosine_terms_sum_to_loss():
    rng = np.random.default_rng(6)
    z_in, y, z_out = random_instance(rng)
    res = ce_cosine_loss(z_in, y, z_out, lam=-1.0)
    assert sum(res.terms.values()) == pytest.approx(res.loss, abs=1e-10)


# ---------------------------------------------------------------------------
# cosine_margin_ranking
# ---------------------------------------------------------------------------


def params_for(k: int, **over) -> ObjectiveParams:
    base = dict(gamma=-0.5, lambda1=0.5, lambda2=0.1, alpha=0.95, k=k)
    base.update(over)
    return ObjectiveParams(lam=-1.0, **base)


def test_margin_identical_blocks_hinge_only():
    # gamma=0 and both regularisers off: loss = max(0, 0 + 1) = 1
    rng = np.random.default_rng(7)
    z = rng.normal(size=(6, 3))
    y = rng.integers(0, 3, size=6)
    res = cosine_margin_ranking_loss(
        z, y, z.copy(), params_for(3, gamma=0.0, lambda1=0.0, lambda2=0.0)
    )
    assert res.loss == pytest.approx(1.0, abs=1e-12)


def test_margin_uniform_outliers_zero_l1():
    z_in = np.random.default_rng(8).normal(size=(4, 3))
    y = np.array([0, 1, 2, 1])
    res = cosine_margin_ranking_loss(
        z_in, y, np.zeros((4, 3)), params_for(3, lambda1=2.0, lambda2=0.0)
    )
    assert res.terms["l1"] == pytest.approx(0.0, abs=1e-12)


def test_margin_true_class_at_alpha_zero_l2():
    # construct p[y] = alpha exactly: logits [ln(2 alpha/(1-alpha)), 0, 0]
    alpha = 0.8
    z_in = np.array([[np.log(2 * alpha / (1 - alpha)), 0.0, 0.0]])
    probs = softmax(z_in)
    assert probs[0, 0] == pytest.approx(alpha, abs=1e-12)
    res = cosine_margin_ranking_loss(
        z_in,
        np.array([0]),
        np.random.default_rng(9).normal(size=(1, 3)),
        params_for(3, alpha=alpha, lambda2=5.0),
    )
    assert res.terms["l2"] == pytest.approx(0.0, abs=1e-14)


def test_margin_inactive_hinge_zero_subgradient():
    # gamma more negative than any attainable mean cosine turns the
    # hinge off; with both regularisers off the gradients vanish
    rng = np.random.default_rng(10)
    z_in, y, z_out = random_instance(rng, k=3)
    res = cosine_margin_ranking_loss(
        z_in, y, z_out, params_for(3, gamma=-1.5, lambda1=0.0, lambda2=0.0)
    )
    assert res.loss == 0.0
    np.testing.assert_array_equal(res.d_logits_in, np.zeros_like(z_in))
    np.testing.assert_array_equal(res.d_logits_out, np.zeros_like(z_out))


def test_margin_k_mismatch_rejected():
    with pytest.raises(ValueError):
        cosine_margin_ranking_loss(
            np.zeros((2, 4)), np.array([0, 1]), np.zeros((2, 4)), params_for(3)
        )


def test_margin_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    z_in = rng.normal(size=(5, 3))
    y = rng.integers(0, 3, size=5)
    z_out = rng.normal(size=(5, 3))
    params = params_for(3, gamma=-0.5, lambda1=0.3, lambda2=0.2, alpha=0.9)
    res = cosine_margin_ranking_loss(z_in, y, z_out, params)
    # hinge clearly active: this instance sits away from the kink where
    # the subgradient convention would spoil the comparison
    assert res.terms["hinge"] > 1e-3
    err = check_pair_gradients(
        lambda a, b: cosine_margin_ranking_loss(a, y, b, params), z_in, z_out
    )
    assert err <= 1e-4


def test_margin_terms_sum_to_loss():
    rng = np.random.default_rng(12)
    z_in, y, z_out = random_instance(rng, k=3)
    res = cosine_margin_ranking_loss(z_in, y, z_out, params_for(3))
    assert sum(res.terms.values()) == pytest.approx(res.loss, abs=1e-10)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_margin_hinge_nonnegative_and_bounded(seed):
    # probability rows keep the mean cosine in [0, 1], so the hinge term
    # lies in [0, gamma + 1]
    rng = np.random.default_rng(seed)
    z_in, y, z_out = random_instance(rng, k=3)
    gamma = float(rng.uniform(-1.0, 0.5))
    res = cosine_margin_ranking_loss(
        z_in, y, z_out, params_for(3, gamma=gamma, lambda1=0.0, lambda2=0.0)
    )
    assert 0.0 <= res.terms["hinge"] <= max(0.0, gamma + 1.0) + 1e-12
    assert res.loss >= 0.0


# ---------------------------------------------------------------------------
# outlier exposure
# ---------------------------------------------------------------------------


def test_oe_lambda_zero_reduces_to_ce_bitwise():
    rng = np.random.default_rng(13)
    z_in, y, z_out = random_instance(rng)
    plain = cross_entropy_loss(z_in, y)
    res = outlier_exposure_loss(z_in, y, z_out, lam=0.0)
    assert res.loss == plain.loss
    np.testing.assert_array_equal(res.d_logits_in, plain.d_logits_in)
    np.testing.assert_array_equal(res.d_logits_out, np.zeros_like(z_out))


def test_oe_uniform_outliers_term_is_ln_k():
    z_in = np.random.default_rng(14).normal(size=(3, 3))
    y = np.array([0, 1, 2])
    res = outlier_exposure_loss(z_in, y, np.zeros((3, 3)), lam=1.0)
    assert res.terms["oe"] == pytest.approx(LN3, abs=1e-12)


def test_oe_negative_lambda_rejected():
    with pytest.raises(ValueError):
        outlier_exposure_loss(
            np.zeros((2, 3)), np.array([0, 1]), np.zeros((2, 3)), lam=-0.5
        )


def test_oe_gradients_match_finite_differences():
    rng = np.random.default_rng(15)
    z_in = rng.normal(size=(4, 4))
    y = rng.integers(0, 4, size=4)
    z_out = rng.normal(size=(4, 4))
    err = check_pair_gradients(
        lambda a, b: outlier_exposure_loss(a, y, b, lam=0.7), z_in, z_out
    )
    assert err <= 1e-4


# ---------------------------------------------------------------------------
# triplet ranking
# ---------------------------------------------------------------------------


def triplet_regime_oracle(d_pos: float, d_neg: float, gamma: float) -> str:
    if d_neg > d_pos + gamma:
        return "easy"
    if d_neg < d_pos:
        return "hard"
    return "semi_hard"


def test_triplet_analytic_hard():
    loss, regime = triplet_ranking_loss(
        [0.0, 0.0], [1.0, 0.0], [0.0, 0.5], gamma=0.2
    )
    assert loss == pytest.approx(0.7, abs=1e-12)
    assert regime == "hard"


def test_triplet_easy_zero_loss():
    loss, regime = triplet_ranking_loss(
        [0.0, 0.0], [0.1, 0.0], [5.0, 0.0], gamma=1.0
    )
    assert loss == 0.0
    assert regime == "easy"


def test_triplet_semi_hard_band():
    # d_pos = 1, d_neg = 1.2, gamma = 0.5: positive loss, ordering correct
    loss, regime = triplet_ranking_loss(
        [0.0, 0.0], [1.0, 0.0], [0.0, 1.2], gamma=0.5
    )
    assert loss == pytest.approx(0.3, abs=1e-12)
    assert regime == "semi_hard"


def test_triplet_regimes_match_case_oracle():
    rng = np.random.default_rng(19)
    for _ in range(200):
        z = rng.normal(size=3)
        zp = rng.normal(size=3)
        zn = rng.normal(size=3)
        gamma = float(rng.uniform(0.0, 2.0))
        loss, regime = triplet_ranking_loss(z, zp, zn, gamma)
        d_pos = float(np.linalg.norm(z - zp))
        d_neg = float(np.linalg.norm(z - zn))
        assert regime == triplet_regime_oracle(d_pos, d_neg, gamma)
        assert loss == pytest.approx(max(0.0, gamma + d_pos - d_neg), abs=1e-12)
        assert loss >= 0.0


def test_triplet_validation():
    with pytest.raises(ValueError):
        triplet_ranking_loss([0.0], [1.0], [2.0], gamma=-0.1)
    with pytest.raises(ValueError):
        triplet_ranking_loss([0.0, 1.0], [1.0], [2.0], gamma=0.1)


# ---------------------------------------------------------------------------
# shared parameter validation
# ---------------------------------------------------------------------------


def test_objective_params_validation():
    with pytest.raises(ValueError):
        ObjectiveParams(k=1)
    with pytest.raises(ValueError):
        ObjectiveParams(lambda1=-0.1)
    with pytest.raises(ValueError):
        ObjectiveParams(alpha=0.0)
    with pytest.raises(ValueError):
        ObjectiveParams(alpha=1.2)
    for name in ("lam", "gamma", "lambda1", "lambda2", "alpha"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ObjectiveParams(**{name: value})
