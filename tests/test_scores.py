import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oodkit.datasynth import DatasetSplit, make_default_benchmark
from oodkit.nn import forward, init_mlp, softmax
from oodkit.scores import (
    PredictiveSamples,
    _entropy_rows,
    confidence_score,
    entropy_score,
    fit_mahalanobis,
    mahalanobis_score,
    mc_dropout_predict,
    mutual_information_score,
    penultimate_features,
    predict_probs,
    predictive_samples,
    write_score_dump,
)
from oodkit.seeding import STREAM_MC, derive_seed
from oodkit.trainer import score_populations
import oodkit.trainer as trainer_mod

LN3 = float(np.log(3.0))


def samples_from(rows) -> PredictiveSamples:
    return PredictiveSamples(np.asarray(rows, dtype=np.float64))


def random_samples(seed: int, t: int = 6, n: int = 10, k: int = 4) -> PredictiveSamples:
    rng = np.random.default_rng(seed)
    raw = rng.random(size=(t, n, k)) + 1e-3
    return PredictiveSamples(raw / raw.sum(axis=2, keepdims=True))


# ---------------------------------------------------------------------------
# PredictiveSamples and MC sampling
# ---------------------------------------------------------------------------


def test_samples_validation():
    with pytest.raises(ValueError):
        PredictiveSamples(np.ones((2, 3)))  # not 3-D
    with pytest.raises(ValueError):
        PredictiveSamples(np.full((1, 2, 3), 0.5))  # rows sum to 1.5
    bad = np.array([[[1.2, -0.2]]])
    with pytest.raises(ValueError):
        PredictiveSamples(bad)
    one_nan = np.full((2, 4, 3), 1.0 / 3.0)
    one_nan[1, 2, 0] = np.nan
    with_inf = np.full((1, 2, 3), 0.0)
    with_inf[0, :, 0] = 1.0
    with_inf[0, 1, 2] = np.inf
    for probs in (np.full((1, 2, 3), np.nan), one_nan, with_inf):
        with pytest.raises(ValueError):
            PredictiveSamples(probs)


def test_deterministic_samples_match_predict_probs():
    # a dropout-free model gets one eval pass whatever the pass count
    model = init_mlp([2, 8, 3], seed=0)
    x = np.random.default_rng(1).normal(size=(7, 2))
    for passes in (1, 5):
        s = predictive_samples(model, x, passes, seed=3)
        assert s.num_passes == 1
        np.testing.assert_array_equal(s.probs[0], predict_probs(model, x))


def test_predictive_samples_mc_only_for_dropout_with_several_passes():
    model = init_mlp([2, 8, 3], dropout_rate=0.3, seed=0)
    x = np.random.default_rng(1).normal(size=(7, 2))
    s = predictive_samples(model, x, 4, seed=3)
    np.testing.assert_array_equal(
        s.probs, mc_dropout_predict(model, x, num_passes=4, seed=3).probs
    )
    one = predictive_samples(model, x, 1, seed=3)
    assert one.num_passes == 1
    np.testing.assert_array_equal(one.probs[0], predict_probs(model, x))


def test_mc_dropout_deterministic_per_seed():
    model = init_mlp([2, 16, 3], dropout_rate=0.3, seed=2)
    x = np.random.default_rng(3).normal(size=(9, 2))
    a = mc_dropout_predict(model, x, num_passes=8, seed=42)
    b = mc_dropout_predict(model, x, num_passes=8, seed=42)
    np.testing.assert_array_equal(a.probs, b.probs)


def test_mc_dropout_pass_streams_independent_of_total():
    # pass t depends only on (seed, t), never on the requested T
    model = init_mlp([2, 16, 3], dropout_rate=0.3, seed=2)
    x = np.random.default_rng(4).normal(size=(5, 2))
    a = mc_dropout_predict(model, x, num_passes=3, seed=7)
    b = mc_dropout_predict(model, x, num_passes=6, seed=7)
    np.testing.assert_array_equal(a.probs, b.probs[:3])


def test_mc_dropout_without_dropout_is_eval():
    model = init_mlp([2, 8, 3], dropout_rate=0.0, seed=5)
    x = np.random.default_rng(6).normal(size=(6, 2))
    s = mc_dropout_predict(model, x, num_passes=4, seed=0)
    ev = predict_probs(model, x)
    for t in range(4):
        np.testing.assert_array_equal(s.probs[t], ev)


@settings(max_examples=60, deadline=None)
@given(
    hidden=st.sampled_from([(), (5,), (7, 4), (128, 128)]),
    rate=st.one_of(st.just(0.0), st.floats(0.01, 0.9)),
    rows=st.integers(1, 40),
    passes=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_mc_dropout_equals_train_forward_per_pass(hidden, rate, rows, passes, seed):
    # the buffered pass loop must reproduce the traced forward bit for bit
    model = init_mlp([3, *hidden, 4], dropout_rate=rate, seed=seed % 1000)
    x = np.random.default_rng(seed).normal(scale=3.0, size=(rows, 3))
    s = mc_dropout_predict(model, x, num_passes=passes, seed=seed)
    assert s.probs.shape == (passes, rows, 4)
    for t in range(passes):
        pass_seed = derive_seed(seed, STREAM_MC, t)
        logits, _ = forward(model, x, mode="train", seed=pass_seed)
        assert s.probs[t].tobytes() == softmax(logits).tobytes()


def test_mc_dropout_rejects_non_finite_logits():
    model = init_mlp([2, 8, 3], dropout_rate=0.2, seed=0)
    for w in model.weights:
        w *= 1e200
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            mc_dropout_predict(model, np.full((4, 2), 1e200), num_passes=3, seed=0)


def test_direct_scoring_calls_run_on_one_blas_thread(monkeypatch):
    import oodkit.scores as scores_mod
    from oodkit.nn import blas_threads, set_blas_threads

    if blas_threads() is None:
        pytest.skip("numpy's BLAS exports no thread-count symbols")
    seen = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            seen.append((fn.__name__, blas_threads()))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(scores_mod, "mc_dropout_probs", spy(scores_mod.mc_dropout_probs))
    monkeypatch.setattr(scores_mod, "forward", spy(scores_mod.forward))
    for name in ("fit_mahalanobis", "penultimate_features", "mahalanobis_score"):
        monkeypatch.setattr(trainer_mod, name, spy(getattr(trainer_mod, name)))
    dropout, plain = init_mlp([2, 8, 3], 0.3, seed=0), init_mlp([2, 8, 3], seed=0)
    x = np.random.default_rng(0).normal(size=(20, 2))
    split = DatasetSplit(x, np.arange(20) % 3, "train")
    before = set_blas_threads(2)
    try:
        mc_dropout_predict(dropout, x, 4, seed=1)
        assert blas_threads() == 2
        predictive_samples(dropout, x, 4, seed=1)
        assert blas_threads() == 2
        predictive_samples(plain, x, 4, seed=1)
        assert blas_threads() == 2
        seen.append("score_populations")
        score_populations(dropout, split, split, mc_passes=4, train_split=split)
        assert blas_threads() == 2
    finally:
        set_blas_threads(before)
    features = [("penultimate_features", 1), ("forward", 1)]
    mahalanobis = features + [("fit_mahalanobis", 1)]
    mahalanobis += (features + [("mahalanobis_score", 1)]) * 2
    assert seen == ([("mc_dropout_probs", 1)] * 2 + [("forward", 1), "score_populations"]
                    + [("mc_dropout_probs", 1)] * 2 + mahalanobis)


def test_mc_dropout_rejects_bad_pass_count():
    model = init_mlp([2, 8, 3], seed=0)
    with pytest.raises(ValueError):
        mc_dropout_predict(model, np.zeros((2, 2)), num_passes=0, seed=0)


def test_mc_dropout_converges_in_passes():
    # independent-seed pass means agree within a 6-sigma standard-error bound
    bench = make_default_benchmark(seed=0, n_per_class=40, n_per_ood_component=40)
    model = init_mlp([2, 16, 3], dropout_rate=0.4, seed=8)
    x = bench["test_id"].features[:40]
    a = mc_dropout_predict(model, x, num_passes=400, seed=1)
    b = mc_dropout_predict(model, x, num_passes=4000, seed=2)
    se = np.sqrt(
        a.probs.var(axis=0) / a.num_passes + b.probs.var(axis=0) / b.num_passes
    )
    assert np.all(np.abs(a.mean_probs() - b.mean_probs()) <= 6.0 * se + 1e-6)


# ---------------------------------------------------------------------------
# score kinds
# ---------------------------------------------------------------------------


def test_confidence_examples():
    assert confidence_score(samples_from([[[1.0, 0.0, 0.0]]]))[0] == 1.0
    uniform = samples_from([[[1 / 3, 1 / 3, 1 / 3]]])
    assert confidence_score(uniform)[0] == pytest.approx(1 / 3, abs=1e-15)
    two = samples_from([[[1.0, 0.0]], [[0.0, 1.0]]])
    assert confidence_score(two)[0] == pytest.approx(0.5, abs=1e-15)


def test_entropy_examples():
    assert entropy_score(samples_from([[[0.0, 1.0, 0.0]]]))[0] == 0.0
    uniform = samples_from([[[1 / 3, 1 / 3, 1 / 3]]])
    assert entropy_score(uniform)[0] == pytest.approx(LN3, abs=1e-12)
    skew = samples_from([[[0.5, 0.25, 0.25]]])
    assert entropy_score(skew)[0] == pytest.approx(1.5 * np.log(2.0), abs=1e-12)


def test_mutual_information_examples():
    same = samples_from([[[0.2, 0.8]], [[0.2, 0.8]]])
    assert mutual_information_score(same)[0] == pytest.approx(0.0, abs=1e-15)
    split = samples_from([[[1.0, 0.0]], [[0.0, 1.0]]])
    assert mutual_information_score(split)[0] == pytest.approx(
        np.log(2.0), abs=1e-12
    )


def test_mutual_information_zero_for_single_pass():
    s = random_samples(9, t=1)
    np.testing.assert_allclose(mutual_information_score(s), 0.0, atol=1e-15)


def test_score_ordering_invariants():
    # 0 <= MI <= entropy <= ln k, elementwise, for arbitrary samples
    for seed in range(15):
        s = random_samples(seed)
        mi = mutual_information_score(s)
        ent = entropy_score(s)
        assert np.all(mi >= -1e-12)
        assert np.all(mi <= ent + 1e-12)
        assert np.all(ent <= np.log(s.probs.shape[2]) + 1e-12)
        conf = confidence_score(s)
        assert np.all(conf >= 1.0 / s.probs.shape[2] - 1e-12)
        assert np.all(conf <= 1.0 + 1e-15)


@st.composite
def _probability_stacks(draw):
    # (N, k) or (T, N, k) rows with exact zeros, some of them one-hot
    shape = draw(st.sampled_from([(), (1,), (4,)])) + (
        draw(st.integers(1, 12)), draw(st.integers(1, 6)))
    elements = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    rows = draw(hnp.arrays(np.float64, shape, elements=elements)).reshape(-1, shape[-1])
    one_hot = draw(hnp.arrays(np.bool_, len(rows)))
    rows[one_hot] = 0.0
    rows[one_hot, draw(st.integers(0, shape[-1] - 1))] = 1.0
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    return (rows / rows.sum(axis=1, keepdims=True)).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(_probability_stacks())
def test_entropy_rows_equal_the_three_temporary_expression(p):
    expected = -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=-1)
    actual = _entropy_rows(p)
    assert actual.shape == expected.shape == p.shape[:-1]
    assert actual.tobytes() == expected.tobytes()


def test_confidence_entropy_antimonotone_on_mixtures():
    # p = (q, (1-q)/2, (1-q)/2): confidence rises with q, entropy falls
    qs = np.linspace(1 / 3, 1.0, 30)
    rows = np.stack([qs, (1 - qs) / 2, (1 - qs) / 2], axis=1)
    s = PredictiveSamples(rows[None, :, :])
    conf = confidence_score(s)
    ent = entropy_score(s)
    assert np.all(np.diff(conf) >= -1e-12)
    assert np.all(np.diff(ent) <= 1e-12)


# ---------------------------------------------------------------------------
# Mahalanobis
# ---------------------------------------------------------------------------


def test_fit_means_on_point_masses():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [4.0, 2.0], [4.0, 2.0]])
    y = np.array([0, 0, 1, 1])
    det = fit_mahalanobis(pts, y, shrinkage=1e-3)
    np.testing.assert_allclose(det.class_means, [[0.0, 0.0], [4.0, 2.0]], atol=1e-12)


def test_fit_recovers_identity_covariance():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(10_000, 3))
    y = rng.integers(0, 2, size=10_000)
    x += y[:, None] * 5.0  # separate the class means, keep unit covariance
    det = fit_mahalanobis(x, y)
    cov = np.linalg.inv(det.precision)
    assert np.abs(cov - np.eye(3)).max() < 0.05


def test_fit_singular_requires_shrinkage():
    # rank-deficient features: the second column duplicates the first
    rng = np.random.default_rng(11)
    base = rng.normal(size=(50, 1))
    x = np.concatenate([base, base], axis=1)
    y = np.array([0, 1] * 25)
    with pytest.raises(ValueError, match="shrinkage"):
        fit_mahalanobis(x, y, shrinkage=0.0)
    det = fit_mahalanobis(x, y, shrinkage=1e-3)
    assert np.all(np.isfinite(det.precision))
    np.testing.assert_allclose(det.precision, det.precision.T, atol=1e-12)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_mahalanobis(np.zeros((3, 2)), np.array([0, 1, 1]))  # class 0 has 1 sample
    with pytest.raises(ValueError):
        fit_mahalanobis(np.zeros((4, 2)), np.array([0, 0, 1, 1]), shrinkage=-1.0)


def test_score_zero_at_class_mean():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(200, 4))
    y = rng.integers(0, 3, size=200)
    det = fit_mahalanobis(x, y)
    scores = mahalanobis_score(det, det.class_means)
    np.testing.assert_allclose(scores, 0.0, atol=1e-9)


def test_score_identity_analytic():
    det_means = np.array([[0.0, 0.0]])
    from oodkit.scores import MahalanobisDetector

    det = MahalanobisDetector(det_means, np.eye(2))
    assert mahalanobis_score(det, np.array([[3.0, 4.0]]))[0] == pytest.approx(
        -25.0, abs=1e-12
    )


def test_score_matches_bruteforce():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(300, 3))
    y = rng.integers(0, 2, size=300)
    det = fit_mahalanobis(x, y)
    pts = rng.normal(size=(100, 3))
    scores = mahalanobis_score(det, pts)
    for i, p in enumerate(pts):
        per_class = [
            -float((p - mu) @ det.precision @ (p - mu)) for mu in det.class_means
        ]
        assert scores[i] == pytest.approx(max(per_class), abs=1e-9)


def test_score_invariant_under_class_permutation():
    from oodkit.scores import MahalanobisDetector

    rng = np.random.default_rng(14)
    means = rng.normal(size=(4, 3))
    a = rng.normal(size=(3, 3))
    precision = a @ a.T + np.eye(3)
    pts = rng.normal(size=(50, 3))
    det = MahalanobisDetector(means, precision)
    det_perm = MahalanobisDetector(means[::-1].copy(), precision)
    np.testing.assert_allclose(
        mahalanobis_score(det, pts), mahalanobis_score(det_perm, pts), atol=1e-12
    )


def test_score_dim_mismatch():
    from oodkit.scores import MahalanobisDetector

    det = MahalanobisDetector(np.zeros((1, 2)), np.eye(2))
    with pytest.raises(ValueError):
        mahalanobis_score(det, np.zeros((3, 5)))


def test_penultimate_features_match_manual_forward():
    model = init_mlp([2, 6, 5, 3], seed=15)
    x = np.random.default_rng(16).normal(size=(8, 2))
    feats = penultimate_features(model, x)
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.maximum(h @ w.T + b, 0.0)
    np.testing.assert_array_equal(feats, h)
    assert feats.shape == (8, 5)


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------


def test_write_score_dump_layout(tmp_path):
    path = tmp_path / "scores.csv"
    write_score_dump(path, [0.9, 0.8], [0.1, 0.2, 0.3])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["example_id", "score", "is_ood"]
    assert [r[2] for r in rows[1:]] == ["0", "0", "1", "1", "1"]
    assert [int(r[0]) for r in rows[1:]] == [0, 1, 2, 3, 4]
    assert float(rows[1][1]) == 0.9
