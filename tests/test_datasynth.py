import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oodkit.datasynth import (
    CORRUPTION_KINDS,
    CorruptionSpec,
    DatasetSplit,
    GaussianSpec,
    corrupt,
    make_default_benchmark,
    read_split,
    sample_mixture,
    write_split,
)

TRIANGLE = [
    4.0 * np.array([np.cos(np.deg2rad(a)), np.sin(np.deg2rad(a))])
    for a in (90.0, 210.0, 330.0)
]


# ---------------------------------------------------------------------------
# specs and splits
# ---------------------------------------------------------------------------


def test_gaussian_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec(mean=[0.0, 0.0], sigma=0.0)
    with pytest.raises(ValueError):
        GaussianSpec(mean=[np.nan, 0.0], sigma=1.0)
    with pytest.raises(ValueError):
        GaussianSpec(mean=[0.0], sigma=1.0, label=-1)


def test_dataset_split_role_rules():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError):
        DatasetSplit(x, None, "train")  # ID roles need labels
    with pytest.raises(ValueError):
        DatasetSplit(x, np.array([0, 1, 2]), "test_ood")  # OOD must not
    with pytest.raises(ValueError):
        DatasetSplit(x, np.array([0, 1, 2]), "nonsense")
    with pytest.raises(ValueError):
        DatasetSplit(x, np.array([0.0, 1.0, 2.0]), "train")  # float labels


def test_sample_mixture_deterministic():
    specs = [GaussianSpec([0.0, 0.0], 1.0, label=0), GaussianSpec([3.0, 0.0], 1.0, label=1)]
    a = sample_mixture(specs, 50, seed=9)
    b = sample_mixture(specs, 50, seed=9)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_sample_mixture_degenerate_sigma():
    spec = GaussianSpec([2.0, -1.0], 1e-12)
    split = sample_mixture([spec], 100, seed=0, role="test_ood")
    assert np.abs(split.features - spec.mean).max() < 1e-6


def test_sample_mixture_statistics():
    # 10^4 points: sample mean within 0.02 of the spec mean, std within 5%
    spec = GaussianSpec([1.0, -2.0], 0.5, label=0)
    split = sample_mixture([spec], 10_000, seed=3)
    assert np.abs(split.features.mean(axis=0) - spec.mean).max() < 0.02
    stds = split.features.std(axis=0)
    assert np.all(np.abs(stds - 0.5) < 0.05 * 0.5)


def test_sample_mixture_component_order_and_counts():
    specs = [
        GaussianSpec([0.0, 0.0], 0.1, label=2),
        GaussianSpec([9.0, 9.0], 0.1, label=0),
    ]
    split = sample_mixture(specs, 25, seed=1)
    assert len(split) == 50
    np.testing.assert_array_equal(split.labels[:25], np.full(25, 2))
    np.testing.assert_array_equal(split.labels[25:], np.full(25, 0))


def test_sample_mixture_mixed_labelling_rejected():
    specs = [GaussianSpec([0.0], 1.0, label=0), GaussianSpec([1.0], 1.0)]
    with pytest.raises(ValueError):
        sample_mixture(specs, 5, seed=0)


# ---------------------------------------------------------------------------
# default benchmark
# ---------------------------------------------------------------------------


def test_benchmark_roles_and_counts():
    bench = make_default_benchmark(seed=0)
    assert set(bench) == {"train", "val", "test_id", "train_ood", "test_ood"}
    assert len(bench["train"]) == 1050
    assert len(bench["val"]) == 225
    assert len(bench["test_id"]) == 225
    assert len(bench["train_ood"]) == 1000
    assert len(bench["test_ood"]) == 1000
    assert bench["train_ood"].labels is None
    assert bench["test_ood"].labels is None


def test_benchmark_classes_balanced():
    bench = make_default_benchmark(seed=2)
    for role in ("train", "val", "test_id"):
        counts = np.bincount(bench[role].labels, minlength=3)
        assert counts.min() == counts.max()


def test_benchmark_splits_partition_the_pool():
    bench = make_default_benchmark(seed=4)
    pooled = np.concatenate(
        [bench[r].features for r in ("train", "val", "test_id")]
    )
    # continuous draws collide with probability zero, so row uniqueness
    # certifies disjointness and the total certifies coverage
    assert pooled.shape == (1500, 2)
    assert np.unique(pooled, axis=0).shape[0] == 1500
    ood = np.concatenate([bench["train_ood"].features, bench["test_ood"].features])
    assert np.unique(ood, axis=0).shape[0] == 2000


def test_benchmark_class_clusters_sit_on_the_triangle():
    bench = make_default_benchmark(seed=0)
    feats = np.concatenate([bench[r].features for r in ("train", "val", "test_id")])
    labels = np.concatenate([bench[r].labels for r in ("train", "val", "test_id")])
    for c, mean in enumerate(TRIANGLE):
        centroid = feats[labels == c].mean(axis=0)
        assert np.linalg.norm(centroid - mean) < 0.15  # se ~ 0.5/sqrt(500)


def test_benchmark_geometry_margins():
    # class means pairwise 4*sqrt(3) apart; every outlier mean keeps a
    # distance of more than 2 from every class mean
    ood_means = [
        1.5 * np.array([np.cos(np.deg2rad(a)), np.sin(np.deg2rad(a))])
        for a in (45.0, 135.0, 225.0, 315.0)
    ]
    for i, a in enumerate(TRIANGLE):
        for b in TRIANGLE[i + 1:]:
            assert np.linalg.norm(a - b) == pytest.approx(4 * np.sqrt(3.0), abs=1e-9)
    min_gap = min(
        np.linalg.norm(a - b) for a in TRIANGLE for b in ood_means
    )
    assert min_gap > 2.0


def test_benchmark_deterministic_and_seed_sensitive():
    a = make_default_benchmark(seed=5)
    b = make_default_benchmark(seed=5)
    c = make_default_benchmark(seed=6)
    np.testing.assert_array_equal(a["train"].features, b["train"].features)
    assert not np.array_equal(a["train"].features, c["train"].features)


def test_benchmark_validation():
    with pytest.raises(ValueError):
        make_default_benchmark(ood_radius=0.0)
    with pytest.raises(ValueError):
        make_default_benchmark(split_fractions=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        make_default_benchmark(n_per_class=2)  # no test points left


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------


def id_split(n: int = 200, seed: int = 0) -> DatasetSplit:
    rng = np.random.default_rng(seed)
    return DatasetSplit(
        rng.normal(size=(n, 2)), rng.integers(0, 3, size=n), "test_id"
    )


def test_corruption_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec("salt_pepper", 1)
    with pytest.raises(ValueError):
        CorruptionSpec("rotate", 0)


def test_corrupt_preserves_shape_labels_order():
    split = id_split()
    for kind in CORRUPTION_KINDS:
        out = corrupt(split, CorruptionSpec(kind, 3), seed=1)
        assert out.features.shape == split.features.shape
        np.testing.assert_array_equal(out.labels, split.labels)
        assert out.role == split.role


def test_corrupt_rotate_analytic():
    split = DatasetSplit(np.array([[1.0, 0.0]]), np.array([0]), "test_id")
    out = corrupt(split, CorruptionSpec("rotate", 5), seed=0)
    t = np.deg2rad(25.0)
    np.testing.assert_allclose(
        out.features, [[np.cos(t), np.sin(t)]], atol=1e-12
    )


def test_corrupt_scale_analytic():
    split = id_split(50)
    out = corrupt(split, CorruptionSpec("scale", 4), seed=0)
    np.testing.assert_allclose(out.features, split.features * 1.4, atol=1e-12)


def test_corrupt_translate_is_a_rigid_shift():
    split = id_split(80)
    out = corrupt(split, CorruptionSpec("translate", 2), seed=5)
    deltas = out.features - split.features
    np.testing.assert_allclose(
        deltas, np.broadcast_to(deltas[0], deltas.shape), atol=1e-12
    )
    assert np.linalg.norm(deltas[0]) == pytest.approx(0.4, abs=1e-12)


@pytest.mark.parametrize("sev", [1, 3])
def test_corrupt_translate_on_1d_shifts_every_row_alike(sev):
    rng = np.random.default_rng(8)
    split = DatasetSplit(rng.normal(size=(30, 1)), np.arange(30) % 3, "test_id")
    deltas = corrupt(split, CorruptionSpec("translate", sev), seed=4).features \
        - split.features
    np.testing.assert_allclose(np.abs(deltas), 0.2 * sev, atol=1e-12)
    assert np.all(np.sign(deltas) == np.sign(deltas[0, 0]))


@pytest.mark.parametrize("dim", [2, 3])
def test_corrupt_translate_replays_its_draws(dim):
    rng = np.random.default_rng(9)
    split = DatasetSplit(rng.normal(size=(25, dim)), np.arange(25) % 3, "test_id")
    out = corrupt(split, CorruptionSpec("translate", 2), seed=11)
    replay = np.random.default_rng(11)
    theta = replay.uniform(0.0, 2.0 * np.pi)
    if dim == 2:
        direction = np.array([np.cos(theta), np.sin(theta)])
    else:
        vec = replay.normal(size=dim)
        direction = vec / np.linalg.norm(vec)
    np.testing.assert_array_equal(out.features, split.features + 0.2 * 2 * direction)


def test_corrupt_gaussian_noise_statistics():
    split = id_split(10_000, seed=2)
    out = corrupt(split, CorruptionSpec("gaussian_noise", 3), seed=7)
    noise = out.features - split.features
    assert abs(noise.std() - 0.3) < 0.05 * 0.3


def test_corrupt_uniform_noise_bounded():
    split = id_split(500)
    out = corrupt(split, CorruptionSpec("uniform_noise", 2), seed=3)
    noise = out.features - split.features
    assert np.abs(noise).max() <= 0.30 + 1e-12


def test_corrupt_displacement_grows_with_severity():
    split = id_split(400, seed=4)
    for kind in CORRUPTION_KINDS:
        def displacement(sev: int) -> float:
            out = corrupt(split, CorruptionSpec(kind, sev), seed=11)
            return float(
                np.linalg.norm(out.features - split.features, axis=1).mean()
            )
        assert displacement(5) > displacement(1)


def test_corrupt_rotate_requires_2d():
    split = DatasetSplit(np.zeros((3, 4)), np.array([0, 1, 2]), "test_id")
    with pytest.raises(ValueError):
        corrupt(split, CorruptionSpec("rotate", 1), seed=0)


def test_corrupt_deterministic():
    split = id_split(100)
    a = corrupt(split, CorruptionSpec("gaussian_noise", 2), seed=9)
    b = corrupt(split, CorruptionSpec("gaussian_noise", 2), seed=9)
    np.testing.assert_array_equal(a.features, b.features)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


def test_write_read_round_trip_labelled(tmp_path):
    split = id_split(120, seed=6)
    path = tmp_path / "split.csv"
    write_split(split, path)
    loaded = read_split(path, role="test_id")
    np.testing.assert_array_equal(loaded.features, split.features)
    np.testing.assert_array_equal(loaded.labels, split.labels)
    assert loaded.role == "test_id"


def test_write_read_round_trip_ood(tmp_path):
    rng = np.random.default_rng(7)
    split = DatasetSplit(rng.normal(size=(40, 2)), None, "test_ood")
    path = tmp_path / "ood.csv"
    write_split(split, path)
    loaded = read_split(path)
    np.testing.assert_array_equal(loaded.features, split.features)
    assert loaded.labels is None
    assert loaded.role == "test_ood"


# every finite double, -0.0 and subnormals included
_doubles = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _splits(draw):
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 4)))
    features = draw(hnp.arrays(np.float64, shape, elements=_doubles))
    if draw(st.booleans()):
        labels = draw(hnp.arrays(np.int64, shape[0]))
        return DatasetSplit(features, labels, "test_id")
    return DatasetSplit(features, None, "test_ood")


@settings(max_examples=60, deadline=None)
@given(_splits())
def test_write_read_round_trip_is_bit_exact(split):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "split.csv"
        write_split(split, path)
        loaded = read_split(path, role=split.role)
    assert loaded.features.shape == split.features.shape
    # tobytes tells -0.0 from 0.0, which assert_array_equal does not
    assert loaded.features.tobytes() == split.features.tobytes()
    if split.labels is None:
        assert loaded.labels is None
    else:
        assert loaded.labels.tobytes() == split.labels.astype(np.int64).tobytes()


def test_read_split_default_role_labelled(tmp_path):
    path = tmp_path / "any.csv"
    write_split(id_split(5), path)
    assert read_split(path).role == "train"


def test_read_split_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        read_split(path)
    path.write_text("a,b,label\n1.0,2.0,0\n")
    with pytest.raises(ValueError):
        read_split(path)
    path.write_text("x0,x1,label\n1.0,oops,0\n")
    with pytest.raises(ValueError):
        read_split(path)
    path.write_text("x0,x1,label\n1.0,2.0,0\n3.0,4.0,\n")
    with pytest.raises(ValueError):
        read_split(path)  # mixed labelled and unlabelled
    path.write_text("x0,x1,label\n1.0,2.0\n")
    with pytest.raises(ValueError):
        read_split(path)  # short row


def test_round_trip_large_split_is_fast(tmp_path):
    rng = np.random.default_rng(8)
    split = DatasetSplit(
        rng.normal(size=(100_000, 2)), rng.integers(0, 3, size=100_000), "train"
    )
    path = tmp_path / "big.csv"
    start = time.perf_counter()
    write_split(split, path)
    loaded = read_split(path, role="train")
    elapsed = time.perf_counter() - start
    np.testing.assert_array_equal(loaded.features, split.features)
    assert elapsed < 2.0
