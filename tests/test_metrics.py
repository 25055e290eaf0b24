import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodkit.datasynth import CORRUPTION_KINDS, SEVERITIES
from oodkit.metrics import (
    GRID_QUANTITIES,
    EvalReport,
    accuracy,
    auc_roc,
    classify,
    export_decision_grid,
    export_histograms,
    grid_bounds,
    mce,
)
from oodkit.nn import MlpModel, forward, init_mlp, softmax


def auc_bruteforce(scores_id, scores_ood, orientation):
    # O(n*m) pair counting with half credit for ties
    total = 0.0
    for a in scores_id:
        for b in scores_ood:
            if orientation == "higher_id":
                total += 1.0 if a > b else (0.5 if a == b else 0.0)
            else:
                total += 1.0 if b > a else (0.5 if a == b else 0.0)
    return total / (len(scores_id) * len(scores_ood))


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------


def test_auc_hand_example():
    got = auc_roc([0.9, 0.4], [0.5, 0.1], orientation="higher_id")
    assert got == pytest.approx(0.75, abs=1e-15)


def test_auc_perfect_separation():
    assert auc_roc([3.0, 4.0], [1.0, 2.0], orientation="higher_id") == 1.0
    assert auc_roc([3.0, 4.0], [1.0, 2.0], orientation="higher_ood") == 0.0


def test_auc_all_ties():
    assert auc_roc([1.0, 1.0, 1.0], [1.0, 1.0], orientation="higher_id") == 0.5


def test_auc_orientation_flip():
    rng = np.random.default_rng(0)
    a = rng.normal(size=40)
    b = rng.normal(size=30) + 0.3
    hi = auc_roc(a, b, orientation="higher_id")
    lo = auc_roc(a, b, orientation="higher_ood")
    assert hi + lo == pytest.approx(1.0, abs=1e-12)


def test_auc_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    a = rng.normal(size=25)
    b = rng.normal(size=35) + 0.5
    base = auc_roc(a, b, orientation="higher_ood")
    warped = auc_roc(np.exp(a), np.exp(b), orientation="higher_ood")
    assert warped == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("orientation", ["higher_id", "higher_ood"])
def test_auc_matches_bruteforce(orientation):
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 50))
        m = int(rng.integers(2, 50))
        a = np.round(rng.normal(size=n), 1)  # rounding injects ties
        b = np.round(rng.normal(size=m) + 0.4, 1)
        got = auc_roc(a, b, orientation=orientation)
        want = auc_bruteforce(a, b, orientation)
        assert got == pytest.approx(want, abs=1e-12)


# few distinct values, so ties (and -0.0 against 0.0) come up often
_tie_prone = st.lists(
    st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])
    | st.floats(-1e6, 1e6, allow_nan=False),
    min_size=1, max_size=40,
)
# quarter steps in [-1000, 1000]: far enough apart that arctan keeps
# every distinct pair distinct in float64
_quarter_steps = st.lists(
    st.integers(-4000, 4000).map(lambda i: i / 4) | st.just(-0.0),
    min_size=1, max_size=40,
)
_orientations = st.sampled_from(["higher_id", "higher_ood"])


@settings(max_examples=200, deadline=None)
@given(_tie_prone, _tie_prone, _orientations)
def test_auc_equals_pairwise_count_exactly(a, b, orientation):
    assert auc_roc(a, b, orientation=orientation) == auc_bruteforce(a, b, orientation)


@settings(max_examples=200, deadline=None)
@given(_quarter_steps, _quarter_steps, _orientations)
def test_auc_invariant_under_strictly_monotone_transform(a, b, orientation):
    base = auc_roc(a, b, orientation=orientation)
    assert auc_roc(np.arctan(a), np.arctan(b), orientation=orientation) == base
    # a decreasing transform flips which way the score runs
    flipped = "higher_ood" if orientation == "higher_id" else "higher_id"
    assert auc_roc(np.negative(a), np.negative(b), orientation=flipped) == base


def test_auc_validation():
    with pytest.raises(ValueError):
        auc_roc([], [1.0], orientation="higher_id")
    with pytest.raises(ValueError):
        auc_roc([1.0], [np.nan], orientation="higher_id")
    with pytest.raises(ValueError):
        auc_roc([1.0], [2.0], orientation="upward")


# ---------------------------------------------------------------------------
# accuracy / mce
# ---------------------------------------------------------------------------


def test_accuracy_examples():
    assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 2])) == 100.0
    assert accuracy(np.array([0, 1]), np.array([1, 0])) == 0.0
    assert accuracy(np.array([0, 1, 2, 0]), np.array([0, 1, 2, 1])) == 75.0


def test_accuracy_validation():
    with pytest.raises(ValueError):
        accuracy(np.array([0, 1]), np.array([0]))
    with pytest.raises(ValueError):
        accuracy(np.array([]), np.array([]))


def full_error_table(value: float) -> dict:
    return {k: {s: value for s in SEVERITIES} for k in CORRUPTION_KINDS}


def test_mce_constant_table():
    # constant error: each kind contributes its severity mean to the sum
    assert mce(full_error_table(30.0)) == pytest.approx(
        len(CORRUPTION_KINDS) * 30.0, abs=1e-12
    )
    assert mce(full_error_table(60.0)) == pytest.approx(
        len(CORRUPTION_KINDS) * 60.0, abs=1e-12
    )


def test_mce_linearity():
    rng = np.random.default_rng(3)
    table = {
        k: {s: float(rng.uniform(0, 50)) for s in SEVERITIES} for k in CORRUPTION_KINDS
    }
    doubled = {k: {s: 2.0 * v for s, v in sub.items()} for k, sub in table.items()}
    assert mce(doubled) == pytest.approx(2.0 * mce(table), abs=1e-9)


def test_mce_requires_complete_table():
    table = full_error_table(10.0)
    del table["rotate"]
    with pytest.raises(ValueError):
        mce(table)
    table = full_error_table(10.0)
    del table["scale"][3]
    with pytest.raises(ValueError):
        mce(table)
    table = full_error_table(10.0)
    table["fog"] = {s: 1.0 for s in SEVERITIES}
    with pytest.raises(ValueError):
        mce(table)


def test_mce_rejects_out_of_range():
    table = full_error_table(10.0)
    table["translate"][2] = 101.0
    with pytest.raises(ValueError):
        mce(table)


# ---------------------------------------------------------------------------
# decision grids
# ---------------------------------------------------------------------------


def test_grid_bounds_pads_by_a_fifth():
    pts = np.array([[0.0, -1.0], [10.0, 3.0]])
    x_lo, x_hi, y_lo, y_hi = grid_bounds(pts)
    assert (x_lo, x_hi) == (-2.0, 12.0)
    assert (y_lo, y_hi) == (-1.8, 3.8)


def test_grid_bounds_validation():
    with pytest.raises(ValueError):
        grid_bounds(np.zeros((4, 3)))


def constant_model() -> MlpModel:
    # zero weights: logits identically zero, uniform predictions everywhere
    return MlpModel(
        layer_dims=(2, 4, 3),
        weights=[np.zeros((4, 2)), np.zeros((3, 4))],
        biases=[np.zeros(4), np.zeros(3)],
        dropout_rate=0.0,
    )


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_grid_constant_model(tmp_path):
    path = tmp_path / "grid_confidence.csv"
    export_decision_grid(constant_model(), (0.0, 1.0, 0.0, 1.0), 5,
                         {"confidence": path})
    rows = read_rows(path)
    assert rows[0] == ["x0", "x1", "value"]
    assert len(rows) == 1 + 25
    vals = {r[2] for r in rows[1:]}
    assert len(vals) == 1
    assert float(vals.pop()) == pytest.approx(1 / 3, abs=1e-12)


def test_grid_row_order_x0_fastest(tmp_path):
    path = tmp_path / "grid_entropy.csv"
    export_decision_grid(constant_model(), (0.0, 2.0, 10.0, 12.0), 3,
                         {"entropy": path})
    rows = read_rows(path)[1:]
    x0 = [float(r[0]) for r in rows]
    x1 = [float(r[1]) for r in rows]
    assert x0 == [0.0, 1.0, 2.0] * 3
    assert x1 == [10.0] * 3 + [11.0] * 3 + [12.0] * 3


def test_grid_values_match_direct_prediction(tmp_path):
    model = init_mlp([2, 8, 3], seed=4)
    path = tmp_path / "grid_predicted_class.csv"
    # resolution 3 over (m-1, m+1) puts the middle grid point exactly at m
    export_decision_grid(model, (-1.0, 1.0, -1.0, 1.0), 3,
                         {"predicted_class": path})
    rows = read_rows(path)[1:]
    center = rows[4]
    assert (float(center[0]), float(center[1])) == (0.0, 0.0)
    direct = classify(model, np.array([[0.0, 0.0]]))[0]
    assert int(center[2]) == int(direct)
    assert all("." not in r[2] for r in rows)  # class column is integral


def test_grid_writes_every_quantity_as_csv_writer_would(tmp_path):
    model = init_mlp([2, 8, 3], seed=6)
    bounds = (-1.5, 2.0, -0.25, 3.0)
    paths = {q: tmp_path / f"grid_{q}.csv" for q in GRID_QUANTITIES}
    export_decision_grid(model, bounds, 7, paths)
    xs = np.linspace(bounds[0], bounds[1], 7)
    ys = np.linspace(bounds[2], bounds[3], 7)
    pts = np.array([[x, y] for y in ys for x in xs])
    probs = softmax(forward(model, pts, mode="eval")[0])
    values = {
        "predicted_class": [str(int(c)) for c in probs.argmax(axis=1)],
        "confidence": [repr(float(v)) for v in probs.max(axis=1)],
        "entropy": [repr(float(v)) for v in -(probs * np.log(probs)).sum(axis=1)],
    }
    for quantity, path in paths.items():
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["x0", "x1", "value"])
        for (px, py), v in zip(pts, values[quantity]):
            writer.writerow([repr(float(px)), repr(float(py)), v])
        assert path.read_bytes() == buf.getvalue().encode(), quantity


def test_grid_validation(tmp_path):
    model = init_mlp([3, 4, 2], seed=5)
    with pytest.raises(ValueError):
        export_decision_grid(model, (0.0, 1.0, 0.0, 1.0), 4,
                             {"confidence": tmp_path / "g.csv"})
    with pytest.raises(ValueError):
        export_decision_grid(constant_model(), (0.0, 1.0, 0.0, 1.0), 4,
                             {"volume": tmp_path / "g.csv"})
    with pytest.raises(ValueError):
        export_decision_grid(constant_model(), (0.0, 1.0, 0.0, 1.0), 4, {})
    with pytest.raises(ValueError):
        export_decision_grid(constant_model(), (0.0, 1.0, 0.0, 1.0), 1,
                             {"entropy": tmp_path / "g.csv"})
    with pytest.raises(ValueError):
        export_decision_grid(constant_model(), (1.0, 1.0, 0.0, 1.0), 4,
                             {"entropy": tmp_path / "g.csv"})


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


def test_histogram_counts_and_shared_edges(tmp_path):
    rng = np.random.default_rng(6)
    pops = {"entropy": (rng.random(200), rng.random(300) + 0.5)}
    path = tmp_path / "histograms.csv"
    export_histograms(pops, 10, path)
    rows = read_rows(path)
    assert rows[0] == ["score_kind", "population", "bin_lo", "bin_hi", "count"]
    body = rows[1:]
    assert len(body) == 20
    id_rows = [r for r in body if r[1] == "id"]
    ood_rows = [r for r in body if r[1] == "ood"]
    assert sum(int(r[4]) for r in id_rows) == 200
    assert sum(int(r[4]) for r in ood_rows) == 300
    # both populations binned over the identical shared edges
    assert [(r[2], r[3]) for r in id_rows] == [(r[2], r[3]) for r in ood_rows]
    assert float(id_rows[0][2]) == pytest.approx(
        min(pops["entropy"][0].min(), pops["entropy"][1].min())
    )
    assert float(id_rows[-1][3]) == pytest.approx(
        max(pops["entropy"][0].max(), pops["entropy"][1].max())
    )


def test_histogram_degenerate_range(tmp_path):
    pops = {"confidence": (np.full(5, 0.5), np.full(7, 0.5))}
    path = tmp_path / "h.csv"
    export_histograms(pops, 4, path)
    rows = read_rows(path)[1:]
    assert sum(int(r[4]) for r in rows if r[1] == "id") == 5
    assert sum(int(r[4]) for r in rows if r[1] == "ood") == 7


def test_histogram_kinds_sorted(tmp_path):
    rng = np.random.default_rng(8)
    pops = {
        "mutual_information": (rng.random(5), rng.random(5)),
        "confidence": (rng.random(5), rng.random(5)),
        "entropy": (rng.random(5), rng.random(5)),
    }
    path = tmp_path / "h.csv"
    export_histograms(pops, 2, path)
    kinds = [r[0] for r in read_rows(path)[1:]]
    assert kinds == sorted(kinds)


def test_histogram_reruns_are_byte_identical(tmp_path):
    rng = np.random.default_rng(7)
    pops = {
        "confidence": (rng.random(50), rng.random(60)),
        "entropy": (rng.random(50), rng.random(60)),
    }
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    export_histograms(pops, 8, p1)
    export_histograms(pops, 8, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_histogram_validation(tmp_path):
    with pytest.raises(ValueError):
        export_histograms({"entropy": (np.array([]), np.ones(3))}, 4,
                          tmp_path / "h.csv")
    with pytest.raises(ValueError):
        export_histograms({"entropy": (np.ones(3), np.ones(3))}, 0,
                          tmp_path / "h.csv")
    with pytest.raises(ValueError):
        export_histograms({}, 4, tmp_path / "h.csv")


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------


def test_eval_report_defaults_and_validation():
    ok = EvalReport(
        id_accuracy=97.5,
        auc={"confidence": 99.0, "entropy": 98.5, "mutual_information": 97.0},
    )
    assert ok.mce is None and ok.warnings == []
    with pytest.raises(ValueError):
        EvalReport(id_accuracy=101.0, auc={"confidence": 50.0})
    with pytest.raises(ValueError):
        EvalReport(id_accuracy=90.0, auc={"sharpness": 50.0})
    with pytest.raises(ValueError):
        EvalReport(id_accuracy=90.0, auc={"entropy": -1.0})
    with pytest.raises(ValueError):
        EvalReport(id_accuracy=90.0, auc={"entropy": 50.0}, mce=-2.0)
