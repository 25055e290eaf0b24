"""Quick tests of the benchmark's own checks and span accounting."""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import spans

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def test_brute_force_auc_counts_ties_as_half():
    # OOD 2 beats ID 1, ties ID 2, loses to ID 3: (1 + 0.5) / 3
    assert checks.brute_force_auc([1.0, 2.0, 3.0], [2.0], "entropy") == pytest.approx(0.5)
    assert checks.brute_force_auc([3.0, 4.0], [1.0, 2.0], "confidence") == 1.0


def test_expect_auc_rejects_a_wrong_auc():
    s_id, s_ood = np.array([0.1, 0.2, 0.3]), np.array([0.25, 0.4])
    checks.expect_auc(100.0 * 5 / 6, s_id, s_ood, "entropy", 1e-6)
    with pytest.raises(checks.CheckFailed):
        checks.expect_auc(100.0 * 5 / 6 + 1e-4, s_id, s_ood, "entropy", 1e-6)


def _write_grids(out_dir, weights, biases, resolution, bounds):
    xs = np.linspace(bounds[0], bounds[1], resolution)
    ys = np.linspace(bounds[2], bounds[3], resolution)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    logits, _ = checks.mlp_eval(weights, biases, pts)
    probs = checks.softmax_rows(logits)
    values = {
        "predicted_class": [str(v) for v in logits.argmax(axis=1)],
        "confidence": [repr(float(v)) for v in probs.max(axis=1)],
        "entropy": [repr(float(v)) for v in checks.entropy_rows(probs)],
    }
    for quantity, column in values.items():
        lines = ["x0,x1,value"] + [f"{p[0]!r},{p[1]!r},{v}" for p, v in zip(pts.tolist(), column)]
        (out_dir / f"grid_{quantity}.csv").write_text("\n".join(lines) + "\n")


def test_decision_grid_check_rejects_a_flipped_cell(tmp_path):
    rng = np.random.default_rng(0)
    weights = [rng.normal(size=(8, 2)), rng.normal(size=(3, 8))]
    biases = [rng.normal(size=8), rng.normal(size=3)]
    bounds = (-2.0, 2.0, -1.0, 3.0)
    _write_grids(tmp_path, weights, biases, 6, bounds)
    checks.check_decision_grids(tmp_path, weights, biases, 6, bounds)

    path = tmp_path / "grid_predicted_class.csv"
    lines = path.read_text().splitlines()
    x0, x1, cls = lines[7].split(",")
    lines[7] = f"{x0},{x1},{(int(cls) + 1) % 3}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="predicted_class"):
        checks.check_decision_grids(tmp_path, weights, biases, 6, bounds)


def test_manifest_check_rejects_a_bad_hash(tmp_path):
    (tmp_path / "a.csv").write_text("x0,label\n1.0,0\n")
    data = (tmp_path / "a.csv").read_bytes()
    entry = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    manifest = {"outputs": {"a.csv": entry}, "created_utc": "now"}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    checks.check_manifest(tmp_path)

    (tmp_path / "a.csv").write_text("x0,label\n2.0,0\n")
    with pytest.raises(checks.CheckFailed, match="hash"):
        checks.check_manifest(tmp_path)


def test_histogram_check_rejects_counts_that_miss_the_population(tmp_path):
    rows = ["score_kind,population,bin_lo,bin_hi,count",
            "entropy,id,0.0,0.5,2", "entropy,id,0.5,1.0,1",
            "entropy,ood,0.0,0.5,0", "entropy,ood,0.5,1.0,4"]
    (tmp_path / "histograms.csv").write_text("\n".join(rows) + "\n")
    checks.check_histograms(tmp_path, 3, 4)
    with pytest.raises(checks.CheckFailed, match="entropy/ood"):
        checks.check_histograms(tmp_path, 3, 5)


def test_output_digests_ignore_only_created_utc(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"outputs": {}, "created_utc": "t1"}))
    first = checks.output_digests(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps({"outputs": {}, "created_utc": "t2"}))
    assert checks.output_digests(tmp_path) == first
    (tmp_path / "manifest.json").write_text(json.dumps({"outputs": {"x": 1}, "created_utc": "t2"}))
    assert checks.output_digests(tmp_path) != first


def test_self_time_is_span_time_minus_child_spans():
    table = spans.layer_table([
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, {"rows": 5}],
        ["d", 2.0, 3.0, 1, None],
        ["c", 5.0, 6.0, 0, None],
        ["b", 7.0, 9.0, 0, {"rows": 2}],
    ])
    assert table["a"]["self_s"] == 10.0 - 3.0 - 1.0 - 2.0
    assert table["b"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0, "rows": 7}
    assert table["d"]["self_s"] == 1.0


def test_recorder_links_parents_and_folds_same_name_calls():
    recorder = spans.Recorder()
    inner = recorder.wrap("loss", lambda x: x + 1)
    outer = recorder.wrap("loss", lambda x: inner(x) * 2)
    step = recorder.wrap("step", lambda x: outer(x), lambda a, k, r: {"rows": r})
    assert step(1) == 4
    names = [(name, parent, counts) for name, _, _, parent, counts in recorder.take()]
    assert names == [("step", -1, {"rows": 4}), ("loss", 0, None)]
    assert recorder.spans == []


def test_install_wraps_forward_wherever_it_is_bound():
    from oodkit import metrics, nn, scores, trainer

    original = nn.forward
    recorder = spans.Recorder()
    patches = spans.install(recorder)
    try:
        assert all(m.forward is not original for m in (nn, scores, metrics, trainer))
        scores.predict_probs(nn.init_mlp([2, 4, 3]), np.zeros((5, 2)))
        table = spans.layer_table(recorder.take())
        assert table["nn.forward_eval"]["rows"] == 5
        assert table["nn.softmax"]["calls"] == 1
    finally:
        spans.uninstall(patches)
    assert all(m.forward is original for m in (nn, scores, metrics, trainer))


def test_every_per_layer_metric_names_a_recorded_field():
    import run

    layers = {name for _, _, name, _ in spans.LAYERS if isinstance(name, str)}
    layers |= set(spans.FORWARD_SPANS.values())
    fields = {"calls", "total_s", "self_s", "rows", "passes", "bytes"}
    derived = {"trainer.validation_s", "cli.import_s", "trace.overhead_s"}
    for metric in run.PER_LAYER:
        layer, _, field = metric.rpartition(".")
        assert metric in derived or (layer in layers and field in fields), metric
