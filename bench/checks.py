"""Reference computations and output checks for the benchmark.

Nothing here calls the oodkit function that produced the quantity it
checks: the forward pass, the AUC, the Mahalanobis fit and the manifest
hashes are recomputed from their documented definitions. Every check raises CheckFailed with a reason on a mismatch.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

# Orientation of each score kind: which population runs higher.
HIGHER_ID = {"confidence", "mahalanobis"}
HIGHER_OOD = {"entropy", "mutual_information"}

# Class means sit on a triangle of radius 4 with sigma 0.5: neighbouring
# means are 4*sqrt(3)/0.5 = 13.9 sigma apart, so the Bayes error is about
# 1e-11 and any trained classifier should get at most a few of the 225
# test rows wrong.
ACCURACY_FLOOR = 98.0

MI_WARNING = "mutual_information is identically zero"


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- reference computations ------------------------------------------------


def mlp_eval(weights, biases, x) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode ReLU MLP: returns (logits, penultimate features)."""
    a = np.asarray(x, dtype=np.float64)
    for w, b in zip(weights[:-1], biases[:-1]):
        a = np.maximum(a @ np.asarray(w).T + np.asarray(b), 0.0)
    return a @ np.asarray(weights[-1]).T + np.asarray(biases[-1]), a


def softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def entropy_rows(p: np.ndarray) -> np.ndarray:
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def brute_force_auc(s_id, s_ood, kind: str) -> float:
    """Share of (ID, OOD) pairs in which the OOD point scores more
    OOD-like, ties counting one half. In [0, 1]."""
    s_id = np.asarray(s_id, dtype=np.float64).ravel()
    s_ood = np.asarray(s_ood, dtype=np.float64).ravel()
    if kind in HIGHER_ID:
        s_id, s_ood = -s_id, -s_ood
    elif kind not in HIGHER_OOD:
        raise ValueError(f"unknown score kind {kind!r}")
    pairs_ood, pairs_id = s_ood[:, None], s_id[None, :]
    wins = np.count_nonzero(pairs_ood > pairs_id) + 0.5 * np.count_nonzero(pairs_ood == pairs_id)
    return wins / (s_id.size * s_ood.size)


def mahalanobis_refit(train_feats, train_labels, feats) -> np.ndarray:
    """max over classes of minus the squared Mahalanobis distance, with
    class means, pooled covariance and shrinkage 1e-6 * trace / d."""
    x = np.asarray(train_feats, dtype=np.float64)
    y = np.asarray(train_labels)
    d = x.shape[1]
    classes = np.unique(y)
    means = np.stack([x[y == c].mean(axis=0) for c in classes])
    centred = x - means[np.searchsorted(classes, y)]
    cov = centred.T @ centred / x.shape[0]
    cov += 1e-6 * np.trace(cov) / d * np.eye(d)
    out = np.full(len(feats), -np.inf)
    for m in means:
        diff = np.asarray(feats) - m
        out = np.maximum(out, -np.einsum("ni,ni->n", diff, np.linalg.solve(cov, diff.T).T))
    return out


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- file readers (plain csv/json, no oodkit) -------------------------------


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_split(path: Path) -> tuple[np.ndarray, np.ndarray | None]:
    header, rows = read_csv(path)
    d = len(header) - 1
    x = np.array([[float(v) for v in r[:d]] for r in rows])
    labels = [r[d] for r in rows]
    y = None if labels[0] == "" else np.array([int(v) for v in labels])
    return x, y


def read_model(path: Path) -> tuple[list[np.ndarray], list[np.ndarray]]:
    doc = json.loads(Path(path).read_text())
    return ([np.array(w) for w in doc["weights"]], [np.array(b) for b in doc["biases"]])


def read_score_dump(path: Path) -> tuple[np.ndarray, np.ndarray]:
    _, rows = read_csv(path)
    scores = np.array([float(r[1]) for r in rows])
    is_ood = np.array([r[2] == "1" for r in rows])
    return scores[~is_ood], scores[is_ood]


# --- checks on in-process training ------------------------------------------


def check_train_report(objective, model, report, bench) -> None:
    """Laws and reference values for one run_experiment result."""
    test_id, test_ood, train = bench["test_id"], bench["test_ood"], bench["train"]
    require(report.id_accuracy >= ACCURACY_FLOOR,
            f"{objective}: ID accuracy {report.id_accuracy} below {ACCURACY_FLOOR}")
    w, b = model.weights, model.biases
    logits_id, pen_id = mlp_eval(w, b, test_id.features)
    logits_ood, pen_ood = mlp_eval(w, b, test_ood.features)
    _, pen_train = mlp_eval(w, b, train.features)
    m_id = mahalanobis_refit(pen_train, train.labels, pen_id)
    m_ood = mahalanobis_refit(pen_train, train.labels, pen_ood)
    expect_auc(report.auc["mahalanobis"], m_id, m_ood, "mahalanobis", 1e-6)
    if objective != "ce":
        return
    acc = 100.0 * np.mean(logits_id.argmax(axis=1) == test_id.labels)
    require(acc == report.id_accuracy,
            f"ce: reference accuracy {acc} != reported {report.id_accuracy}")
    p_id, p_ood = softmax_rows(logits_id), softmax_rows(logits_ood)
    expect_auc(report.auc["confidence"], p_id.max(axis=1), p_ood.max(axis=1),
               "confidence", 1e-6)
    expect_auc(report.auc["entropy"], entropy_rows(p_id), entropy_rows(p_ood),
               "entropy", 1e-6)
    require(report.auc["mutual_information"] == 50.0,
            f"ce: MI AUC {report.auc['mutual_information']} is not exactly 50")
    require(any(MI_WARNING in msg for msg in report.warnings),
            "ce: report lacks the mutual-information warning")


def expect_auc(reported: float, s_id, s_ood, kind: str, tol: float) -> None:
    """reported is a percentage; tol is in percentage points."""
    ref = 100.0 * brute_force_auc(s_id, s_ood, kind)
    require(abs(reported - ref) <= tol,
            f"{kind}: AUC {reported} differs from brute force {ref}")


# --- checks on CLI output directories --------------------------------------


def check_manifest(out_dir: Path) -> None:
    """Every hash and size in manifest.json (and in the manifest embedded
    in results.json) matches the file on disk."""
    docs = [json.loads((out_dir / "manifest.json").read_text())]
    results = out_dir / "results.json"
    if results.exists():
        docs.append(json.loads(results.read_text())["manifest"])
    for doc in docs:
        require(doc["outputs"], f"{out_dir}: manifest lists no outputs")
        for name, entry in doc["outputs"].items():
            path = out_dir / name
            require(path.is_file(), f"manifest names missing file {name}")
            require(entry["sha256"] == sha256_file(path),
                    f"manifest hash of {name} does not match the file")
            require(entry["bytes"] == path.stat().st_size,
                    f"manifest size of {name} does not match the file")


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file, with created_utc dropped from the
    standalone manifest (the only field allowed to differ between runs)."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("created_utc", None)
            data = json.dumps(doc, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def check_histograms(out_dir: Path, n_id: int, n_ood: int) -> None:
    _, rows = read_csv(out_dir / "histograms.csv")
    totals: dict[tuple[str, str], int] = {}
    for kind, pop, _, _, count in rows:
        totals[kind, pop] = totals.get((kind, pop), 0) + int(count)
    require(totals, "histograms.csv has no rows")
    for (kind, pop), total in totals.items():
        want = n_id if pop == "id" else n_ood
        require(total == want,
                f"histogram {kind}/{pop} counts sum to {total}, not {want}")


def check_decision_grids(out_dir: Path, weights, biases, resolution: int, bounds) -> None:
    """Each grid lies on the resolution x resolution lattice over the
    padded data bounds, x0 fastest, and its values equal the reference
    forward pass."""
    gx, gy = np.meshgrid(np.linspace(bounds[0], bounds[1], resolution),
                         np.linspace(bounds[2], bounds[3], resolution))
    lattice = np.column_stack([gx.ravel(), gy.ravel()])
    logits, _ = mlp_eval(weights, biases, lattice)
    probs = softmax_rows(logits)
    expected = {
        "predicted_class": logits.argmax(axis=1),
        "confidence": probs.max(axis=1),
        "entropy": entropy_rows(probs),
    }
    for quantity, values in expected.items():
        _, rows = read_csv(out_dir / f"grid_{quantity}.csv")
        grid = np.array([[float(v) for v in r] for r in rows])
        require(grid.shape == (resolution * resolution, 3), f"grid_{quantity}: shape {grid.shape}")
        require(np.allclose(grid[:, :2], lattice, rtol=0, atol=1e-12),
                f"grid_{quantity}: points are not the padded lattice, x0 fastest")
        bad = np.flatnonzero(~np.isclose(grid[:, 2], values, rtol=1e-9, atol=1e-12))
        require(bad.size == 0,
                f"grid_{quantity}: {bad.size} cells differ from the reference forward "
                f"pass, first at row {bad[:1]}")


def padded_bounds(points: np.ndarray, pad: float = 0.2) -> tuple[float, ...]:
    lo, hi = points.min(axis=0), points.max(axis=0)
    span = hi - lo
    return (lo[0] - pad * span[0], hi[0] + pad * span[0],
            lo[1] - pad * span[1], hi[1] + pad * span[1])


def check_eval_dir(out_dir: Path, data_dir: Path, model_path: Path) -> None:
    """All checks on one `oodkit eval --mahalanobis` output directory. The
    grid resolution is the one the run's manifest records."""
    results = json.loads((out_dir / "results.json").read_text())
    resolution = results["manifest"]["config"]["grid_resolution"]
    test_id, _ = read_split(data_dir / "test_id.csv")
    test_ood, _ = read_split(data_dir / "test_ood.csv")
    kinds = sorted(p.name[len("scores_"):-len(".csv")] for p in out_dir.glob("scores_*.csv"))
    require(kinds == sorted(results["auc"]),
            f"score dumps {kinds} do not match results AUCs {sorted(results['auc'])}")
    dumps = {k: read_score_dump(out_dir / f"scores_{k}.csv") for k in kinds}
    for kind, (s_id, s_ood) in dumps.items():
        require((s_id.size, s_ood.size) == (len(test_id), len(test_ood)),
                f"scores_{kind}.csv has {s_id.size}+{s_ood.size} rows")
        ref = round(100.0 * brute_force_auc(s_id, s_ood, kind), 2)
        require(results["auc"][kind] == ref,
                f"results AUC {kind} = {results['auc'][kind]}, brute force gives {ref}")
    weights, biases = read_model(model_path)
    train_x, train_y = read_split(data_dir / "train.csv")
    pen = [mlp_eval(weights, biases, x)[1] for x in (train_x, test_id, test_ood)]
    ref_id = mahalanobis_refit(pen[0], train_y, pen[1])
    ref_ood = mahalanobis_refit(pen[0], train_y, pen[2])
    got_id, got_ood = dumps["mahalanobis"]
    scale = max(1.0, float(np.abs(np.concatenate([ref_id, ref_ood])).max()))
    require(np.allclose(got_id, ref_id, rtol=1e-9, atol=1e-9 * scale)
            and np.allclose(got_ood, ref_ood, rtol=1e-9, atol=1e-9 * scale),
            "scores_mahalanobis.csv does not match the reference re-fit")
    check_histograms(out_dir, len(test_id), len(test_ood))
    bounds = padded_bounds(np.concatenate([test_id, test_ood]))
    check_decision_grids(out_dir, weights, biases, resolution, bounds)
    check_manifest(out_dir)

