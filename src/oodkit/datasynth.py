"""Synthetic Gaussian benchmark: sampling, corruption, CSV round trips.

The default benchmark puts three labelled clusters on an equilateral
triangle and four unlabelled outlier clusters on a smaller rotated
square inside it, where the class regions meet, then splits everything
deterministically per seed.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass

import numpy as np

from .seeding import STREAM_DATA, derive_rng, derive_seed

ID_ROLES = ("train", "val", "test_id")
OOD_ROLES = ("train_ood", "test_ood")
ROLES = ID_ROLES + OOD_ROLES

CORRUPTION_KINDS = ("gaussian_noise", "uniform_noise", "translate", "scale", "rotate")
SEVERITIES = (1, 2, 3, 4, 5)


def is_int(value) -> bool:
    # bool is an int subclass but never a count; numpy integers are fine
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class GaussianSpec:
    """Isotropic Gaussian component; label None marks an outlier component."""

    mean: np.ndarray
    sigma: float
    label: int | None = None

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).ravel()
        if self.mean.size == 0 or not np.all(np.isfinite(self.mean)):
            raise ValueError("mean must be a finite non-empty vector")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.label is not None and self.label < 0:
            raise ValueError(f"label must be None or >= 0, got {self.label}")


@dataclass
class DatasetSplit:
    """Feature block with labels on in-distribution roles only."""

    features: np.ndarray
    labels: np.ndarray | None
    role: str

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ValueError(
                f"features must be a non-empty 2-D array, got {self.features.shape}"
            )
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite feature entries")
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")
        if self.role in OOD_ROLES:
            if self.labels is not None:
                raise ValueError(f"role {self.role!r} must not carry labels")
        else:
            if self.labels is None:
                raise ValueError(f"role {self.role!r} requires labels")
            self.labels = np.asarray(self.labels)
            if not np.issubdtype(self.labels.dtype, np.integer):
                raise ValueError("labels must be integers")
            if self.labels.shape != (self.features.shape[0],):
                raise ValueError("labels length does not match features")

    def __len__(self) -> int:
        return self.features.shape[0]


def sample_mixture(
    specs: list[GaussianSpec],
    n_per_component: int,
    seed: int,
    role: str | None = None,
) -> DatasetSplit:
    """Draw n_per_component i.i.d. points from each component, in order.

    Components must be all labelled or all unlabelled.
    """
    if not specs:
        raise ValueError("need at least one component")
    if n_per_component < 1:
        raise ValueError(f"n_per_component must be >= 1, got {n_per_component}")
    dims = {s.mean.size for s in specs}
    if len(dims) != 1:
        raise ValueError(f"component means disagree on dimension: {sorted(dims)}")
    labelled = [s.label is not None for s in specs]
    if any(labelled) and not all(labelled):
        raise ValueError("components must be all labelled or all unlabelled")
    rng = np.random.default_rng(seed)
    blocks, label_blocks = [], []
    for spec in specs:
        pts = rng.normal(0.0, spec.sigma, size=(n_per_component, spec.mean.size))
        blocks.append(pts + spec.mean)
        if spec.label is not None:
            label_blocks.append(np.full(n_per_component, spec.label, dtype=np.int64))
    features = np.concatenate(blocks, axis=0)
    labels = np.concatenate(label_blocks) if label_blocks else None
    if role is None:
        role = "train" if labels is not None else "test_ood"
    return DatasetSplit(features, labels, role)


def _ring_means(radius: float, angles_deg: list[float]) -> list[np.ndarray]:
    out = []
    for a in angles_deg:
        t = np.deg2rad(a)
        out.append(radius * np.array([np.cos(t), np.sin(t)]))
    return out


def make_default_benchmark(
    seed: int = 0,
    id_radius: float = 4.0,
    ood_radius: float = 1.5,
    sigma: float = 0.5,
    n_per_class: int = 500,
    n_per_ood_component: int = 500,
    split_fractions: tuple[float, float, float] = (0.7, 0.15, 0.15),
) -> dict[str, DatasetSplit]:
    """Build the five-way benchmark dict.

    In-distribution: 3 Gaussians on an equilateral triangle (class-
    stratified 70/15/15 train/val/test_id split). Out-of-distribution:
    4 Gaussians on a square rotated 45 degrees relative to the triangle,
    cut 50/50 into train_ood/test_ood. The default outlier radius sits
    inside the triangle, placing the outlier mass in the ambiguous
    region between the classes rather than beyond them; both radii are
    free parameters.
    """
    for name, value in (("seed", seed), ("n_per_class", n_per_class),
                        ("n_per_ood_component", n_per_ood_component)):
        if not is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name, value in (("id_radius", id_radius), ("ood_radius", ood_radius),
                        ("sigma", sigma)):
        if not is_number(value):
            raise ValueError(f"{name} must be a number, got {value!r}")
    if not (isinstance(split_fractions, (list, tuple)) and len(split_fractions) == 3
            and all(map(is_number, split_fractions))):
        raise ValueError(f"split_fractions must be 3 numbers, got {split_fractions!r}")
    if id_radius <= 0 or ood_radius <= 0:
        raise ValueError("radii must be > 0")
    if abs(sum(split_fractions) - 1.0) > 1e-9 or any(f <= 0 for f in split_fractions):
        raise ValueError(f"split_fractions must be positive and sum to 1, "
                         f"got {split_fractions}")

    id_means = _ring_means(id_radius, [90.0, 210.0, 330.0])
    ood_means = _ring_means(ood_radius, [45.0, 135.0, 225.0, 315.0])
    id_specs = [GaussianSpec(m, sigma, label=c) for c, m in enumerate(id_means)]
    ood_specs = [GaussianSpec(m, sigma, label=None) for m in ood_means]

    id_split = sample_mixture(id_specs, n_per_class, derive_seed(seed, STREAM_DATA, 0))
    ood_split = sample_mixture(
        ood_specs, n_per_ood_component, derive_seed(seed, STREAM_DATA, 1)
    )

    n_train = int(round(n_per_class * split_fractions[0]))
    n_val = int(round(n_per_class * split_fractions[1]))
    if n_train + n_val >= n_per_class:
        raise ValueError("split fractions leave no test points")

    rng = derive_rng(seed, STREAM_DATA, 2)
    parts: dict[str, list] = {"train": [], "val": [], "test_id": []}
    for c in range(len(id_specs)):
        idx = np.flatnonzero(id_split.labels == c)
        idx = rng.permutation(idx)
        parts["train"].append(idx[:n_train])
        parts["val"].append(idx[n_train:n_train + n_val])
        parts["test_id"].append(idx[n_train + n_val:])

    benchmark: dict[str, DatasetSplit] = {}
    for role in ("train", "val", "test_id"):
        idx = rng.permutation(np.concatenate(parts[role]))
        benchmark[role] = DatasetSplit(
            id_split.features[idx], id_split.labels[idx], role
        )

    n_ood = len(ood_split)
    ood_idx = rng.permutation(n_ood)
    half = n_ood // 2
    benchmark["train_ood"] = DatasetSplit(
        ood_split.features[ood_idx[:half]], None, "train_ood"
    )
    benchmark["test_ood"] = DatasetSplit(
        ood_split.features[ood_idx[half:]], None, "test_ood"
    )
    return benchmark


@dataclass
class CorruptionSpec:
    kind: str
    severity: int

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(
                f"kind must be one of {CORRUPTION_KINDS}, got {self.kind!r}"
            )
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be in {SEVERITIES}, got {self.severity}")


def corrupt(split: DatasetSplit, spec: CorruptionSpec, seed: int) -> DatasetSplit:
    """Apply one corruption at one severity. Labels and row order survive.

    gaussian_noise: additive N(0, (0.1*severity)^2) per coordinate
    uniform_noise:  additive U(-0.15*severity, +0.15*severity)
    translate:      shift all rows by 0.2*severity along a seeded direction
    scale:          multiply features by (1 + 0.1*severity)
    rotate:         rotate about the origin by 5*severity degrees (2-D only)
    """
    x = split.features
    sev = spec.severity
    rng = np.random.default_rng(seed)
    if spec.kind == "gaussian_noise":
        x = x + rng.normal(0.0, 0.1 * sev, size=x.shape)
    elif spec.kind == "uniform_noise":
        x = x + rng.uniform(-0.15 * sev, 0.15 * sev, size=x.shape)
    elif spec.kind == "translate":
        theta = rng.uniform(0.0, 2.0 * np.pi)
        direction = np.zeros(x.shape[1])
        direction[:2] = (np.cos(theta), np.sin(theta))
        if x.shape[1] != 2:
            vec = rng.normal(size=x.shape[1])
            direction = vec / np.linalg.norm(vec)
        x = x + 0.2 * sev * direction
    elif spec.kind == "scale":
        x = x * (1.0 + 0.1 * sev)
    elif spec.kind == "rotate":
        if x.shape[1] != 2:
            raise ValueError("rotate corruption requires 2-D features")
        t = np.deg2rad(5.0 * sev)
        rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        x = x @ rot.T
    labels = None if split.labels is None else split.labels.copy()
    return DatasetSplit(x, labels, split.role)


def write_split(split: DatasetSplit, path) -> None:
    """CSV with header x0..x{d-1},label; label cells empty for OOD rows."""
    d = split.features.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(d)] + ["label"])
        labels = split.labels
        for i, row in enumerate(split.features):
            cells = [repr(float(v)) for v in row]
            cells.append("" if labels is None else str(int(labels[i])))
            writer.writerow(cells)


def read_split(path, role: str | None = None) -> DatasetSplit:
    """Read a split CSV. With role=None, labelled files become "train"
    and unlabelled ones "test_ood"."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        d = len(header) - 1
        expected = [f"x{i}" for i in range(d)] + ["label"]
        if header != expected or d < 1:
            raise ValueError(f"{path}: bad header {header!r}")
        rows, labels = [], []
        for lineno, cells in enumerate(reader, start=2):
            if len(cells) != d + 1:
                raise ValueError(f"{path}:{lineno}: expected {d + 1} cells")
            try:
                rows.append([float(v) for v in cells[:d]])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric feature") from None
            labels.append(cells[d])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    empties = [v == "" for v in labels]
    if any(empties) and not all(empties):
        raise ValueError(f"{path}: mixed labelled and unlabelled rows")
    if all(empties):
        y = None
        if role is None:
            role = "test_ood"
    else:
        try:
            y = np.array([int(v) for v in labels], dtype=np.int64)
        except ValueError:
            raise ValueError(f"{path}: non-integer label") from None
        if role is None:
            role = "train"
    return DatasetSplit(np.array(rows, dtype=np.float64), y, role)
