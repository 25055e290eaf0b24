"""Training loop, hyperparameter sweep, and the end-to-end experiment.

Training pairs every in-distribution batch with an equally sized batch
drawn cyclically from the auxiliary outlier stream whenever the
objective consumes one. After each epoch the validation criterion is
evaluated and the best epoch's parameters are restored at the end.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import objectives
from .datasynth import (
    CORRUPTION_KINDS, SEVERITIES, CorruptionSpec, DatasetSplit, corrupt, is_int,
)
from .metrics import EvalReport, accuracy, auc_roc, classify, mce
from .nn import (
    DivergenceError,
    Gradients,
    MlpModel,
    OptimizerState,
    backward,
    forward,
    init_mlp,
    one_blas_thread,
    one_thread_per_process,
    sgd_step,
)
from .objectives import ObjectiveParams, require_finite
from .scores import (
    SCORE_ORIENTATION,
    SOFTMAX_SCORES,
    PredictiveSamples,
    entropy_score,
    fit_mahalanobis,
    mahalanobis_score,
    penultimate_features,
    predictive_samples,
)
from .seeding import (
    STREAM_CORRUPT,
    STREAM_DROPOUT,
    STREAM_INIT,
    STREAM_MC,
    STREAM_OOD_SHUFFLE,
    STREAM_SHUFFLE,
    STREAM_VAL_MC,
    derive_rng,
    derive_seed,
)


def _weight_l1(config: TrainConfig, model: MlpModel, grads: Gradients) -> dict:
    """ce_l1's L1 weight penalty: adds its subgradient to grads and
    returns its loss term (none at zero strength)."""
    if not config.ce_l1_strength > 0:
        return {}
    penalty = config.ce_l1_strength * sum(
        float(np.abs(w).sum()) for w in model.weights
    )
    for gw, w in zip(grads.weights, model.weights):
        gw += config.ce_l1_strength * np.sign(w)
    return {"weight_l1": penalty}


@dataclass(frozen=True)
class ObjectiveSpec:
    """One row of the objective table.

    loss(params, logits_in, labels, logits_out) returns the LossResult.
    penalty(config, model, grads), if set, runs once the OOD gradients
    are merged: it adds to grads in place and returns extra loss terms.
    defaults are the objective's TrainConfig overrides.
    """

    loss: Callable[..., objectives.LossResult]
    needs_ood: bool = False
    penalty: Callable[..., dict[str, float]] | None = None
    defaults: dict = field(default_factory=dict)


def _ce(params, logits_in, labels, logits_out) -> objectives.LossResult:
    return objectives.cross_entropy_loss(logits_in, labels)


# Each loss is looked up on the objectives module when it is called, so
# a wrapper installed there (tracing, a test double) sees every call.
#
# The defaults are tuned per-objective rows for the default benchmark.
# The detection objectives train with dropout so the MC pass count is
# meaningful; the cross-entropy baselines stay deterministic (pass
# dropout_rate=0.2 to get the MC-dropout row of the same objective).
# cosine_margin carries a larger pass count because its pass-to-pass
# disagreement signal is smaller than ce_cosine's and needs more samples
# to resolve.
OBJECTIVE_TABLE: dict[str, ObjectiveSpec] = {
    "ce": ObjectiveSpec(_ce),
    "ce_l1": ObjectiveSpec(_ce, penalty=_weight_l1),
    "ce_cosine": ObjectiveSpec(
        lambda p, z_in, y, z_out: objectives.ce_cosine_loss(z_in, y, z_out, p.lam),
        needs_ood=True,
        defaults={"lam": 1.0, "weight_decay": 3e-3, "dropout_rate": 0.2,
                  "mc_passes": 200},
    ),
    "cosine_margin": ObjectiveSpec(
        lambda p, z_in, y, z_out: objectives.cosine_margin_ranking_loss(
            z_in, y, z_out, p
        ),
        needs_ood=True,
        defaults={"hidden_dims": (128, 128), "dropout_rate": 0.4, "gamma": -0.5,
                  "lambda1": 0.35, "lambda2": 1.0, "alpha": 0.95,
                  "mc_passes": 200},
    ),
    "outlier_exposure": ObjectiveSpec(
        lambda p, z_in, y, z_out: objectives.outlier_exposure_loss(
            z_in, y, z_out, p.lam
        ),
        needs_ood=True,
        defaults={"lam": 1.0, "dropout_rate": 0.2},
    ),
}
OBJECTIVES = tuple(OBJECTIVE_TABLE)
OOD_OBJECTIVES = tuple(n for n, spec in OBJECTIVE_TABLE.items() if spec.needs_ood)


class TrainingDiverged(RuntimeError):
    """Loss or gradients went non-finite. Carries the partial history."""

    def __init__(self, message: str, history: "TrainHistory | None" = None):
        super().__init__(message)
        self.history = history


@dataclass
class TrainConfig:
    objective: str = "ce"
    epochs: int = 100
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 3e-4
    dropout_rate: float = 0.0
    hidden_dims: tuple[int, ...] = (64, 64)
    lam: float = ObjectiveParams.lam
    gamma: float = ObjectiveParams.gamma
    lambda1: float = ObjectiveParams.lambda1
    lambda2: float = ObjectiveParams.lambda2
    alpha: float = ObjectiveParams.alpha
    k: int = ObjectiveParams.k
    mc_passes: int = 30
    ce_l1_strength: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        require_finite(self)
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"objective must be one of {OBJECTIVES}, got {self.objective!r}"
            )
        for name in ("epochs", "batch_size", "k", "mc_passes", "seed"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("epochs", "batch_size", "mc_passes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # lr = 0 is allowed so a freeze run stays expressible
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(
                f"dropout_rate must be in [0, 1), got {self.dropout_rate}"
            )
        dims = tuple(self.hidden_dims)
        if not dims or not all(is_int(h) and h >= 1 for h in dims):
            raise ValueError(f"hidden_dims must be positive integers, got {dims}")
        self.hidden_dims = tuple(int(h) for h in dims)
        if self.ce_l1_strength < 0:
            raise ValueError(
                f"ce_l1_strength must be >= 0, got {self.ce_l1_strength}"
            )
        if self.objective == "outlier_exposure" and self.lam < 0:
            raise ValueError(
                f"outlier_exposure requires lam >= 0, got {self.lam}"
            )
        # delegate range checks shared with the loss layer
        self.objective_params()

    def objective_params(self) -> ObjectiveParams:
        names = (f.name for f in dataclasses.fields(ObjectiveParams))
        return ObjectiveParams(**{name: getattr(self, name) for name in names})

    def needs_ood(self) -> bool:
        return OBJECTIVE_TABLE[self.objective].needs_ood


@dataclass
class EpochRecord:
    epoch: int  # 1-based
    train_loss: float
    loss_terms: dict[str, float]
    val_accuracy: float
    val_entropy_auc: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    rollback_applied: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def default_config(objective: str, seed: int = 0) -> TrainConfig:
    """Per-objective defaults used by the benchmark reproduction."""
    spec = OBJECTIVE_TABLE.get(objective)
    # an unknown objective is rejected by TrainConfig itself
    defaults = spec.defaults if spec is not None else {}
    return TrainConfig(objective=objective, seed=seed, **defaults)


def init_model(config: TrainConfig, input_dim: int) -> MlpModel:
    """The freshly initialised model that `config` trains on `input_dim`
    features."""
    return init_mlp(
        [input_dim, *config.hidden_dims, config.k],
        config.dropout_rate,
        seed=derive_seed(config.seed, STREAM_INIT),
    )


def _require_splits(benchmark: dict[str, DatasetSplit], *roles: str) -> None:
    for role in roles:
        if role not in benchmark:
            raise ValueError(f"benchmark is missing the {role!r} split")


# Pass count for per-epoch validation of dropout models. Fixed rather
# than tied to the eval-time mc_passes so checkpoint selection does not
# change when someone re-scores an existing model with a different T.
VAL_MC_PASSES = 30


def _validation_metrics(
    model: MlpModel, val: DatasetSplit, val_ood: DatasetSplit, mc_seed: int
) -> tuple[float, float]:
    """Validation accuracy and entropy AUC under deployment semantics:
    MC-averaged predictions for a dropout model, one eval pass otherwise."""
    (s_val, _), (s_ood, _) = predictive_samples_pair(
        model, val, val_ood, VAL_MC_PASSES, mc_seed
    )
    val_acc = accuracy(s_val.mean_probs().argmax(axis=1), val.labels)
    ent_auc = 100.0 * auc_roc(
        entropy_score(s_val), entropy_score(s_ood), SCORE_ORIENTATION["entropy"]
    )
    return val_acc, ent_auc


def _epoch_criterion(config: TrainConfig, record: EpochRecord) -> tuple:
    # OOD-blind baselines must not select their checkpoint on OOD data
    if config.needs_ood():
        return (record.val_accuracy, record.val_entropy_auc)
    return (record.val_accuracy, -record.train_loss)


# numpy's overflow warnings are silenced: the explicit finiteness checks
# report a blow-up as TrainingDiverged, which says where it happened.
@np.errstate(all="ignore")
@one_blas_thread()
def train(
    config: TrainConfig, benchmark: dict[str, DatasetSplit], model: MlpModel
) -> tuple[MlpModel, TrainHistory]:
    """Train a copy of `model` under the configured objective.

    benchmark needs "train" and "val"; OOD-consuming objectives also
    need "train_ood". Validation OOD separation is measured against
    "val_ood" when present, else against "train_ood" (the held-out
    test_ood split is never touched here).
    """
    _require_splits(benchmark, "train", "val")
    train_split = benchmark["train"]
    val_split = benchmark["val"]
    if config.needs_ood():
        _require_splits(benchmark, "train_ood")
    val_ood = benchmark.get("val_ood") or benchmark.get("train_ood")
    if val_ood is None:
        raise ValueError("benchmark needs train_ood or val_ood for validation")
    if model.input_dim != train_split.features.shape[1]:
        raise ValueError("model input dim does not match training features")
    if train_split.labels.max() >= model.num_classes:
        raise ValueError("training labels exceed model classes")

    model = model.copy()
    spec = OBJECTIVE_TABLE[config.objective]
    params = config.objective_params()
    state = OptimizerState.zeros(
        model, config.lr, config.momentum, config.weight_decay
    )
    shuffle_rng = derive_rng(config.seed, STREAM_SHUFFLE)

    ood_features = None
    ood_pos = 0
    if config.needs_ood():
        ood_rng = derive_rng(config.seed, STREAM_OOD_SHUFFLE)
        ood_features = benchmark["train_ood"].features[
            ood_rng.permutation(len(benchmark["train_ood"]))
        ]

    def next_ood_batch(size: int) -> np.ndarray:
        # cyclic pointer: every outlier is consumed once per wrap
        nonlocal ood_pos
        rows = np.arange(ood_pos, ood_pos + size)
        ood_pos = (ood_pos + size) % len(ood_features)
        return ood_features.take(rows, axis=0, mode="wrap")

    history = TrainHistory()
    best_criterion = None
    best_params: tuple[list, list] | None = None
    dropout_counter = 0
    n_train = len(train_split)

    for epoch in range(1, config.epochs + 1):
        perm = shuffle_rng.permutation(n_train)
        loss_sum = 0.0
        term_sums: dict[str, float] = {}
        seen = 0
        for start in range(0, n_train, config.batch_size):
            idx = perm[start:start + config.batch_size]
            xb = train_split.features[idx]
            yb = train_split.labels[idx]
            # forward ignores the seed when dropout is off
            mask_seed = (
                derive_seed(config.seed, STREAM_DROPOUT, dropout_counter)
                if model.dropout_rate > 0 else None
            )
            logits_in, trace_in = forward(model, xb, mode="train", seed=mask_seed)
            dropout_counter += 1
            logits_out, trace_out = None, None
            if config.needs_ood():
                ob = next_ood_batch(len(idx))
                # The outlier terms shape the predictive distribution, so
                # this branch runs without dropout: constraining every
                # dropout subnetwork to be flat on outliers would erase
                # the pass-to-pass disagreement that mutual information
                # measures at test time.
                logits_out, trace_out = forward(model, ob, mode="eval")
            if not np.all(np.isfinite(logits_in)) or (
                logits_out is not None and not np.all(np.isfinite(logits_out))
            ):
                raise TrainingDiverged(
                    f"non-finite logits at epoch {epoch}", history
                )
            result = spec.loss(params, logits_in, yb, logits_out)
            loss = result.loss
            terms = dict(result.terms)

            grads = backward(model, trace_in, result.d_logits_in)
            if result.d_logits_out is not None:
                ood_grads = backward(model, trace_out, result.d_logits_out)
                for gw, ow in zip(grads.weights, ood_grads.weights):
                    gw += ow
                for gb, ob_ in zip(grads.biases, ood_grads.biases):
                    gb += ob_
            if spec.penalty is not None:
                for name, value in spec.penalty(config, model, grads).items():
                    loss += value
                    terms[name] = value

            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}", history
                )
            try:
                sgd_step(model, grads, state)
            except DivergenceError as exc:
                raise TrainingDiverged(
                    f"{exc} (epoch {epoch})", history
                ) from exc
            loss_sum += loss * len(idx)
            for name, val in terms.items():
                term_sums[name] = term_sums.get(name, 0.0) + val * len(idx)
            seen += len(idx)

        try:
            val_acc, ent_auc = _validation_metrics(
                model, val_split, val_ood,
                mc_seed=derive_seed(config.seed, STREAM_VAL_MC, epoch),
            )
        except ValueError as exc:
            # finite but extreme parameters can overflow the validation
            # forward pass; that is a divergence, not a usage error
            raise TrainingDiverged(
                f"non-finite validation outputs at epoch {epoch}", history
            ) from exc
        record = EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / seen,
            loss_terms={k: v / seen for k, v in term_sums.items()},
            val_accuracy=val_acc,
            val_entropy_auc=ent_auc,
        )
        history.records.append(record)
        criterion = _epoch_criterion(config, record)
        # ties go to the later epoch: the outlier-shaping terms keep
        # tightening after the validation criterion saturates
        if best_criterion is None or criterion >= best_criterion:
            best_criterion = criterion
            history.best_epoch = epoch
            best_params = (
                [w.copy() for w in model.weights],
                [b.copy() for b in model.biases],
            )

    assert best_params is not None
    if history.best_epoch != config.epochs:
        history.rollback_applied = True
        model.weights = best_params[0]
        model.biases = best_params[1]
    return model, history


@dataclass
class SweepRow:
    index: int
    overrides: dict
    val_accuracy: float | None
    val_entropy_auc: float | None
    diverged: bool
    selected: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _sweep_task(
    cfg: TrainConfig, benchmark: dict[str, DatasetSplit]
) -> tuple[float, float, MlpModel] | None:
    """Train one grid point; returns (val_acc, val_entropy_auc, trained
    model), or None if it diverged.

    Module-level so process pools can pickle it.
    """
    model = init_model(cfg, benchmark["train"].features.shape[1])
    try:
        trained, history = train(cfg, benchmark, model)
    except TrainingDiverged:
        return None
    best = history.records[history.best_epoch - 1]
    return (best.val_accuracy, best.val_entropy_auc, trained)


def sweep(
    base_config: TrainConfig,
    grid: list[dict],
    benchmark: dict[str, DatasetSplit],
    workers: int = 1,
) -> tuple[TrainConfig, MlpModel, list[SweepRow]]:
    """Train every override point once and select the best; returns the
    winner's config and trained model, and the leaderboard rows.

    Selection: among points whose validation accuracy is within 1.0
    point of the grid's best, take the highest validation entropy AUC.
    Grid points share the base seed, so the winning configuration can be
    re-trained standalone and reproduce its leaderboard row and model
    exactly.

    workers > 1 trains grid points in a process pool of at most one
    worker per point, each on one BLAS and one MC pass thread; results
    are merged by grid index, so the leaderboard is independent of
    scheduling.
    """
    if not grid:
        raise ValueError("grid must contain at least one point")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    configs: list[TrainConfig] = []
    for i, overrides in enumerate(grid):
        bad = set(overrides) - {f.name for f in dataclasses.fields(TrainConfig)}
        if bad:
            raise ValueError(f"grid point {i} has unknown fields: {sorted(bad)}")
        try:
            cfg = dataclasses.replace(base_config, **overrides)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"grid point {i} invalid: {exc}") from exc
        configs.append(cfg)

    task = functools.partial(_sweep_task, benchmark=benchmark)
    # the fork start method launches every worker at the first submit
    workers = min(workers, len(configs))
    if workers > 1:
        # imported here: `import oodkit` then loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=one_thread_per_process
        ) as pool:
            outcomes = list(pool.map(task, configs))
    else:
        outcomes = [task(cfg) for cfg in configs]

    rows = []
    for i, (overrides, outcome) in enumerate(zip(grid, outcomes)):
        val_acc, ent_auc, _ = outcome or (None, None, None)
        rows.append(SweepRow(i, dict(overrides), val_acc, ent_auc,
                             diverged=outcome is None))

    survivors = [r for r in rows if not r.diverged]
    if not survivors:
        raise TrainingDiverged("all grid points diverged")
    best_acc = max(r.val_accuracy for r in survivors)
    eligible = [r for r in survivors if r.val_accuracy >= best_acc - 1.0]
    winner = max(eligible, key=lambda r: (r.val_entropy_auc, -r.index))
    winner.selected = True

    def sort_key(r: SweepRow):
        if r.diverged:
            return (2, 0.0, 0.0, r.index)
        guard = 0 if r.val_accuracy >= best_acc - 1.0 else 1
        return (guard, -r.val_entropy_auc, -r.val_accuracy, r.index)

    rows.sort(key=sort_key)
    return configs[winner.index], outcomes[winner.index][2], rows


def corruption_error_table(
    model: MlpModel, test_id: DatasetSplit, seed: int
) -> dict[str, dict[int, float]]:
    """Classification error percent for every corruption kind and severity."""
    table: dict[str, dict[int, float]] = {}
    for ki, kind in enumerate(CORRUPTION_KINDS):
        table[kind] = {}
        for sev in SEVERITIES:
            spec = CorruptionSpec(kind, sev)
            corrupted = corrupt(
                test_id, spec, derive_seed(seed, STREAM_CORRUPT, ki, sev)
            )
            err = 100.0 - accuracy(
                classify(model, corrupted.features), corrupted.labels
            )
            table[kind][sev] = err
    return table


def predictive_samples_pair(
    model: MlpModel,
    split_id: DatasetSplit,
    split_ood: DatasetSplit,
    passes: int,
    mc_seed: int,
) -> tuple[tuple[PredictiveSamples, np.ndarray | None], ...]:
    """predictive_samples on a pair of splits. Per split it returns the
    samples and, for an eval pass, that pass's penultimate features (None
    for MC passes).

    MC passes on split_id are seeded by mc_seed, on split_ood by
    derive_seed(mc_seed, 1).
    """
    def draw(split: DatasetSplit, seed: int):
        # the trace is dropped here, so only its features stay in memory
        samples, trace = predictive_samples(model, split.features, passes, seed)
        return samples, None if trace is None else trace.penultimate_features

    s_id, features_id = draw(split_id, mc_seed)
    # an eval pass ignores its seed, so the OOD one is derived only for MC
    seed_ood = mc_seed if features_id is not None else derive_seed(mc_seed, 1)
    return (s_id, features_id), draw(split_ood, seed_ood)


def score_populations(
    model: MlpModel,
    test_id: DatasetSplit,
    test_ood: DatasetSplit,
    mc_passes: int = 1,
    seed: int = 0,
    train_split: DatasetSplit | None = None,
) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], PredictiveSamples]:
    """Raw (id, ood) score pairs per kind, and the ID predictive samples.

    The softmax kinds come from one draw of predictive samples. Given
    train_split, Mahalanobis scores over penultimate features, fit on
    that split, are added; a test split scored by one eval pass reuses
    that pass's features.
    """
    (s_id, features_id), (s_ood, features_ood) = predictive_samples_pair(
        model, test_id, test_ood, mc_passes, derive_seed(seed, STREAM_MC)
    )
    pops = {kind: (score(s_id), score(s_ood)) for kind, score in SOFTMAX_SCORES.items()}
    if train_split is not None:
        detector = fit_mahalanobis(
            penultimate_features(model, train_split.features), train_split.labels
        )
        pops["mahalanobis"] = tuple(
            mahalanobis_score(detector, penultimate_features(model, split.features)
                              if features is None else features)
            for split, features in ((test_id, features_id), (test_ood, features_ood))
        )
    return pops, s_id


def eval_report(
    test_id: DatasetSplit,
    populations: dict[str, tuple[np.ndarray, np.ndarray]],
    id_samples: PredictiveSamples,
    mc_passes: int,
    mce_value: float | None = None,
) -> EvalReport:
    """Accuracy, per-kind AUC and warnings from score_populations' output."""
    warnings: list[str] = []
    if id_samples.num_passes == 1:
        if mc_passes > 1:
            warnings.append(
                "mc_passes > 1 requested but the model has dropout_rate 0; "
                "scores fall back to a single deterministic pass"
            )
        warnings.append(
            "mutual_information is identically zero for single-pass "
            "deterministic evaluation; its AUC degenerates to 50.00"
        )
    return EvalReport(
        id_accuracy=accuracy(id_samples.mean_probs().argmax(axis=1), test_id.labels),
        auc={
            kind: 100.0 * auc_roc(s_id, s_ood, SCORE_ORIENTATION[kind])
            for kind, (s_id, s_ood) in populations.items()
        },
        mce=mce_value,
        warnings=warnings,
    )


@one_blas_thread()
def evaluate_model(
    model: MlpModel,
    benchmark: dict[str, DatasetSplit],
    mc_passes: int = 1,
    seed: int = 0,
    with_mahalanobis: bool = False,
    with_corruptions: bool = False,
) -> EvalReport:
    """Score a trained model on the held-out splits.

    With mc_passes > 1 on a dropout model, accuracy and the `auc` block
    both come from the MC-averaged predictive distribution; otherwise
    from a single deterministic pass, under which mutual information is
    identically zero and its AUC degenerates to 50.00 (flagged in
    warnings).
    """
    roles = ("test_id", "test_ood") + (("train",) if with_mahalanobis else ())
    _require_splits(benchmark, *roles)
    test_id = benchmark["test_id"]
    pops, id_samples = score_populations(
        model,
        test_id,
        benchmark["test_ood"],
        mc_passes=mc_passes,
        seed=seed,
        train_split=benchmark["train"] if with_mahalanobis else None,
    )
    mce_value = None
    if with_corruptions:
        mce_value = mce(corruption_error_table(model, test_id, seed))
    return eval_report(test_id, pops, id_samples, mc_passes, mce_value)


def run_experiment(
    config: TrainConfig,
    benchmark: dict[str, DatasetSplit],
    with_mahalanobis: bool = False,
    with_corruptions: bool = False,
) -> tuple[MlpModel, TrainHistory, EvalReport]:
    """Init, train, and evaluate in one deterministic call."""
    _require_splits(benchmark, "train", "val", "test_id", "test_ood")
    model = init_model(config, benchmark["train"].features.shape[1])
    trained, history = train(config, benchmark, model)
    report = evaluate_model(
        trained,
        benchmark,
        mc_passes=config.mc_passes,
        seed=config.seed,
        with_mahalanobis=with_mahalanobis,
        with_corruptions=with_corruptions,
    )
    return trained, history, report
