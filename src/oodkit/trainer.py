"""Training loop, hyperparameter sweep, and the end-to-end experiment.

Training pairs every in-distribution batch with an equally sized batch
drawn cyclically from the auxiliary outlier stream whenever the
objective consumes one. After each epoch the validation criterion is
evaluated and the best epoch's parameters are restored at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import signal
import threading
from collections import deque
from collections.abc import Callable
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field

import numpy as np

from . import objectives
from .datasynth import (
    CORRUPTION_KINDS, SEVERITIES, CorruptionSpec, DatasetSplit, corrupt, is_int,
)
from .metrics import EvalReport, accuracy, auc_roc, classify, mce
from .nn import (
    ForwardTrace,
    Gradients,
    MlpModel,
    backward_into,
    eval_trace,
    forward,  # noqa: F401  (kept bound: bench/test_bench.py checks tracing wraps it)
    forward_into,
    init_mlp,
    one_blas_thread,
    parallel_cpus,
    sgd_update,
    softmax,
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
    uses_mc,
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

    kernel names the objective's unchecked loss kernel in `objectives`,
    called as kernel(z_in, labels, z_out, params, d_in, d_out): it writes
    the logit gradients into d_in and d_out (both z_out and d_out are None
    without an outlier batch) and returns (loss, terms).
    penalty(config, model, grads), if set, runs once the OOD gradients are
    merged: it adds to grads in place and returns extra loss terms.
    defaults are the objective's TrainConfig overrides.
    """

    kernel: str
    needs_ood: bool = False
    penalty: Callable[..., dict[str, float]] | None = None
    defaults: dict = field(default_factory=dict)


# Each kernel is looked up on the objectives module when it is called, so
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
    "ce": ObjectiveSpec("cross_entropy_into"),
    "ce_l1": ObjectiveSpec("cross_entropy_into", penalty=_weight_l1),
    "ce_cosine": ObjectiveSpec(
        "ce_cosine_into", needs_ood=True,
        defaults={"lam": 1.0, "weight_decay": 3e-3, "dropout_rate": 0.2,
                  "mc_passes": 200},
    ),
    "cosine_margin": ObjectiveSpec(
        "cosine_margin_ranking_into", needs_ood=True,
        defaults={"hidden_dims": (128, 128), "dropout_rate": 0.4, "gamma": -0.5,
                  "lambda1": 0.35, "lambda2": 1.0, "alpha": 0.95,
                  "mc_passes": 200},
    ),
    "outlier_exposure": ObjectiveSpec(
        "outlier_exposure_into", needs_ood=True,
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
        for name, least in (("epochs", 1), ("batch_size", 1), ("k", 2), ("mc_passes", 1),
                            ("seed", 0)):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
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


# The splits training reads: validation measures OOD separation on
# train_ood for every objective, and OOD objectives also train on it.
TRAIN_SPLITS = ("train", "val", "train_ood")


def eval_splits(with_mahalanobis: bool) -> tuple[str, ...]:
    """The splits evaluation reads; the Mahalanobis detector is fit on train."""
    return ("test_id", "test_ood") + (("train",) if with_mahalanobis else ())


def _require_splits(benchmark: dict[str, DatasetSplit], *roles: str) -> None:
    for role in roles:
        if role not in benchmark:
            raise ValueError(f"benchmark is missing the {role!r} split")


# Pass count for per-epoch validation of dropout models. Fixed rather
# than tied to the eval-time mc_passes so checkpoint selection does not
# change when someone re-scores an existing model with a different T.
VAL_MC_PASSES = 30


def _predictive(
    model: MlpModel, split: DatasetSplit, seed: int, traces: list[ForwardTrace]
) -> PredictiveSamples:
    """predictive_samples over VAL_MC_PASSES on split, without the
    per-pass entropies that validation never reads, except that an eval
    pass runs in buffers kept for the split: traces is the caller's list
    for split, empty until the first eval pass appends its eval_trace,
    which later ones rerun in. Allocated anew, the outlier split's arrays
    made the allocator return and refault about 2 MB per epoch in some
    processes."""
    if uses_mc(model, VAL_MC_PASSES):
        return predictive_samples(model, split.features, VAL_MC_PASSES, seed,
                                  pass_entropy=False)
    if not traces:
        traces.append(eval_trace(model, split.features))
    return PredictiveSamples(softmax(forward_into(model, traces[0], None))[None],
                             pass_entropy=False)


def _validation_metrics(
    model: MlpModel, val: DatasetSplit, mc_seed: int, traces: list[ForwardTrace]
) -> tuple[float, np.ndarray]:
    """Validation accuracy and the val split's entropy scores under
    deployment semantics: MC-averaged predictions for a dropout model,
    one eval pass otherwise. traces is _predictive's, for val."""
    samples = _predictive(model, val, mc_seed, traces)
    val_acc = accuracy(samples.mean_probs().argmax(axis=1), val.labels)
    return val_acc, entropy_score(samples)


def _ood_seed(model: MlpModel, passes: int, mc_seed: int) -> int:
    """The seed of the OOD split's passes in a pair seeded by mc_seed."""
    # an eval pass ignores its seed, so the OOD one is derived only for MC
    return derive_seed(mc_seed, 1) if uses_mc(model, passes) else mc_seed


def _ood_entropy(
    model: MlpModel, ood: DatasetSplit, mc_seed: int, traces: list[ForwardTrace]
) -> np.ndarray:
    """The validation outlier split's entropy scores, for the epoch whose
    val split is scored with mc_seed. traces is _predictive's, for ood."""
    seed = _ood_seed(model, VAL_MC_PASSES, mc_seed)
    return entropy_score(_predictive(model, ood, seed, traces))


def _score_epoch(model: MlpModel, val: DatasetSplit, ood: DatasetSplit, mc_seed: int,
                 traces: tuple[list, list]) -> tuple[float, float]:
    """An epoch's val accuracy and entropy AUC against the outlier split
    ood, on the passes mc_seed seeds; traces holds _predictive's lists."""
    val_acc, val_entropy = _validation_metrics(model, val, mc_seed, traces[0])
    ood_entropy = _ood_entropy(model, ood, mc_seed, traces[1])
    return val_acc, 100.0 * auc_roc(val_entropy, ood_entropy, SCORE_ORIENTATION["entropy"])


def _epoch_criterion(config: TrainConfig, record: EpochRecord) -> tuple:
    # OOD-blind baselines must not select their checkpoint on OOD data
    if config.needs_ood():
        return (record.val_accuracy, record.val_entropy_auc)
    return (record.val_accuracy, -record.train_loss)


def _forks_validation_worker(model: MlpModel) -> bool:
    """Whether train validates in a forked pool: its validation draws MC
    passes, the process may use two CPUs and is not a multiprocessing
    worker, the calling thread is the only thread (so no other one holds
    a lock across the fork), and the platform can fork."""
    if (not uses_mc(model, VAL_MC_PASSES) or parallel_cpus() < 2
            or threading.active_count() > 1):
        return False
    # imported here: `import oodkit` then loads no multiprocessing
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


# Most processes in train's validation pool: 2 is the most measured.
VALIDATION_WORKERS = 2


# A validation worker's copy of its train call's model, of the flat
# vector the model's parameters view, and of val and ood, set at the fork
_worker_call: tuple = ()


def _init_validation_worker(errstate: dict, *call) -> None:
    # an interrupt is the trainer's to handle; it then stops this worker
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    np.seterr(**errstate)
    global _worker_call
    _worker_call = call


def _score_epoch_task(snapshot: np.ndarray, mc_seed: int) -> tuple:
    """_score_epoch on the model whose flat parameters are snapshot, in a
    validation worker. Non-finite parameters raise as the scores are read,
    and a wrapper installed before the fork runs here."""
    model, flat, val, ood = _worker_call
    flat[:] = snapshot
    return _score_epoch(model, val, ood, mc_seed, ([], []))


class WorkerExited(RuntimeError):
    """A process of train's validation pool or of sweep's pool died."""


def _from_worker(which: str, call: Callable, *args):
    """call(*args), raising a dead worker's BrokenExecutor as WorkerExited."""
    try:
        return call(*args)
    except BrokenExecutor as exc:
        raise WorkerExited(f"{which} exited unexpectedly") from exc


class _Validation:
    """Per-epoch validation and checkpoint selection for one train call.

    Under _forks_validation_worker's rule, min(VALIDATION_WORKERS,
    parallel_cpus()) forked processes score whole epochs while the caller
    trains: end_epoch(e) submits a snapshot of the parameters, then
    resolves the oldest epochs while more than workers + 1 are unresolved.
    Without a pool it scores and resolves e at once. Epochs are resolved
    in epoch order, so the history is the same either way.
    """

    def __init__(self, config: TrainConfig, model: MlpModel, flat: np.ndarray,
                 val: DatasetSplit, ood_split: DatasetSplit, history: TrainHistory):
        self.config, self.model, self.flat, self.history = config, model, flat, history
        self.val, self.ood_split = val, ood_split
        # (epoch, snapshot, future, train_loss, terms), oldest first
        self.unresolved: deque[tuple] = deque()
        self.traces = ([], [])
        self.best_criterion = None
        self.best_params: np.ndarray | None = None
        self.pool, self.depth = None, 0
        if _forks_validation_worker(model):
            # imported here: `import oodkit` then loads no multiprocessing
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            workers = min(VALIDATION_WORKERS, parallel_cpus())
            # the fork context starts every worker at the first submit,
            # before the pool starts any thread
            self.pool = ProcessPoolExecutor(
                workers, multiprocessing.get_context("fork"), _init_validation_worker,
                (np.geterr(), model, flat, val, ood_split))
            self.depth = workers + 1

    def end_epoch(self, epoch: int, train_loss: float, terms: dict[str, float]) -> None:
        snapshot = self.flat.copy()
        mc_seed = derive_seed(self.config.seed, STREAM_VAL_MC, epoch)
        if self.pool is None:
            # resolved below, while the model's parameters are the snapshot's
            future = functools.partial(_score_epoch, self.model, self.val, self.ood_split,
                                       mc_seed, self.traces)
        else:
            future = _from_worker("a validation worker", self.pool.submit,
                                  _score_epoch_task, snapshot, mc_seed)
        self.unresolved.append((epoch, snapshot, future, train_loss, terms))
        self.resolve(self.depth)

    def resolve(self, keep: int = 0) -> None:
        """Resolve the oldest epochs in order until at most keep are unresolved."""
        while len(self.unresolved) > keep:
            epoch, snapshot, future, train_loss, terms = self.unresolved.popleft()
            try:
                val_acc, ent_auc = (future() if self.pool is None
                                    else _from_worker("a validation worker", future.result))
            except ValueError as exc:
                # finite but extreme parameters can overflow the validation
                # forward pass: a divergence, and the first one wins
                self.unresolved.clear()
                raise TrainingDiverged(f"non-finite validation outputs at epoch {epoch}",
                                       self.history) from exc
            record = EpochRecord(epoch, train_loss, terms, val_acc, ent_auc)
            self.history.records.append(record)
            criterion = _epoch_criterion(self.config, record)
            # ties go to the later epoch: the outlier-shaping terms keep
            # tightening after the validation criterion saturates
            if self.best_criterion is None or criterion >= self.best_criterion:
                self.best_criterion = criterion
                self.history.best_epoch = epoch
                self.best_params = snapshot

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)


def _layer_views(flat: np.ndarray, dims: list[int]) -> tuple[list, list]:
    """Per-layer (weights, biases) views of a flat vector laid out as
    every layer's weights, then every layer's biases."""
    shapes = [(o, i) for i, o in zip(dims[:-1], dims[1:])] + [(o,) for o in dims[1:]]
    views, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views[:len(dims) - 1], views[len(dims) - 1:]


@dataclass
class _BatchBuffers:
    """What one batch step writes, for a given number of rows: the
    forward traces of the ID batch and of the outlier batch (None without
    one; it runs without dropout), backward's scratch, the labels and the
    logit gradients. The traces' inputs hold the batches."""

    trace_in: ForwardTrace
    trace_out: ForwardTrace | None
    deltas: list[np.ndarray]
    labels: np.ndarray
    d_in: np.ndarray
    d_out: np.ndarray | None

    @classmethod
    def allocate(cls, model: MlpModel, rows: int, labels_dtype, ood: bool):
        def trace(dropout: bool) -> ForwardTrace:
            return ForwardTrace.allocate(model, np.empty((rows, model.input_dim)), dropout)

        trace_in = trace(model.dropout_rate > 0)
        return cls(
            trace_in,
            trace(False) if ood else None,
            [np.empty_like(h) for h in trace_in.hidden_activations],
            np.empty(rows, labels_dtype),
            np.empty((rows, model.num_classes)),
            np.empty((rows, model.num_classes)) if ood else None,
        )


# numpy's overflow warnings are silenced: the explicit finiteness checks
# report a blow-up as TrainingDiverged, which says where it happened.
@np.errstate(all="ignore")
@one_blas_thread()
def train(
    config: TrainConfig, benchmark: dict[str, DatasetSplit], model: MlpModel
) -> tuple[MlpModel, TrainHistory]:
    """Train a copy of `model` under the configured objective.

    benchmark needs the TRAIN_SPLITS: every objective measures OOD
    separation against "train_ood" in validation (the held-out test_ood
    split is never touched here), and OOD-consuming objectives also train
    on it.

    Every batch step runs in buffers allocated once per call. The model
    being trained keeps its weights and biases as views of one flat
    vector, so the SGD update runs once over all layers. Each step calls
    the forward, loss, backward and SGD kernels directly: the inputs are
    checked once per call, and each step checks only that its logits,
    its loss and its gradient are finite.

    When validation draws MC passes, the process may use two CPUs and is
    not a multiprocessing worker, the calling thread is the only thread
    and the platform can fork, a two-process pool forked for this call
    scores each epoch while later ones train; a validation failure at
    epoch e raises once epoch e + 3 has trained, or at the end. The
    history and the returned model are the same bytes either way. The
    pool is shut down and its workers joined however the call ends; if a
    worker dies, the call raises WorkerExited, a RuntimeError.
    """
    _require_splits(benchmark, *TRAIN_SPLITS)
    for role in TRAIN_SPLITS:
        columns = benchmark[role].features.shape[1]
        if columns != model.input_dim:
            raise ValueError(f"model expects {model.input_dim}-D inputs but the {role} "
                             f"split has {columns} columns")
    train_split, val_split, ood_split = (benchmark[role] for role in TRAIN_SPLITS)
    # a DatasetSplit's features are finite float64 from construction on
    features, labels = train_split.features, train_split.labels
    k = model.num_classes
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"training labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    if config.objective == "cosine_margin" and k != config.k:
        raise ValueError(f"params.k = {config.k} but the model has {k} classes")

    spec = OBJECTIVE_TABLE[config.objective]
    params = config.objective_params()
    shuffle_rng = derive_rng(config.seed, STREAM_SHUFFLE)

    ood_features = None
    ood_pos = 0
    if config.needs_ood():
        ood_rng = derive_rng(config.seed, STREAM_OOD_SHUFFLE)
        ood_features = ood_split.features[ood_rng.permutation(len(ood_split))]

    def next_ood_batch(out: np.ndarray) -> None:
        # cyclic pointer: every outlier is consumed once per wrap
        nonlocal ood_pos
        rows = np.arange(ood_pos, ood_pos + len(out))
        ood_pos = (ood_pos + len(out)) % len(ood_features)
        ood_features.take(rows, axis=0, mode="wrap", out=out)

    # The workspace. The model trained here holds views of `flat`.
    flat = np.concatenate([a.ravel() for a in model.weights + model.biases])
    model = MlpModel(model.layer_dims, *_layer_views(flat, model.layer_dims),
                     model.dropout_rate)
    velocity = np.zeros_like(flat)
    scratch = np.empty_like(flat)
    grad = np.empty_like(flat)
    grads = Gradients(*_layer_views(grad, model.layer_dims))
    if config.needs_ood():
        grad_ood = np.empty_like(flat)
        grads_ood = Gradients(*_layer_views(grad_ood, model.layer_dims))
    n_train = len(train_split)
    rows = min(config.batch_size, n_train)
    # the short last batch of an epoch, if any: allocated after the full
    # batch's buffers, it cost later calls about 10% more minor page faults
    short = _BatchBuffers.allocate(model, n_train % rows, labels.dtype, config.needs_ood())
    full = _BatchBuffers.allocate(model, rows, labels.dtype, config.needs_ood())

    history = TrainHistory()
    dropout_counter = 0
    validation = _Validation(config, model, flat, val_split, ood_split, history)
    try:
        for epoch in range(1, config.epochs + 1):
            perm = shuffle_rng.permutation(n_train)
            loss_sum = 0.0
            term_sums: dict[str, float] = {}
            seen = 0
            for start in range(0, n_train, config.batch_size):
                idx = perm[start:start + config.batch_size]
                n = len(idx)
                step = full if n == rows else short
                features.take(idx, axis=0, out=step.trace_in.inputs)
                labels.take(idx, out=step.labels)
                rng = (
                    np.random.default_rng(
                        derive_seed(config.seed, STREAM_DROPOUT, dropout_counter))
                    if model.dropout_rate > 0 else None
                )
                logits_in = forward_into(model, step.trace_in, rng)
                dropout_counter += 1
                logits_out = None
                if step.trace_out is not None:
                    next_ood_batch(step.trace_out.inputs)
                    # The outlier terms shape the predictive distribution, so
                    # this branch runs without dropout: constraining every
                    # dropout subnetwork to be flat on outliers would erase
                    # the pass-to-pass disagreement that mutual information
                    # measures at test time.
                    logits_out = forward_into(model, step.trace_out, None)
                if not np.isfinite(logits_in).all() or (
                    logits_out is not None and not np.isfinite(logits_out).all()
                ):
                    raise TrainingDiverged(
                        f"non-finite logits at epoch {epoch}", history
                    )
                loss, terms = getattr(objectives, spec.kernel)(
                    logits_in, step.labels, logits_out, params, step.d_in, step.d_out)

                backward_into(model, step.trace_in, step.d_in, grads, step.deltas)
                if logits_out is not None:
                    backward_into(model, step.trace_out, step.d_out, grads_ood,
                                  step.deltas)
                    grad += grad_ood
                if spec.penalty is not None:
                    for name, value in spec.penalty(config, model, grads).items():
                        loss += value
                        terms[name] = value

                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}", history
                    )
                if not np.isfinite(grad).all():
                    raise TrainingDiverged(
                        f"non-finite gradient; step aborted (epoch {epoch})", history
                    )
                sgd_update(flat, grad, velocity, scratch,
                           config.lr, config.momentum, config.weight_decay)
                loss_sum += loss * n
                for name, val in terms.items():
                    term_sums[name] = term_sums.get(name, 0.0) + val * n
                seen += n

            validation.end_epoch(epoch, loss_sum / seen,
                                 {k: v / seen for k, v in term_sums.items()})
        validation.resolve()
    except TrainingDiverged:
        # earlier epochs' validation may still be in flight, and a
        # failure there came first
        validation.resolve()
        raise
    finally:
        validation.close()

    best_params = validation.best_params
    assert best_params is not None
    history.rollback_applied = history.best_epoch != config.epochs
    # the best epoch's parameters, in arrays of the returned model's own
    model.weights, model.biases = (
        [a.copy() for a in part]
        for part in _layer_views(best_params, model.layer_dims)
    )
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


def grid_configs(base_config: TrainConfig, grid: list[dict]) -> list[TrainConfig]:
    """The config of every grid point: base_config with the point's
    overrides. Raises ValueError naming the first invalid point."""
    if not grid:
        raise ValueError("grid must contain at least one point")
    configs: list[TrainConfig] = []
    for i, overrides in enumerate(grid):
        bad = set(overrides) - {f.name for f in dataclasses.fields(TrainConfig)}
        if bad:
            raise ValueError(f"grid point {i} has unknown fields: {sorted(bad)}")
        try:
            configs.append(dataclasses.replace(base_config, **overrides))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"grid point {i} invalid: {exc}") from exc
    return configs


def sweep(
    base_config: TrainConfig,
    grid: list[dict],
    benchmark: dict[str, DatasetSplit],
    workers: int = 1,
) -> tuple[TrainConfig, MlpModel, list[SweepRow]]:
    """Train every override point once and select the best; returns the
    winner's config and trained model, and the leaderboard rows.

    Selection: among points whose validation accuracy is within 1.0
    point of the grid's best, take the highest validation entropy AUC,
    the lowest grid index on a tie; the winner is the leaderboard's first
    row. Grid points share the base seed, so the winning configuration
    can be re-trained standalone and reproduce its leaderboard row and
    model exactly.

    workers > 1 trains grid points in a process pool of at most one
    worker per point. Each worker trains on one BLAS thread (train pins
    it) and one MC pass thread (pass_threads gives pool workers one);
    results are merged by grid index, so the leaderboard is independent
    of scheduling. A dead worker raises WorkerExited.
    """
    configs = grid_configs(base_config, grid)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    task = functools.partial(_sweep_task, benchmark=benchmark)
    # the fork start method launches every worker at the first submit
    workers = min(workers, len(configs))
    if workers > 1:
        # imported here: `import oodkit` then loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = _from_worker("a sweep worker", lambda: list(pool.map(task, configs)))
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

    def sort_key(r: SweepRow):
        if r.diverged:
            return (2, 0.0, 0.0, r.index)
        if r.val_accuracy >= best_acc - 1.0:
            return (0, -r.val_entropy_auc, 0.0, r.index)
        return (1, -r.val_entropy_auc, -r.val_accuracy, r.index)

    rows.sort(key=sort_key)
    rows[0].selected = True
    return configs[rows[0].index], outcomes[rows[0].index][2], rows


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


@one_blas_thread()
def score_populations(
    model: MlpModel,
    test_id: DatasetSplit,
    test_ood: DatasetSplit,
    mc_passes: int = 1,
    seed: int = 0,
    train_split: DatasetSplit | None = None,
) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], PredictiveSamples]:
    """Raw (id, ood) score pairs per kind, and the ID predictive samples.

    The softmax kinds come from one draw of predictive samples per split:
    MC passes on test_id are seeded by mc_seed = derive_seed(seed,
    STREAM_MC), on test_ood by derive_seed(mc_seed, 1). Given train_split,
    Mahalanobis scores over penultimate features, fit on that split, are
    added; each split's features come from its own eval pass. Runs under
    one_blas_thread().
    """
    mc_seed = derive_seed(seed, STREAM_MC)
    s_id = predictive_samples(model, test_id.features, mc_passes, mc_seed)
    s_ood = predictive_samples(model, test_ood.features, mc_passes,
                               _ood_seed(model, mc_passes, mc_seed))
    pops = {kind: (score(s_id), score(s_ood)) for kind, score in SOFTMAX_SCORES.items()}
    if train_split is not None:
        detector = fit_mahalanobis(
            penultimate_features(model, train_split.features), train_split.labels
        )
        pops["mahalanobis"] = tuple(
            mahalanobis_score(detector, penultimate_features(model, split.features))
            for split in (test_id, test_ood)
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
    _require_splits(benchmark, *eval_splits(with_mahalanobis))
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
    _require_splits(benchmark, *TRAIN_SPLITS, *eval_splits(with_mahalanobis))
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
