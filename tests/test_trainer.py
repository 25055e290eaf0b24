import dataclasses
import math
import os
import signal
import socket
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oodkit import objectives
from oodkit.datasynth import CORRUPTION_KINDS, SEVERITIES
from oodkit.metrics import accuracy, classify
from oodkit.datasynth import DatasetSplit
from oodkit.nn import (
    OptimizerState, backward, eval_trace, forward, init_mlp, sgd_step, softmax,
)
from oodkit.scores import (
    entropy_score,
    fit_mahalanobis,
    mahalanobis_score,
    mutual_information_score,
    penultimate_features,
    predictive_samples,
)
from oodkit.seeding import (
    STREAM_DROPOUT, STREAM_MC, STREAM_OOD_SHUFFLE, STREAM_SHUFFLE, STREAM_VAL_MC,
    derive_rng, derive_seed,
)
from oodkit.trainer import (
    TrainConfig,
    TrainingDiverged,
    corruption_error_table,
    default_config,
    evaluate_model,
    init_model,
    run_experiment,
    score_populations,
    sweep,
    train,
)
import oodkit.nn as nn_mod
import oodkit.trainer as trainer_mod

OBJECTIVES = ("ce", "ce_l1", "ce_cosine", "cosine_margin", "outlier_exposure")


def fresh_model(config: TrainConfig, benchmark) -> "trainer_mod.MlpModel":
    return init_model(config, benchmark["train"].features.shape[1])


def statistics(samples) -> tuple:
    """What a PredictiveSamples holds, as bytes; None for the per-pass
    entropy of samples folded without it, as validation's are."""
    try:
        pass_entropy = samples.mean_pass_entropy.tobytes()
    except ValueError:
        pass_entropy = None
    return (samples.num_passes, samples.mean_probs().tobytes(), pass_entropy)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = TrainConfig()
    assert cfg.objective == "ce"
    assert cfg.epochs == 100
    assert cfg.hidden_dims == (64, 64)
    assert not cfg.needs_ood()


@pytest.mark.parametrize(
    "overrides",
    [
        {"objective": "contrastive"},
        {"epochs": 0},
        {"batch_size": 0},
        {"lr": -0.1},
        {"momentum": 1.0},
        {"weight_decay": -1e-3},
        {"dropout_rate": 1.0},
        {"hidden_dims": ()},
        {"hidden_dims": (64, 0)},
        {"k": 1},
        {"mc_passes": 0},
        {"ce_l1_strength": -1.0},
        {"alpha": 0.0},
        {"lambda1": -0.5},
        {"objective": "outlier_exposure", "lam": -1.0},
        {"epochs": 2.5},
        {"batch_size": 8.5},
        {"seed": 1.5},
        {"hidden_dims": (8.5,)},
        {"mc_passes": 2.5},
        {"k": 3.0},
        {"epochs": True},
        {"hidden_dims": (8, True)},
    ],
)
def test_config_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        TrainConfig(**overrides)


def test_config_rejects_non_finite_floats():
    # NaN passes range checks like `lr < 0`; this must be caught first
    for name in ("lr", "momentum", "weight_decay", "dropout_rate", "lam",
                 "gamma", "lambda1", "lambda2", "alpha", "ce_l1_strength"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                TrainConfig(**{name: value})


def test_config_accepts_numpy_integers():
    cfg = TrainConfig(epochs=np.int64(2), seed=np.int64(3),
                      hidden_dims=(np.int32(8),))
    assert cfg.hidden_dims == (8,) and type(cfg.hidden_dims[0]) is int


def test_config_allows_zero_lr():
    assert TrainConfig(lr=0.0).lr == 0.0


def test_config_coerces_hidden_dims_to_tuple():
    cfg = TrainConfig(hidden_dims=[32, 16])
    assert cfg.hidden_dims == (32, 16)
    assert isinstance(cfg.hidden_dims, tuple)


def test_needs_ood_per_objective():
    flags = {obj: TrainConfig(objective=obj, lam=1.0).needs_ood()
             for obj in OBJECTIVES}
    assert flags == {
        "ce": False,
        "ce_l1": False,
        "ce_cosine": True,
        "cosine_margin": True,
        "outlier_exposure": True,
    }


def test_default_config_rows():
    for obj in OBJECTIVES:
        cfg = default_config(obj, seed=3)
        assert cfg.objective == obj
        assert cfg.seed == 3
    assert default_config("ce_cosine").lam == 1.0
    assert default_config("ce_cosine").dropout_rate == 0.2
    assert default_config("cosine_margin").hidden_dims == (128, 128)
    with pytest.raises(ValueError):
        default_config("bogus")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_zero_lr_freezes_parameters(tiny_benchmark):
    cfg = TrainConfig(objective="ce", epochs=4, lr=0.0, seed=0)
    model = fresh_model(cfg, tiny_benchmark)
    trained, history = train(cfg, tiny_benchmark, model)
    for w0, w1 in zip(model.weights, trained.weights):
        np.testing.assert_array_equal(w0, w1)
    for b0, b1 in zip(model.biases, trained.biases):
        np.testing.assert_array_equal(b0, b1)
    # frozen model: every epoch sees the same mean loss, ties go late
    losses = [r.train_loss for r in history.records]
    np.testing.assert_allclose(losses, losses[0], rtol=1e-12)
    assert history.best_epoch == cfg.epochs
    assert not history.rollback_applied


def test_train_is_deterministic(tiny_benchmark):
    cfg = TrainConfig(objective="ce_cosine", lam=1.0, epochs=3,
                      dropout_rate=0.2, seed=5)
    m1, h1 = train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    m2, h2 = train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    for w1, w2 in zip(m1.weights, m2.weights):
        np.testing.assert_array_equal(w1, w2)
    assert h1.best_epoch == h2.best_epoch
    assert [r.train_loss for r in h1.records] == [r.train_loss for r in h2.records]


def test_train_seed_changes_outcome(tiny_benchmark):
    cfg0 = TrainConfig(objective="ce", epochs=3, seed=0)
    cfg1 = dataclasses.replace(cfg0, seed=1)
    m0, _ = train(cfg0, tiny_benchmark, fresh_model(cfg0, tiny_benchmark))
    m1, _ = train(cfg1, tiny_benchmark, fresh_model(cfg1, tiny_benchmark))
    assert any(
        not np.array_equal(w0, w1) for w0, w1 in zip(m0.weights, m1.weights)
    )


@pytest.mark.parametrize("dropout_rate", [0.0, 0.2])
def test_train_derives_mask_seeds_only_with_dropout(
    tiny_benchmark, monkeypatch, dropout_rate
):
    calls = []

    def counting(seed, *path):
        calls.append((seed, *path))
        return derive_seed(seed, *path)

    monkeypatch.setattr(trainer_mod, "derive_seed", counting)
    cfg = TrainConfig(objective="ce", epochs=2, dropout_rate=dropout_rate)
    train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    mask_seeds = [c for c in calls if c[:2] == (cfg.seed, STREAM_DROPOUT)]
    batches = -(-len(tiny_benchmark["train"]) // cfg.batch_size) * cfg.epochs
    # with dropout, batch i of the run draws its masks from stream i
    expected = list(range(batches)) if dropout_rate > 0 else []
    assert [c[2] for c in mask_seeds] == expected


def test_train_calls_each_loss_through_the_objectives_module(
    tiny_benchmark, monkeypatch
):
    # a table entry that held the function object would bypass wrappers
    # installed on the module, such as the benchmark's tracing spans. The
    # step calls each loss's unchecked kernel.
    calls = []
    for name in ("cross_entropy_into", "ce_cosine_into"):
        def counting(*args, _name=name, _loss=getattr(objectives, name)):
            calls.append(_name)
            return _loss(*args)

        monkeypatch.setattr(objectives, name, counting)
    for objective, loss in (("ce", "cross_entropy_into"),
                            ("ce_cosine", "ce_cosine_into")):
        calls.clear()
        cfg = TrainConfig(objective=objective, lam=1.0, epochs=1, batch_size=16)
        train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
        batches = -(-len(tiny_benchmark["train"]) // cfg.batch_size)
        assert batches > 1
        assert calls.count(loss) == batches


def test_train_does_not_mutate_input_model(tiny_benchmark):
    cfg = TrainConfig(objective="ce", epochs=2, seed=0)
    model = fresh_model(cfg, tiny_benchmark)
    before = [w.copy() for w in model.weights]
    train(cfg, tiny_benchmark, model)
    for w0, w1 in zip(before, model.weights):
        np.testing.assert_array_equal(w0, w1)


def test_train_missing_splits(tiny_benchmark):
    cfg = TrainConfig(objective="ce_cosine", lam=1.0, epochs=1)
    no_ood = {k: v for k, v in tiny_benchmark.items() if k != "train_ood"}
    with pytest.raises(ValueError, match="train_ood"):
        train(cfg, no_ood, fresh_model(cfg, tiny_benchmark))
    no_val = {k: v for k, v in tiny_benchmark.items() if k != "val"}
    with pytest.raises(ValueError, match="val"):
        train(cfg, no_val, fresh_model(cfg, tiny_benchmark))
    ce = TrainConfig(objective="ce", epochs=1)
    bare = {"train": tiny_benchmark["train"], "val": tiny_benchmark["val"]}
    with pytest.raises(ValueError):
        train(ce, bare, fresh_model(ce, tiny_benchmark))


def test_train_rejects_mismatched_model(tiny_benchmark):
    cfg = TrainConfig(objective="ce", epochs=1)
    wrong_dim = init_mlp([5, 8, 3], seed=0)
    with pytest.raises(ValueError):
        train(cfg, tiny_benchmark, wrong_dim)
    too_few_classes = init_mlp([2, 8, 2], seed=0)
    with pytest.raises(ValueError):
        train(cfg, tiny_benchmark, too_few_classes)


def test_train_loss_decreases(small_benchmark):
    cfg = TrainConfig(objective="ce", epochs=20, seed=0)
    _, history = train(cfg, small_benchmark, fresh_model(cfg, small_benchmark))
    assert history.records[-1].train_loss < history.records[0].train_loss


def test_train_reports_objective_terms(tiny_benchmark):
    cfg = TrainConfig(objective="ce_cosine", lam=1.0, epochs=2)
    _, history = train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    assert set(history.records[0].loss_terms) == {"ce", "cosine"}
    cfg = TrainConfig(objective="ce_l1", epochs=2)
    _, history = train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    assert set(history.records[0].loss_terms) == {"ce", "weight_l1"}


def test_train_ood_pool_smaller_than_batch(tiny_benchmark):
    # outlier batches wrap around the pool without repetition bias
    cfg = TrainConfig(objective="outlier_exposure", lam=0.5, epochs=2,
                      batch_size=64, seed=0)
    assert len(tiny_benchmark["train_ood"]) < cfg.batch_size
    _, h1 = train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    _, h2 = train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    assert np.isfinite(h1.records[-1].train_loss)
    assert h1.records[-1].train_loss == h2.records[-1].train_loss


def test_rollback_restores_best_epoch(small_benchmark):
    cfg = TrainConfig(objective="ce", epochs=12, lr=0.3, seed=2)
    model, history = train(cfg, small_benchmark, fresh_model(cfg, small_benchmark))
    crits = [(r.val_accuracy, -r.train_loss) for r in history.records]
    best = max(range(len(crits)), key=lambda i: (crits[i], i)) + 1
    assert history.best_epoch == best
    assert history.rollback_applied == (best != cfg.epochs)
    # deterministic model: returned weights reproduce the recorded metric
    got = accuracy(
        classify(model, small_benchmark["val"].features),
        small_benchmark["val"].labels,
    )
    assert got == history.records[best - 1].val_accuracy


def test_train_diverges_at_huge_lr(tiny_benchmark):
    cfg = TrainConfig(objective="ce", epochs=3, lr=1e200, seed=0)
    with pytest.raises(TrainingDiverged) as err, np.errstate(all="ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    assert err.value.history is not None


# Today's batch step, made of the public functions: each checks its
# inputs and allocates its outputs.
PUBLIC_LOSSES = {
    "ce": lambda c, z_in, y, z_out: objectives.cross_entropy_loss(z_in, y),
    "ce_l1": lambda c, z_in, y, z_out: objectives.cross_entropy_loss(z_in, y),
    "ce_cosine": lambda c, z_in, y, z_out: objectives.ce_cosine_loss(
        z_in, y, z_out, c.lam),
    "cosine_margin": lambda c, z_in, y, z_out: objectives.cosine_margin_ranking_loss(
        z_in, y, z_out, c.objective_params()),
    "outlier_exposure": lambda c, z_in, y, z_out: objectives.outlier_exposure_loss(
        z_in, y, z_out, c.lam),
}


def reference_epoch(cfg: TrainConfig, benchmark, model):
    """The parameters and mean loss after one epoch of train()'s batch
    steps, each run as forward -> loss -> backward -> sgd_step."""
    model = model.copy()
    state = OptimizerState.zeros(model, cfg.lr, cfg.momentum, cfg.weight_decay)
    x, y = benchmark["train"].features, benchmark["train"].labels
    perm = derive_rng(cfg.seed, STREAM_SHUFFLE).permutation(len(x))
    if cfg.needs_ood():
        ood = benchmark["train_ood"].features
        ood = ood[derive_rng(cfg.seed, STREAM_OOD_SHUFFLE).permutation(len(ood))]
    pos, loss_sum = 0, 0.0
    for step, start in enumerate(range(0, len(x), cfg.batch_size)):
        idx = perm[start:start + cfg.batch_size]
        mask_seed = (derive_seed(cfg.seed, STREAM_DROPOUT, step)
                     if model.dropout_rate > 0 else None)
        z_in, trace_in = forward(model, x[idx], "train", mask_seed)
        z_out = None
        if cfg.needs_ood():
            batch = ood.take(np.arange(pos, pos + len(idx)), axis=0, mode="wrap")
            pos = (pos + len(idx)) % len(ood)
            z_out, trace_out = forward(model, batch, "eval")
        result = PUBLIC_LOSSES[cfg.objective](cfg, z_in, y[idx], z_out)
        grads = backward(model, trace_in, result.d_logits_in)
        if z_out is not None:
            ood_grads = backward(model, trace_out, result.d_logits_out)
            for g, o in zip(grads.weights + grads.biases,
                            ood_grads.weights + ood_grads.biases):
                g += o
        loss = result.loss
        if cfg.objective == "ce_l1":
            loss += cfg.ce_l1_strength * sum(float(np.abs(w).sum()) for w in model.weights)
            for g, w in zip(grads.weights, model.weights):
                g += cfg.ce_l1_strength * np.sign(w)
        sgd_step(model, grads, state)
        loss_sum += loss * len(idx)
    return model, loss_sum / len(x)


@settings(max_examples=60, deadline=None)
@given(
    objective=st.sampled_from(OBJECTIVES),
    dropout=st.sampled_from([0.0, 0.3]),
    hidden=st.sampled_from([(), (5,), (6, 4)]),
    n_train=st.integers(2, 40),
    n_ood=st.integers(1, 30),
    batch_size=st.integers(1, 16),
    seed=st.integers(0, 2**16),
)
def test_buffered_steps_equal_the_public_functions(
    objective, dropout, hidden, n_train, n_ood, batch_size, seed
):
    # 0-2 hidden layers, with and without dropout; a short last batch
    # whenever batch_size does not divide n_train
    rng = np.random.default_rng(seed)
    benchmark = {
        "train": DatasetSplit(rng.normal(size=(n_train, 2)),
                              rng.integers(0, 3, n_train), "train"),
        "val": DatasetSplit(rng.normal(size=(5, 2)), rng.integers(0, 3, 5), "val"),
        "train_ood": DatasetSplit(3.0 * rng.normal(size=(n_ood, 2)), None, "train_ood"),
        "val_ood": DatasetSplit(3.0 * rng.normal(size=(5, 2)), None, "val_ood"),
    }
    cfg = dataclasses.replace(default_config(objective, seed), epochs=1,
                              batch_size=batch_size)
    model = init_mlp([2, *hidden, 3], dropout, seed=seed)
    trained, history = train(cfg, benchmark, model)
    expected, loss = reference_epoch(cfg, benchmark, model)
    for a, e in zip(trained.weights + trained.biases, expected.weights + expected.biases):
        assert a.tobytes() == e.tobytes()
    assert history.records[0].train_loss == loss


def test_non_finite_gradient_diverges_before_the_update(tiny_benchmark, monkeypatch):
    cfg = TrainConfig(objective="ce", epochs=1, batch_size=16)
    real_loss, real_update = objectives.cross_entropy_into, trainer_mod.sgd_update
    losses, params = [], []

    def poisoned(z_in, y, z_out, params, d_in, d_out):
        result = real_loss(z_in, y, z_out, params, d_in, d_out)
        losses.append(result[0])
        if len(losses) == 3:
            d_in[0, 0] = np.nan  # the loss stays finite, the gradient does not
        return result

    def recording_update(param, *args):
        real_update(param, *args)
        params.append((param, param.copy()))

    monkeypatch.setattr(objectives, "cross_entropy_into", poisoned)
    monkeypatch.setattr(trainer_mod, "sgd_update", recording_update)
    with pytest.raises(TrainingDiverged, match="non-finite gradient"):
        train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    assert np.isfinite(losses).all() and len(losses) == 3
    # two updates ran; the third step left the parameters as they were
    assert len(params) == 2
    live, after_second = params[-1]
    assert live.tobytes() == after_second.tobytes()


def test_train_rejects_a_negative_label(tiny_benchmark):
    split = tiny_benchmark["train"]
    labels = split.labels.copy()
    labels[-1] = -1
    benchmark = dict(tiny_benchmark, train=DatasetSplit(split.features, labels, "train"))
    cfg = TrainConfig(objective="ce", epochs=1)
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
        train(cfg, benchmark, fresh_model(cfg, benchmark))


def test_a_second_train_call_leaves_the_first_model_alone(tiny_benchmark):
    cfg = TrainConfig(objective="ce_cosine", lam=1.0, epochs=2, dropout_rate=0.2)
    model = fresh_model(cfg, tiny_benchmark)
    first, _ = train(cfg, tiny_benchmark, model)
    arrays = first.weights + first.biases
    # the returned model owns its arrays: none is a view of a workspace
    assert all(a.flags.owndata for a in arrays)
    before = [a.tobytes() for a in arrays]
    train(cfg, tiny_benchmark, first)
    train(cfg, tiny_benchmark, model)
    assert [a.tobytes() for a in first.weights + first.biases] == before


def test_history_round_trips_to_dict(tiny_benchmark):
    cfg = TrainConfig(objective="ce", epochs=2)
    _, history = train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    d = history.to_dict()
    assert d["best_epoch"] == history.best_epoch
    assert len(d["records"]) == 2
    assert d["records"][0]["epoch"] == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def canned_task(cfg, benchmark):
    table = {
        0.0: (99.0, 90.0, "model 0"),
        1.0: (98.5, 95.0, "model 1"),  # within the 1 pt guard, best separation
        2.0: (97.0, 99.0, "model 2"),  # outside the guard despite top separation
        3.0: None,  # diverged
    }
    return table[cfg.lam]


def test_sweep_selection_and_ordering(tiny_benchmark, monkeypatch):
    monkeypatch.setattr(trainer_mod, "_sweep_task", canned_task)
    base = TrainConfig(objective="ce_cosine", epochs=1)
    grid = [{"lam": 0.0}, {"lam": 1.0}, {"lam": 2.0}, {"lam": 3.0}]
    best, best_model, rows = sweep(base, grid, tiny_benchmark)
    assert best.lam == 1.0
    assert best_model == "model 1"
    assert rows[0].overrides == {"lam": 1.0} and rows[0].selected
    assert [r.overrides["lam"] for r in rows] == [1.0, 0.0, 2.0, 3.0]
    assert rows[-1].diverged
    assert rows[-1].val_accuracy is None
    assert sum(r.selected for r in rows) == 1


def test_sweep_winner_leads_the_leaderboard_on_an_auc_tie(tiny_benchmark, monkeypatch):
    # entropy AUCs of exactly 100.0 happen on this benchmark; the tie goes
    # to the lower grid index, in the selection and in the row order alike
    table = {0.0: (99.0, 100.0, "model 0"), 1.0: (99.5, 100.0, "model 1")}
    monkeypatch.setattr(trainer_mod, "_sweep_task", lambda cfg, benchmark: table[cfg.lam])
    best, best_model, rows = sweep(TrainConfig(objective="ce_cosine", epochs=1),
                                   [{"lam": 0.0}, {"lam": 1.0}], tiny_benchmark)
    assert best.lam == 0.0 and best_model == "model 0"
    assert [(r.index, r.selected) for r in rows] == [(0, True), (1, False)]


def test_sweep_all_diverged(tiny_benchmark, monkeypatch):
    monkeypatch.setattr(
        trainer_mod, "_sweep_task", lambda cfg, benchmark: None
    )
    with pytest.raises(TrainingDiverged):
        sweep(TrainConfig(), [{"lr": 0.1}], tiny_benchmark)


def test_sweep_validates_grid(tiny_benchmark):
    with pytest.raises(ValueError):
        sweep(TrainConfig(), [], tiny_benchmark)
    with pytest.raises(ValueError, match="unknown fields"):
        sweep(TrainConfig(), [{"learning_rate": 0.1}], tiny_benchmark)
    with pytest.raises(ValueError, match="grid point 0"):
        sweep(TrainConfig(), [{"lr": -1.0}], tiny_benchmark)
    with pytest.raises(ValueError, match="workers"):
        sweep(TrainConfig(), [{"lr": 0.1}], tiny_benchmark, workers=0)


def test_sweep_winner_replays_standalone(tiny_benchmark):
    base = TrainConfig(objective="ce", epochs=2, seed=0)
    best, best_model, rows = sweep(
        base, [{"epochs": 2}, {"epochs": 4}], tiny_benchmark
    )
    row = next(r for r in rows if r.selected)
    model, history = train(best, tiny_benchmark, fresh_model(best, tiny_benchmark))
    record = history.records[history.best_epoch - 1]
    assert record.val_accuracy == row.val_accuracy
    assert record.val_entropy_auc == row.val_entropy_auc
    for a, b in zip(model.weights + model.biases,
                    best_model.weights + best_model.biases):
        assert a.tobytes() == b.tobytes()


def test_sweep_parallel_matches_serial(tiny_benchmark):
    base = TrainConfig(objective="ce", epochs=2, seed=0)
    grid = [{"lr": 0.05}, {"lr": 0.1}, {"lr": 0.2}]
    best1, model1, rows1 = sweep(base, grid, tiny_benchmark, workers=1)
    best2, model2, rows2 = sweep(base, grid, tiny_benchmark, workers=2)
    assert best1 == best2
    assert rows1 == rows2
    for a, b in zip(model1.weights + model1.biases,
                    model2.weights + model2.biases):
        assert a.tobytes() == b.tobytes()


class StandInPool:
    """Records how a process pool was asked for and runs the tasks in
    this process, starting no worker."""

    made: list[dict] = []

    def __init__(self, **kwargs):
        StandInPool.made.append(kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("workers, grid_size, pool_size", [
    (500, 2, 2), (3, 4, 3), (2, 1, None), (1, 4, None),
])
def test_sweep_starts_at_most_one_worker_per_point(
    workers, grid_size, pool_size, tiny_benchmark, monkeypatch
):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StandInPool)
    monkeypatch.setattr(StandInPool, "made", [])
    monkeypatch.setattr(trainer_mod, "_sweep_task", canned_task)
    grid = [{"lam": float(i)} for i in range(grid_size)]
    best, _, _ = sweep(TrainConfig(objective="ce_cosine"), grid, tiny_benchmark,
                       workers=workers)
    assert best.lam == (1.0 if grid_size > 1 else 0.0)
    if pool_size is None:
        assert StandInPool.made == []
    else:
        assert StandInPool.made == [{"max_workers": pool_size}]


def test_train_and_evaluate_run_blas_on_one_thread(
    tiny_benchmark, tmp_path, monkeypatch, started_workers
):
    from oodkit.nn import blas_threads, set_blas_threads

    if blas_threads() is None:
        pytest.skip("numpy's BLAS exports no thread-count symbols")

    log = tmp_path / "calls"
    parent = os.getpid()

    def spy(fn):
        # logged to a file, so that calls in validation workers show too
        def wrapped(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{fn.__name__} {blas_threads()} {os.getpid() != parent}\n")
            return fn(*args, **kwargs)
        return wrapped

    def seen() -> set:
        calls = set(log.read_text().splitlines())
        log.unlink()
        return calls

    monkeypatch.setattr(trainer_mod, "forward_into", spy(trainer_mod.forward_into))
    monkeypatch.setattr(trainer_mod, "predictive_samples",
                        spy(trainer_mod.predictive_samples))
    before = set_blas_threads(2)
    try:
        config = dataclasses.replace(default_config("ce_cosine"), epochs=1)
        # validation in the pool's workers, then inline
        for cpus in (2, 1):
            monkeypatch.setattr(nn_mod, "available_cpus", lambda cpus=cpus: cpus)
            trained, _ = train(config, tiny_benchmark, fresh_model(config, tiny_benchmark))
            assert blas_threads() == 2
            assert seen() == {"forward_into 1 False", f"predictive_samples 1 {cpus == 2}"}
        assert len(started_workers) == 1
        evaluate_model(trained, tiny_benchmark, mc_passes=3)
        assert blas_threads() == 2
        assert seen() == {"predictive_samples 1 False"}
    finally:
        set_blas_threads(before)


def test_eval_pass_validation_allocates_its_buffers_once(tiny_benchmark, monkeypatch):
    # the eval traces allocated on a validation split's own rows
    roles = {id(tiny_benchmark[r].features): r for r in ("val", "val_ood")}
    allocated = []

    def counting(model, inputs):
        if id(inputs) in roles:
            allocated.append(roles[id(inputs)])
        return eval_trace(model, inputs)

    monkeypatch.setattr(trainer_mod, "eval_trace", counting)
    cfg = TrainConfig(objective="ce", epochs=3)
    for _ in range(2):
        train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    # val and val_ood, in epoch 1 of each call; later epochs rerun in
    # those buffers
    assert allocated == ["val", "val_ood"] * 2


def test_an_eval_pass_validation_reruns_in_the_trace_it_returned(tiny_benchmark):
    model = init_mlp([2, 8, 3], seed=0)
    split = tiny_benchmark["val"]
    traces = []
    trainer_mod._predictive(model, split, 0, traces)
    trace = traces[0]
    model.weights[0] *= 2.0
    expected = predictive_samples(model, split.features, 1, seed=0, pass_entropy=False)
    again = trainer_mod._predictive(model, split, 0, traces)
    assert len(traces) == 1 and traces[0] is trace
    assert statistics(again) == statistics(expected)
    # MC passes draw their own buffers
    mc = init_mlp([2, 8, 3], dropout_rate=0.2, seed=0)
    samples = trainer_mod._predictive(mc, split, 5, traces)
    assert traces == [trace]
    expected = predictive_samples(mc, split.features, trainer_mod.VAL_MC_PASSES, 5)
    assert statistics(samples) == statistics(expected)[:2] + (None,)


# ---------------------------------------------------------------------------
# the validation worker
# ---------------------------------------------------------------------------


def mc_config(objective: str, epochs: int) -> TrainConfig:
    """objective's defaults with dropout, so its validation draws MC passes."""
    cfg = default_config(objective, seed=3)
    return dataclasses.replace(cfg, epochs=epochs, dropout_rate=cfg.dropout_rate or 0.2)


@pytest.fixture
def started_workers(monkeypatch):
    """One entry per validation pool that train starts during the test:
    the list of the pool's worker processes, read as train shuts the pool
    down (the pool forgets them once they exit)."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the validation worker needs the fork start method")
    started = []
    real = trainer_mod._Validation.close

    def recording(self):
        if self.pool is not None:
            started.append(list(self.pool._processes.values()))
        real(self)

    monkeypatch.setattr(trainer_mod._Validation, "close", recording)
    return started


def train_outcome(cfg: TrainConfig, benchmark):
    """(parameter bytes, history) of a train call, or (message, partial
    history) of the TrainingDiverged it raised."""
    try:
        model, history = train(cfg, benchmark, fresh_model(cfg, benchmark))
    except TrainingDiverged as exc:
        return str(exc), exc.history.to_dict()
    return [a.tobytes() for a in model.weights + model.biases], history.to_dict()


def both_paths(cfg: TrainConfig, benchmark, monkeypatch, started, steps=None):
    """train_outcome with the validation pool, then inline on one CPU;
    and, given count_steps' list, the batch steps each call ran."""
    outcomes, counts = [], []
    pools = len(started)
    for cpus in (2, 1):
        monkeypatch.setattr(nn_mod, "available_cpus", lambda cpus=cpus: cpus)
        if steps is not None:
            steps.clear()
        outcomes.append(train_outcome(cfg, benchmark))
        counts.append(None if steps is None else len(steps))
        assert len(started) == pools + 1
    return outcomes, counts


@pytest.mark.parametrize("epochs", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_the_validation_worker_changes_no_output(
    objective, epochs, tiny_benchmark, monkeypatch, started_workers
):
    outcomes = []
    for workers in (1, 2):
        monkeypatch.setattr(trainer_mod, "VALIDATION_WORKERS", workers)
        outcomes += both_paths(mc_config(objective, epochs), tiny_benchmark,
                               monkeypatch, started_workers)[0]
    assert [len(pool) for pool in started_workers] == [1, 2]
    assert all(outcome == outcomes[0] for outcome in outcomes)
    assert len(outcomes[0][1]["records"]) == epochs


@pytest.mark.parametrize("objective", ["ce", "ce_l1"])
def test_an_ood_blind_objective_reads_no_train_ood_row(
    objective, tiny_benchmark, monkeypatch, started_workers
):
    rows = 3.0 * np.random.default_rng(0).normal(size=(7, 2))
    replaced = dict(tiny_benchmark, train_ood=DatasetSplit(rows, None, "train_ood"))
    absent = {role: split for role, split in tiny_benchmark.items() if role != "train_ood"}
    benchmarks = (tiny_benchmark, replaced, absent)
    cfg = dataclasses.replace(default_config(objective), epochs=3)
    outcomes = [repr(train_outcome(cfg, b)) for b in benchmarks]
    assert outcomes == outcomes[:1] * 3
    # MC validation, in the pool's workers and then inline
    cfg = mc_config(objective, epochs=3)
    outcomes = [repr(outcome) for b in benchmarks
                for outcome in both_paths(cfg, b, monkeypatch, started_workers)[0]]
    assert outcomes == outcomes[:1] * 6


def test_validation_scores_val_ood_on_both_paths(
    tiny_benchmark, monkeypatch, started_workers, tmp_path
):
    log = tmp_path / "scored"
    parent = os.getpid()
    real = trainer_mod._score_epoch

    def spy(model, val, val_ood, *args):
        # logged to a file, so that calls in validation workers show too
        with open(log, "a") as fh:
            fh.write(f"{val.role} {val_ood.role} {os.getpid() != parent}\n")
        return real(model, val, val_ood, *args)

    monkeypatch.setattr(trainer_mod, "_score_epoch", spy)
    both_paths(mc_config("ce_cosine", epochs=2), tiny_benchmark, monkeypatch,
               started_workers)
    # two epochs in the pool's workers, then two inline
    assert sorted(log.read_text().splitlines()) == (
        ["val val_ood False"] * 2 + ["val val_ood True"] * 2)


@pytest.mark.parametrize("workers", [1, 2])
def test_the_caller_holds_at_most_workers_plus_one_epochs(
    workers, tiny_benchmark, monkeypatch, started_workers
):
    held = []
    real = trainer_mod._Validation.resolve

    def recording(self, keep=0):
        real(self, keep)
        held.append(len(self.unresolved))

    monkeypatch.setattr(trainer_mod, "VALIDATION_WORKERS", workers)
    monkeypatch.setattr(trainer_mod._Validation, "resolve", recording)
    monkeypatch.setattr(nn_mod, "available_cpus", lambda: 2)
    cfg = mc_config("ce_cosine", epochs=6)
    train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    assert [len(pool) for pool in started_workers] == [workers]
    # after each epoch's end, then after the last epoch
    assert held == [min(epoch, workers + 1) for epoch in range(1, 7)] + [0]


def count_steps(monkeypatch, fail_at=None, error=None) -> list:
    """Count ce_cosine's batch steps in a list; step number fail_at raises
    error, or returns a NaN loss where error is None."""
    steps = []
    real = objectives.ce_cosine_into

    def counting(*args):
        steps.append(1)
        loss, terms = real(*args)
        if len(steps) == fail_at:
            if error is not None:
                raise error
            loss = np.nan
        return loss, terms

    monkeypatch.setattr(objectives, "ce_cosine_into", counting)
    return steps


def batches_per_epoch(cfg: TrainConfig, benchmark) -> int:
    return -(-len(benchmark["train"]) // cfg.batch_size)


def fail_validation(monkeypatch, name: str, cfg: TrainConfig, epoch: int) -> None:
    """Make trainer.<name>, which takes the epoch's validation seed third,
    raise at epoch, as non-finite outputs do."""
    real = getattr(trainer_mod, name)
    seed = derive_seed(cfg.seed, STREAM_VAL_MC, epoch)

    def failing(*args):
        if args[2] == seed:
            raise ValueError("non-finite entries in input batch")
        return real(*args)

    monkeypatch.setattr(trainer_mod, name, failing)


@pytest.mark.parametrize("name", ["_ood_entropy", "_validation_metrics"])
@pytest.mark.parametrize("epoch", [1, 2])
def test_a_validation_failure_raises_with_the_earlier_records(
    name, epoch, tiny_benchmark, monkeypatch, started_workers
):
    cfg = mc_config("ce_cosine", epochs=6)
    fail_validation(monkeypatch, name, cfg, epoch)
    steps = count_steps(monkeypatch)
    (piped, inline), counts = both_paths(cfg, tiny_benchmark, monkeypatch,
                                         started_workers, steps)
    assert piped == inline
    message, history = piped
    assert message == f"non-finite validation outputs at epoch {epoch}"
    assert len(history["records"]) == epoch - 1
    # with two workers, the pool's failure at epoch e shows once epoch
    # e + 3 has trained
    batches = batches_per_epoch(cfg, tiny_benchmark)
    assert counts == [(epoch + 3) * batches, epoch * batches]


@pytest.mark.parametrize("validation_fails", [False, True])
def test_a_step_divergence_resolves_the_previous_epoch_first(
    validation_fails, tiny_benchmark, monkeypatch, started_workers
):
    cfg = mc_config("ce_cosine", epochs=4)
    if validation_fails:
        fail_validation(monkeypatch, "_ood_entropy", cfg, 2)
    # the first step of epoch 3 diverges
    steps = count_steps(monkeypatch, fail_at=2 * batches_per_epoch(cfg, tiny_benchmark) + 1)
    (piped, inline), _ = both_paths(cfg, tiny_benchmark, monkeypatch, started_workers,
                                    steps)
    assert piped == inline
    message, history = piped
    if validation_fails:
        # epoch 2's failed validation still wins, with epoch 1's record
        assert message == "non-finite validation outputs at epoch 2"
        assert len(history["records"]) == 1
    else:
        assert message == "non-finite loss at epoch 3"
        assert [r["epoch"] for r in history["records"]] == [1, 2]


def test_huge_steps_diverge_the_same_with_the_worker(
    tiny_benchmark, monkeypatch, started_workers
):
    cfg = dataclasses.replace(mc_config("ce_cosine", epochs=3), lr=1e200)
    (piped, inline), _ = both_paths(cfg, tiny_benchmark, monkeypatch, started_workers)
    assert piped == inline
    assert piped[0].startswith("non-finite")


@pytest.mark.parametrize("ending", ["return", "diverged", "interrupt"])
def test_train_leaves_no_child_behind(
    ending, tiny_benchmark, monkeypatch, started_workers
):
    import multiprocessing

    cfg = mc_config("ce_cosine", epochs=3)
    batches = batches_per_epoch(cfg, tiny_benchmark)
    monkeypatch.setattr(nn_mod, "available_cpus", lambda: 2)
    if ending == "return":
        train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    elif ending == "diverged":
        count_steps(monkeypatch, fail_at=batches + 1)
        with pytest.raises(TrainingDiverged, match="non-finite loss at epoch 2"):
            train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    else:
        count_steps(monkeypatch, fail_at=batches + 1, error=KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    [workers] = started_workers
    assert len(workers) == 2
    assert multiprocessing.active_children() == []
    # they stopped once the pool shut down; none was killed
    assert [worker.exitcode for worker in workers] == [0, 0]


def test_the_worker_passes_messages_larger_than_the_pipe_buffer(
    tiny_benchmark, monkeypatch, started_workers
):
    """The parameters and the outlier split's scores each fill more than
    the pipe's buffer; neither process waits in a send for the other."""
    ends = socket.socketpair()
    with ends[0], ends[1]:
        sndbuf = ends[0].getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
    # floats per message: half as much again as the buffer holds
    floats = 3 * sndbuf // 16
    width = math.isqrt(floats) + 1
    rows = np.random.default_rng(0).normal(size=(floats, 2))
    benchmark = dict(tiny_benchmark, val_ood=DatasetSplit(rows, None, "val_ood"))
    cfg = TrainConfig(objective="ce", epochs=3, dropout_rate=0.2,
                      hidden_dims=(width, width))
    assert sum(a.size for a in fresh_model(cfg, benchmark).weights) > floats
    # two passes keep it MC validation, at a fifteenth of the cost
    monkeypatch.setattr(trainer_mod, "VAL_MC_PASSES", 2)
    monkeypatch.setattr(nn_mod, "available_cpus", lambda: 2)

    def stuck(signum, frame):
        pytest.fail("train waited on its validation worker for 120 s")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(120)
    try:
        _, history = train(cfg, benchmark, fresh_model(cfg, benchmark))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(started_workers) == 1
    assert [r.epoch for r in history.records] == [1, 2, 3]


def test_the_worker_task_scores_as_the_inline_path(tiny_benchmark, monkeypatch):
    model = init_mlp([2, 8, 3], dropout_rate=0.3, seed=0)
    val, ood = tiny_benchmark["val"], tiny_benchmark["val_ood"]
    # what _init_validation_worker keeps for a worker: a model whose
    # parameters view one flat vector, and the splits
    flat = np.zeros(sum(a.size for a in model.weights + model.biases))
    views = trainer_mod._layer_views(flat, model.layer_dims)
    worker_model = trainer_mod.MlpModel(model.layer_dims, *views, model.dropout_rate)
    monkeypatch.setattr(trainer_mod, "_worker_call", (worker_model, flat, val, ood))
    for epoch in (4, 5):
        model.weights[0] *= 1.5
        snapshot = np.concatenate([a.ravel() for a in model.weights + model.biases])
        mc_seed = derive_seed(7, STREAM_VAL_MC, epoch)
        scores = trainer_mod._score_epoch_task(snapshot, mc_seed)
        expected = trainer_mod._score_epoch(model, val, ood, mc_seed, ([], []))
        assert np.array(scores).tobytes() == np.array(expected).tobytes()


def die_in_the_worker_at(monkeypatch, cfg: TrainConfig, epoch: int) -> None:
    """Give train a validation worker that exits with code 3 as it scores
    the outlier split of epoch."""
    import multiprocessing

    real = trainer_mod._ood_entropy
    seed = derive_seed(cfg.seed, STREAM_VAL_MC, epoch)

    def dying(*args):
        # only ever in the worker: the inline path would end the test run
        assert multiprocessing.parent_process() is not None
        if args[2] == seed:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(nn_mod, "available_cpus", lambda: 2)
    monkeypatch.setattr(trainer_mod, "_ood_entropy", dying)


def test_train_raises_when_the_worker_dies(tiny_benchmark, monkeypatch, started_workers):
    cfg = mc_config("ce_cosine", epochs=3)
    die_in_the_worker_at(monkeypatch, cfg, 1)
    end_epoch = trainer_mod._Validation.end_epoch

    def after_the_death(self, epoch, *args):
        if epoch == 2:
            # the pool's manager thread ends once it has marked the pool
            # broken, so epoch 2's submit is what sees the death
            self.pool._executor_manager_thread.join(60)
            assert self.pool._broken
        end_epoch(self, epoch, *args)

    monkeypatch.setattr(trainer_mod._Validation, "end_epoch", after_the_death)
    with pytest.raises(RuntimeError, match="validation worker exited unexpectedly"):
        train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    assert 3 in [worker.exitcode for worker in started_workers[0]]


def test_train_raises_when_the_worker_dies_in_the_last_epoch(
    tiny_benchmark, monkeypatch, started_workers
):
    cfg = mc_config("ce_cosine", epochs=3)
    # no submit follows: the death shows where the last scores are read
    die_in_the_worker_at(monkeypatch, cfg, 3)
    with pytest.raises(RuntimeError, match="validation worker exited unexpectedly"):
        train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
    assert 3 in [worker.exitcode for worker in started_workers[0]]


def test_the_worker_rule_falls_back_inline(tiny_benchmark, monkeypatch, started_workers):
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    forks = trainer_mod._forks_validation_worker
    mc = init_mlp([2, 8, 3], dropout_rate=0.2, seed=0)
    monkeypatch.setattr(nn_mod, "available_cpus", lambda: 2)
    assert forks(mc)
    # a dropout-free model validates on one eval pass
    assert not forks(init_mlp([2, 8, 3], seed=0))
    # in a pool worker (which inherits the patch)
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert not pool.submit(forks, mc).result(timeout=60)
    # with a second thread alive, which a fork would not copy
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert not forks(mc)
        cfg = mc_config("ce_cosine", epochs=1)
        train(cfg, tiny_benchmark, fresh_model(cfg, tiny_benchmark))
        assert started_workers == []
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()
    # where the platform cannot fork
    with monkeypatch.context() as patch:
        patch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert not forks(mc)
    # on one CPU
    monkeypatch.setattr(nn_mod, "available_cpus", lambda: 1)
    assert not forks(mc)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_corruption_table_shape_and_determinism(tiny_benchmark):
    model = init_mlp([2, 8, 3], seed=0)
    t1 = corruption_error_table(model, tiny_benchmark["test_id"], seed=0)
    t2 = corruption_error_table(model, tiny_benchmark["test_id"], seed=0)
    assert set(t1) == set(CORRUPTION_KINDS)
    for kind in CORRUPTION_KINDS:
        assert set(t1[kind]) == set(SEVERITIES)
        for sev in SEVERITIES:
            assert 0.0 <= t1[kind][sev] <= 100.0
            assert t1[kind][sev] == t2[kind][sev]


@pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
def test_mahalanobis_pair_scores_each_splits_eval_pass_features(
    tiny_benchmark, dropout_rate
):
    train_split = tiny_benchmark["train"]
    test_id, test_ood = tiny_benchmark["test_id"], tiny_benchmark["test_ood"]
    model = init_mlp([2, 8, 3], dropout_rate, seed=1)
    pops, samples = score_populations(model, test_id, test_ood, 5, 3, train_split)
    assert samples.num_passes == (5 if dropout_rate else 1)
    detector = fit_mahalanobis(penultimate_features(model, train_split.features),
                               train_split.labels)
    for scores, split in zip(pops["mahalanobis"], (test_id, test_ood)):
        expected = mahalanobis_score(detector, penultimate_features(model, split.features))
        assert scores.tobytes() == expected.tobytes()


_seeds = st.integers(0, 2**63 - 1)


@settings(max_examples=40, deadline=None)
@given(seed=_seeds, mc_seed=_seeds, width=st.integers(1, 8),
       dropout_rate=st.sampled_from([0.0, 0.3]), passes=st.integers(1, 5))
def test_predictive_path_without_mc_is_one_eval_pass(
    tiny_benchmark, seed, mc_seed, width, dropout_rate, passes
):
    assume(dropout_rate == 0.0 or passes == 1)
    model = init_mlp([2, width, 3], dropout_rate, seed=seed)
    for split in (tiny_benchmark["test_id"], tiny_benchmark["test_ood"]):
        samples = predictive_samples(model, split.features, passes, mc_seed)
        assert samples.num_passes == 1
        logits, _ = forward(model, split.features, mode="eval")
        assert samples.mean_probs().tobytes() == softmax(logits).tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=_seeds, eval_seed=_seeds, width=st.integers(1, 8),
       dropout_rate=st.floats(0.05, 0.9), passes=st.integers(2, 6))
def test_predictive_path_with_mc_repeats_for_a_seed(
    tiny_benchmark, seed, eval_seed, width, dropout_rate, passes
):
    model = init_mlp([2, width, 3], dropout_rate, seed=seed)
    splits = (tiny_benchmark["test_id"], tiny_benchmark["test_ood"])
    first, samples = score_populations(model, *splits, passes, eval_seed)
    again, _ = score_populations(model, *splits, passes, eval_seed)
    assert samples.num_passes == passes
    for a, b in zip(first["entropy"], again["entropy"]):
        assert a.tobytes() == b.tobytes()
    # the ID split draws from mc_seed, the OOD split from its own stream
    mc_seed = derive_seed(eval_seed, STREAM_MC)
    for scores, split, split_seed in zip(
        first["entropy"], splits, (mc_seed, derive_seed(mc_seed, 1))
    ):
        expected = entropy_score(predictive_samples(model, split.features, passes,
                                                    split_seed))
        assert scores.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=_seeds, mc_seed=_seeds, width=st.integers(1, 8),
       dropout_rate=st.sampled_from([0.0, 0.2, 0.6]), passes=st.integers(1, 6))
def test_predictive_path_mutual_information_is_nonnegative(
    tiny_benchmark, seed, mc_seed, width, dropout_rate, passes
):
    model = init_mlp([2, width, 3], dropout_rate, seed=seed)
    for split in (tiny_benchmark["test_id"], tiny_benchmark["test_ood"]):
        samples = predictive_samples(model, split.features, passes, mc_seed)
        assert mutual_information_score(samples).min() >= -1e-12


def test_evaluate_deterministic_model_flags_degenerate_mi(tiny_benchmark):
    model = init_mlp([2, 8, 3], seed=2)
    report = evaluate_model(model, tiny_benchmark)
    assert report.auc["mutual_information"] == 50.0
    assert any("mutual_information" in w for w in report.warnings)
    assert set(report.auc) == {"confidence", "entropy", "mutual_information"}
    assert report.mce is None


def test_evaluate_mc_on_dropout_free_model_warns(tiny_benchmark):
    model = init_mlp([2, 8, 3], seed=2)
    report = evaluate_model(model, tiny_benchmark, mc_passes=10)
    assert any("dropout_rate 0" in w for w in report.warnings)
    assert report.auc["mutual_information"] == 50.0


def test_evaluate_mc_dropout_model_is_clean(tiny_benchmark):
    model = init_mlp([2, 8, 3], dropout_rate=0.3, seed=2)
    report = evaluate_model(model, tiny_benchmark, mc_passes=10, seed=0)
    assert report.warnings == []
    for v in report.auc.values():
        assert 0.0 <= v <= 100.0


def test_evaluate_optional_blocks(tiny_benchmark):
    model = init_mlp([2, 8, 3], seed=2)
    report = evaluate_model(
        model, tiny_benchmark, with_mahalanobis=True, with_corruptions=True
    )
    assert "mahalanobis" in report.auc
    assert report.mce is not None and report.mce >= 0.0
    bare = {k: v for k, v in tiny_benchmark.items() if k != "train"}
    with pytest.raises(ValueError, match="train"):
        evaluate_model(model, bare, with_mahalanobis=True)


def test_evaluate_missing_test_split(tiny_benchmark):
    model = init_mlp([2, 8, 3], seed=2)
    bare = {k: v for k, v in tiny_benchmark.items() if k != "test_ood"}
    with pytest.raises(ValueError, match="test_ood"):
        evaluate_model(model, bare)


def test_run_experiment_end_to_end(tiny_benchmark):
    cfg = TrainConfig(objective="ce", epochs=2, seed=0)
    model, history, report = run_experiment(cfg, tiny_benchmark)
    assert len(history.records) == 2
    assert 0.0 <= report.id_accuracy <= 100.0
    assert model.num_classes == 3
    bare = {k: v for k, v in tiny_benchmark.items() if k != "test_id"}
    with pytest.raises(ValueError, match="test_id"):
        run_experiment(cfg, bare)
