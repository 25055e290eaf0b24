import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oodkit import objectives
from oodkit.datasynth import CORRUPTION_KINDS, SEVERITIES
from oodkit.metrics import accuracy, classify
from oodkit.nn import forward, init_mlp, softmax
from oodkit.scores import (
    mutual_information_score,
    penultimate_features,
    predictive_samples,
)
from oodkit.seeding import STREAM_DROPOUT, derive_seed
from oodkit.trainer import (
    TrainConfig,
    TrainingDiverged,
    corruption_error_table,
    default_config,
    evaluate_model,
    init_model,
    predictive_samples_pair,
    run_experiment,
    sweep,
    train,
)
import oodkit.trainer as trainer_mod

OBJECTIVES = ("ce", "ce_l1", "ce_cosine", "cosine_margin", "outlier_exposure")


def fresh_model(config: TrainConfig, benchmark) -> "trainer_mod.MlpModel":
    return init_model(config, benchmark["train"].features.shape[1])


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
    # installed on the module, such as the benchmark's tracing spans
    calls = []
    for name in ("cross_entropy_loss", "ce_cosine_loss"):
        def counting(*args, _name=name, _loss=getattr(objectives, name)):
            calls.append(_name)
            return _loss(*args)

        monkeypatch.setattr(objectives, name, counting)
    for objective, loss in (("ce", "cross_entropy_loss"),
                            ("ce_cosine", "ce_cosine_loss")):
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

    from oodkit.nn import one_thread_per_process

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
        assert StandInPool.made == [
            {"max_workers": pool_size, "initializer": one_thread_per_process}
        ]


def test_train_and_evaluate_run_blas_on_one_thread(tiny_benchmark, monkeypatch):
    from oodkit.nn import set_blas_threads

    def blas_count():
        count = set_blas_threads(1)
        if count is None:
            pytest.skip("numpy's BLAS exports no thread-count symbols")
        set_blas_threads(count)
        return count

    seen = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            seen.append((fn.__name__, blas_count()))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(trainer_mod, "forward", spy(trainer_mod.forward))
    monkeypatch.setattr(trainer_mod, "predictive_samples",
                        spy(trainer_mod.predictive_samples))
    before = set_blas_threads(2)
    if before is None:
        pytest.skip("numpy's BLAS exports no thread-count symbols")
    try:
        config = dataclasses.replace(default_config("ce_cosine"), epochs=1)
        trained, _ = train(config, tiny_benchmark, fresh_model(config, tiny_benchmark))
        assert blas_count() == 2
        assert set(seen) == {("forward", 1), ("predictive_samples", 1)}
        seen.clear()
        evaluate_model(trained, tiny_benchmark, mc_passes=3)
        assert blas_count() == 2
        assert set(seen) == {("predictive_samples", 1)}
    finally:
        set_blas_threads(before)


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


def test_predictive_samples_pair_modes(tiny_benchmark):
    test_id, test_ood = tiny_benchmark["test_id"], tiny_benchmark["test_ood"]
    det = init_mlp([2, 8, 3], seed=1)
    pair = predictive_samples_pair(det, test_id, test_ood, 5, 3)
    for (samples, features), split in zip(pair, (test_id, test_ood)):
        assert samples.num_passes == 1
        np.testing.assert_array_equal(
            features, penultimate_features(det, split.features)
        )

    mc = init_mlp([2, 8, 3], dropout_rate=0.3, seed=1)
    (a_id, f_id), (a_ood, f_ood) = predictive_samples_pair(mc, test_id, test_ood, 5, 3)
    assert a_id.num_passes == 5 and a_ood.num_passes == 5
    assert f_id is None and f_ood is None
    (b_id, _), (b_ood, _) = predictive_samples_pair(mc, test_id, test_ood, 5, 3)
    np.testing.assert_array_equal(a_id.probs, b_id.probs)
    np.testing.assert_array_equal(a_ood.probs, b_ood.probs)
    # a dropout model with a single pass stays deterministic
    (one_id, features), _ = predictive_samples_pair(mc, test_id, test_ood, 1, 3)
    assert one_id.num_passes == 1 and features is not None


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
        samples, trace = predictive_samples(model, split.features, passes, mc_seed)
        assert samples.num_passes == 1
        logits, expected = forward(model, split.features, mode="eval")
        np.testing.assert_array_equal(samples.probs[0], softmax(logits))
        np.testing.assert_array_equal(
            trace.penultimate_features, expected.penultimate_features
        )


@settings(max_examples=30, deadline=None)
@given(seed=_seeds, mc_seed=_seeds, width=st.integers(1, 8),
       dropout_rate=st.floats(0.05, 0.9), passes=st.integers(2, 6))
def test_predictive_path_with_mc_repeats_for_a_seed(
    tiny_benchmark, seed, mc_seed, width, dropout_rate, passes
):
    model = init_mlp([2, width, 3], dropout_rate, seed=seed)
    splits = (tiny_benchmark["test_id"], tiny_benchmark["test_ood"])
    first = predictive_samples_pair(model, *splits, passes, mc_seed)
    again = predictive_samples_pair(model, *splits, passes, mc_seed)
    for (a, features), (b, _) in zip(first, again):
        assert a.num_passes == passes and features is None
        np.testing.assert_array_equal(a.probs, b.probs)
    # the ID split draws from mc_seed, the OOD split from its own stream
    for (samples, _), split, split_seed in zip(
        first, splits, (mc_seed, derive_seed(mc_seed, 1))
    ):
        np.testing.assert_array_equal(
            samples.probs,
            predictive_samples(model, split.features, passes, split_seed)[0].probs,
        )


@settings(max_examples=40, deadline=None)
@given(seed=_seeds, mc_seed=_seeds, width=st.integers(1, 8),
       dropout_rate=st.sampled_from([0.0, 0.2, 0.6]), passes=st.integers(1, 6))
def test_predictive_path_mutual_information_is_nonnegative(
    tiny_benchmark, seed, mc_seed, width, dropout_rate, passes
):
    model = init_mlp([2, width, 3], dropout_rate, seed=seed)
    for split in (tiny_benchmark["test_id"], tiny_benchmark["test_ood"]):
        samples, _ = predictive_samples(model, split.features, passes, mc_seed)
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
