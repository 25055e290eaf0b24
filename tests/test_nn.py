import ctypes
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oodkit.nn as nn_mod
from oodkit.nn import (
    BLAS_THREAD_SYMBOLS,
    DivergenceError,
    MlpModel,
    ModelFileError,
    OptimizerState,
    backward,
    forward,
    init_mlp,
    load_model,
    one_blas_thread,
    save_model,
    set_blas_threads,
    sgd_step,
    softmax,
)

from _gradcheck import rel_error


def small_model(dropout: float = 0.0, seed: int = 3) -> MlpModel:
    return init_mlp([2, 5, 4, 3], dropout_rate=dropout, seed=seed)


# ---------------------------------------------------------------------------
# initialisation
# ---------------------------------------------------------------------------


def test_init_deterministic():
    a = init_mlp([2, 64, 64, 3], seed=7)
    b = init_mlp([2, 64, 64, 3], seed=7)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_init_biases_zero():
    m = init_mlp([2, 3], seed=11)
    for b in m.biases:
        np.testing.assert_array_equal(b, np.zeros_like(b))


def test_init_he_variance_first_layer():
    # fan_in = 2 so the target variance is 2/2 = 1, sampled over 128 entries
    m = init_mlp([2, 64, 64, 3], seed=0)
    assert abs(m.weights[0].var() - 1.0) < 0.2


def test_init_he_variance_all_layers_averaged():
    # the per-layer sample variance concentrates once averaged over seeds
    dims = [2, 64, 64, 3]
    sums = np.zeros(len(dims) - 1)
    n_seeds = 20
    for seed in range(n_seeds):
        m = init_mlp(dims, seed=seed)
        for l, w in enumerate(m.weights):
            sums[l] += w.var()
    for l, fan_in in enumerate(dims[:-1]):
        assert abs(sums[l] / n_seeds - 2.0 / fan_in) < 0.1 * (2.0 / fan_in)


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        init_mlp([3], seed=0)
    with pytest.raises(ValueError):
        init_mlp([2, 0, 3], seed=0)


def test_model_validation():
    m = small_model()
    with pytest.raises(ValueError):
        MlpModel([2, 3], m.weights, m.biases)  # layer count mismatch
    with pytest.raises(ValueError):
        MlpModel(m.layer_dims, m.weights, m.biases, dropout_rate=1.0)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_zero_model_gives_zero_logits():
    m = small_model()
    for w in m.weights:
        w[:] = 0.0
    logits, _ = forward(m, np.random.default_rng(0).normal(size=(6, 2)))
    np.testing.assert_array_equal(logits, np.zeros((6, 3)))


def test_forward_eval_is_pure():
    m = small_model()
    x = np.random.default_rng(1).normal(size=(5, 2))
    a, _ = forward(m, x)
    b, _ = forward(m, x)
    np.testing.assert_array_equal(a, b)


def test_forward_dropout_zero_train_equals_eval():
    m = small_model(dropout=0.0)
    x = np.random.default_rng(2).normal(size=(5, 2))
    ev, _ = forward(m, x, mode="eval")
    tr, _ = forward(m, x, mode="train", seed=9)
    np.testing.assert_array_equal(ev, tr)


def test_forward_rejects_bad_inputs():
    m = small_model()
    with pytest.raises(ValueError):
        forward(m, np.zeros((4, 3)))  # wrong input width
    with pytest.raises(ValueError):
        forward(m, np.zeros(4))  # not a batch
    with pytest.raises(ValueError):
        forward(m, np.zeros((2, 2)), mode="banana")
    with pytest.raises(ValueError):
        forward(m, np.full((2, 2), np.nan))


def test_forward_dropout_requires_seed():
    m = small_model(dropout=0.5)
    with pytest.raises(ValueError):
        forward(m, np.zeros((2, 2)), mode="train")


def test_forward_dropout_masks_recorded():
    m = small_model(dropout=0.5)
    x = np.random.default_rng(3).normal(size=(7, 2))
    _, trace = forward(m, x, mode="train", seed=12)
    keep = 1.0 - m.dropout_rate
    for mask in trace.masks:
        assert mask is not None
        assert set(np.unique(mask)) <= {0.0, 1.0 / keep}


def test_dropout_expectation_matches_eval():
    # inverted dropout: E[masked hidden] = eval hidden, so for a single
    # hidden layer the pass-averaged logits converge to the eval logits
    m = init_mlp([2, 16, 3], dropout_rate=0.3, seed=5)
    x = np.random.default_rng(6).normal(size=(4, 2))
    ev, _ = forward(m, x, mode="eval")
    total = np.zeros_like(ev)
    n_passes = 10_000
    for t in range(n_passes):
        logits, _ = forward(m, x, mode="train", seed=t)
        total += logits
    scale = np.abs(ev).max()
    assert np.abs(total / n_passes - ev).max() <= 0.01 * scale


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_uniform():
    np.testing.assert_allclose(
        softmax([[0.0, 0.0, 0.0]]), [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15
    )


def test_softmax_analytic():
    np.testing.assert_allclose(
        softmax([[np.log(2.0), 0.0, 0.0]]), [[0.5, 0.25, 0.25]], atol=1e-12
    )


def test_softmax_large_logits_stable():
    p = softmax([[1000.0, 1000.0, 999.0]])
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    p = softmax(rng.normal(0, 10, size=(50, 6)))
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(20, 4))
    shifted = z + rng.normal(size=(20, 1))
    assert np.abs(softmax(z) - softmax(shifted)).max() <= 1e-12


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_zero_dlogits_gives_zero_grads():
    m = small_model()
    x = np.random.default_rng(7).normal(size=(5, 2))
    logits, trace = forward(m, x)
    grads = backward(m, trace, np.zeros_like(logits))
    for g in grads.weights + grads.biases:
        np.testing.assert_array_equal(g, np.zeros_like(g))


def test_backward_is_pure():
    m = small_model()
    x = np.random.default_rng(8).normal(size=(5, 2))
    logits, trace = forward(m, x)
    a = backward(m, trace, logits)
    b = backward(m, trace, logits)
    for ga, gb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(ga, gb)


def test_backward_shape_mismatch():
    m = small_model()
    _, trace = forward(m, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        backward(m, trace, np.zeros((2, 3)))


@pytest.mark.parametrize("dropout,mode,seed", [(0.0, "eval", None), (0.4, "train", 13)])
def test_backward_matches_finite_differences(dropout, mode, seed):
    # loss = 0.5 * sum(logits^2); perturb every parameter entry. The
    # forward under a fixed seed redraws the same masks, so numeric and
    # analytic gradients see the same subnetwork.
    m = init_mlp([2, 4, 3], dropout_rate=dropout, seed=21)
    x = np.random.default_rng(22).normal(size=(5, 2))

    def loss_value(model: MlpModel) -> float:
        logits, _ = forward(model, x, mode=mode, seed=seed)
        return 0.5 * float((logits**2).sum())

    logits, trace = forward(m, x, mode=mode, seed=seed)
    grads = backward(m, trace, logits)

    h = 1e-5
    for params, analytic in ((m.weights, grads.weights), (m.biases, grads.biases)):
        for arr, g in zip(params, analytic):
            numeric = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss_value(m)
                arr[idx] = orig - h
                down = loss_value(m)
                arr[idx] = orig
                numeric[idx] = (up - down) / (2 * h)
            assert rel_error(g, numeric) <= 1e-4


# ---------------------------------------------------------------------------
# sgd_step
# ---------------------------------------------------------------------------


def constant_grads(m: MlpModel, value: float):
    from oodkit.nn import Gradients

    return Gradients(
        [np.full_like(w, value) for w in m.weights],
        [np.full_like(b, value) for b in m.biases],
    )


def test_sgd_plain_step():
    m = small_model()
    before = [w.copy() for w in m.weights]
    state = OptimizerState.zeros(m, learning_rate=1.0, momentum=0.0)
    sgd_step(m, constant_grads(m, 0.25), state)
    for w, b4 in zip(m.weights, before):
        np.testing.assert_allclose(w, b4 - 0.25, atol=1e-15)


def test_sgd_zero_grad_no_change():
    m = small_model()
    before = [w.copy() for w in m.weights]
    state = OptimizerState.zeros(m, learning_rate=0.5, momentum=0.9)
    for _ in range(3):
        sgd_step(m, constant_grads(m, 0.0), state)
    for w, b4 in zip(m.weights, before):
        np.testing.assert_array_equal(w, b4)


def test_sgd_momentum_two_steps():
    # v1 = g, v2 = 0.9 g + g; displacement = eta * (g + 1.9 g)
    m = small_model()
    before = [w.copy() for w in m.weights]
    eta, g = 0.1, 0.5
    state = OptimizerState.zeros(m, learning_rate=eta, momentum=0.9)
    sgd_step(m, constant_grads(m, g), state)
    sgd_step(m, constant_grads(m, g), state)
    for w, b4 in zip(m.weights, before):
        np.testing.assert_allclose(w, b4 - eta * (g + 1.9 * g), atol=1e-14)


def test_sgd_weight_decay_coupled():
    # v = g + wd * w; single step moves by eta * (g + wd * w0)
    m = small_model()
    before = [w.copy() for w in m.weights]
    eta, g, wd = 0.2, 0.3, 0.1
    state = OptimizerState.zeros(m, learning_rate=eta, momentum=0.0, weight_decay=wd)
    sgd_step(m, constant_grads(m, g), state)
    for w, b4 in zip(m.weights, before):
        np.testing.assert_allclose(w, b4 - eta * (g + wd * b4), atol=1e-14)


def test_sgd_nonfinite_grad_aborts_without_mutation():
    m = small_model()
    before = [w.copy() for w in m.weights]
    state = OptimizerState.zeros(m, learning_rate=0.1)
    grads = constant_grads(m, 1.0)
    grads.weights[1][0, 0] = np.nan
    with pytest.raises(DivergenceError):
        sgd_step(m, grads, state)
    for w, b4 in zip(m.weights, before):
        np.testing.assert_array_equal(w, b4)


def test_optimizer_state_validation():
    m = small_model()
    with pytest.raises(ValueError):
        OptimizerState.zeros(m, learning_rate=-1.0)
    with pytest.raises(ValueError):
        OptimizerState.zeros(m, learning_rate=0.1, momentum=1.0)


# ---------------------------------------------------------------------------
# save / load
# ---------------------------------------------------------------------------


@st.composite
def _models(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    # every finite double, -0.0 and subnormals included
    doubles = st.floats(allow_nan=False, allow_infinity=False)
    weights = [draw(hnp.arrays(np.float64, (dims[l + 1], dims[l]), elements=doubles))
               for l in range(len(dims) - 1)]
    biases = [draw(hnp.arrays(np.float64, d, elements=doubles)) for d in dims[1:]]
    rate = draw(st.floats(0.0, 1.0, exclude_max=True))
    return MlpModel(dims, weights, biases, rate)


@settings(max_examples=60, deadline=None)
@given(_models())
def test_save_load_round_trip_is_bit_exact(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        loaded = load_model(path)
    assert loaded.layer_dims == model.layer_dims
    # tobytes tells -0.0 from 0.0, which assert_array_equal does not
    for a, b in zip(model.weights + model.biases, loaded.weights + loaded.biases):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (np.float64(loaded.dropout_rate).tobytes()
            == np.float64(model.dropout_rate).tobytes())


def test_save_load_round_trip(tmp_path):
    m = small_model(dropout=0.2)
    path = tmp_path / "model.json"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded.layer_dims == m.layer_dims
    assert loaded.dropout_rate == m.dropout_rate
    for wa, wb in zip(m.weights, loaded.weights):
        np.testing.assert_array_equal(wa, wb)
    x = np.random.default_rng(9).normal(size=(6, 2))
    np.testing.assert_array_equal(forward(m, x)[0], forward(loaded, x)[0])


def test_load_truncated_file(tmp_path):
    path = tmp_path / "model.json"
    save_model(small_model(), path)
    path.write_text(path.read_text()[: 40])
    with pytest.raises(ModelFileError):
        load_model(path)


def test_load_wrong_version(tmp_path):
    path = tmp_path / "model.json"
    save_model(small_model(), path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFileError):
        load_model(path)


def test_load_missing_field(tmp_path):
    path = tmp_path / "model.json"
    save_model(small_model(), path)
    doc = json.loads(path.read_text())
    del doc["weights"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFileError):
        load_model(path)


def test_load_inconsistent_shapes(tmp_path):
    path = tmp_path / "model.json"
    save_model(small_model(), path)
    doc = json.loads(path.read_text())
    doc["layer_dims"] = [2, 5, 4, 4]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFileError):
        load_model(path)


# ---------------------------------------------------------------------------
# BLAS thread pin
# ---------------------------------------------------------------------------


def blas_threads() -> int:
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return getattr(lib, BLAS_THREAD_SYMBOLS[0])()
    except (AttributeError, OSError):
        pytest.skip("numpy's BLAS exports no thread-count symbols")


def test_one_blas_thread_restores_the_previous_count():
    before = blas_threads()
    set_blas_threads(2)
    try:
        with one_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 2
        with pytest.raises(KeyError):
            with one_blas_thread():
                assert blas_threads() == 1
                raise KeyError("body failed")
        assert blas_threads() == 2
    finally:
        set_blas_threads(before)


def test_one_blas_thread_is_a_no_op_without_the_symbols(monkeypatch):
    before = blas_threads()
    set_blas_threads(2)
    try:
        monkeypatch.setattr(nn_mod, "BLAS_THREAD_SYMBOLS",
                            ("no_such_getter", "no_such_setter"))
        assert set_blas_threads(1) is None
        with one_blas_thread():
            assert blas_threads() == 2
        assert blas_threads() == 2
    finally:
        monkeypatch.undo()
        set_blas_threads(before)


def test_import_leaves_the_blas_thread_count_alone():
    blas_threads()  # skips where the count cannot be read
    code = (
        "import ctypes, numpy as np\n"
        "lib = ctypes.CDLL(np._core._multiarray_umath.__file__)\n"
        f"get = lib.{BLAS_THREAD_SYMBOLS[0]}\n"
        "before = get()\n"
        "import oodkit, oodkit.cli\n"
        "print(before, get())\n"
    )
    src = os.path.dirname(os.path.dirname(nn_mod.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out[0] == out[1]
