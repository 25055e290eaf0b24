import ctypes
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
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
    ForwardTrace,
    MlpModel,
    ModelFileError,
    OptimizerState,
    backward,
    blas_threads,
    eval_logits,
    forward,
    forward_into,
    init_mlp,
    load_model,
    mc_dropout_blocks,
    one_blas_thread,
    pass_threads,
    row_sums,
    save_model,
    set_blas_threads,
    sgd_step,
    softmax,
)

from _gradcheck import rel_error
from _reference import mc_dropout_probs


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
    # int() used to truncate a fractional size and read True as 1
    m = small_model()
    for dims in ([2, 5.5, 4, 3], [2, 5, 4.0, 3], [2, True, 4, 3]):
        with pytest.raises(ValueError, match="integers >= 1"):
            init_mlp(dims, seed=0)
        with pytest.raises(ValueError, match="integers >= 1"):
            MlpModel(dims, m.weights, m.biases)
    assert init_mlp(np.array([2, 5, 4, 3]), seed=3).layer_dims == m.layer_dims


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


def reference_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 2000),
    k=st.integers(2, 20),
    log_scale=st.integers(-3, 299),
    tie_share=st.sampled_from([0.0, 0.3, 0.9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_softmax_bytes_equal_the_reference_formula(rows, k, log_scale, tie_share, seed):
    # the column-wise row max must leave every output bit as it was
    rng = np.random.default_rng(seed)
    z = np.clip(rng.normal(scale=10.0**log_scale, size=(rows, k)), -1e300, 1e300)
    pool = np.concatenate([[0.0, -0.0, 1e300, -1e300], rng.choice(z.ravel(), 3)])
    ties = rng.random(z.shape) < tie_share
    z[ties] = rng.choice(pool, size=int(ties.sum()))
    assert softmax(z).tobytes() == reference_softmax(z).tobytes()
    # a column-major input sums its rows in another order, from 8 columns on
    z_f = np.asfortranarray(z)
    assert softmax(z_f).tobytes() == reference_softmax(z_f).tobytes()


# values where the order of a sum shows: signed zeros, subnormals, and
# magnitudes whose sums overflow or cancel
ROW_SUM_VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1e-300,
     1e16, -1e16, 0.1, 1.0 / 3.0])


@settings(max_examples=300, deadline=None)
@given(
    lead=st.sampled_from([(), (3,)]),
    rows=st.integers(1, 9),
    k=st.integers(1, 7),
    data=st.data(),
    one_hot=st.booleans(),
    fortran=st.booleans(),
)
def test_row_sums_equal_numpy_below_8_columns(lead, rows, k, data, one_hot, fortran):
    # 2-D and 3-D arrays, in either memory order
    z = data.draw(hnp.arrays(np.float64, lead + (rows, k), elements=st.one_of(
        ROW_SUM_VALUES, st.floats(-1e300, 1e300, allow_subnormal=True))))
    if one_hot:
        z[...] = -0.0
        z[..., data.draw(st.integers(0, k - 1))] = 1.0
    if fortran:
        z = np.asfortranarray(z)
    assert row_sums(z).shape == z.shape[:-1]
    assert row_sums(z).tobytes() == z.sum(axis=-1).tobytes()


def test_row_sums_match_numpy_where_the_order_shows():
    # numpy adds a short row into +0.0, so a row of -0.0 sums to +0.0
    z = np.full((2, 3), -0.0)
    assert not np.signbit(row_sums(z)).any()
    # and sums 8 or more columns pairwise, not left to right
    row = np.array([[1.0, 1e16, -1e16, 1.0, 0.0, 0.0, 0.0, 0.0]])
    assert row_sums(row)[0] == row.sum() == 0.0 != ((1.0 + 1e16) - 1e16) + 1.0


@settings(max_examples=100, deadline=None)
@given(k=st.integers(8, 40), seed=st.integers(0, 2**32 - 1))
def test_row_sums_equal_numpy_from_8_columns(k, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(5, k)) * 10.0 ** rng.integers(-20, 20, size=(5, k))
    assert row_sums(z).tobytes() == z.sum(axis=-1).tobytes()


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
# the in-place kernels against the expressions they replaced
# ---------------------------------------------------------------------------


def reference_forward(model: MlpModel, x, seed):
    """forward's arithmetic, one new array per operation."""
    rng = None if seed is None else np.random.default_rng(seed)
    pre, hidden, masks = [], [], []
    a = x
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        pre.append(z)
        if l == len(model.weights) - 1:
            break
        h = np.maximum(z, 0.0)
        mask = None
        if rng is not None:
            keep = 1.0 - model.dropout_rate
            mask = (rng.random(h.shape) < keep).astype(np.float64) / keep
            h = h * mask
        masks.append(mask)
        hidden.append(h)
        a = h
    return pre, hidden, masks


def reference_backward(model: MlpModel, x, pre, hidden, masks, dz):
    grads_w, grads_b = [None] * len(pre), [None] * len(pre)
    for l in reversed(range(len(pre))):
        grads_w[l] = dz.T @ (x if l == 0 else hidden[l - 1])
        grads_b[l] = dz.sum(axis=0)
        if l > 0:
            da = dz @ model.weights[l]
            if masks[l - 1] is not None:
                da = da * masks[l - 1]
            dz = da * (pre[l - 1] > 0.0)
    return grads_w, grads_b


def assert_same_bytes(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert (a is None) == (e is None)
        if a is not None:
            assert a.shape == e.shape and a.tobytes() == e.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    dims=st.lists(st.integers(1, 9), min_size=2, max_size=4),
    rows=st.integers(1, 70),
    dropout=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_layer_kernels_equal_the_reference_expressions(dims, rows, dropout, seed):
    # 0-2 hidden layers; forward, backward and one SGD update must keep
    # every bit of the expressions the in-place kernels replaced
    rng = np.random.default_rng(seed)
    model = init_mlp(dims, dropout_rate=dropout, seed=seed % 1000)
    for b in model.biases:
        b[:] = rng.normal(size=b.shape)
    x = rng.normal(size=(rows, dims[0]))
    mask_seed = seed if dropout > 0 else None
    logits, trace = forward(model, x, "train", mask_seed)
    pre, hidden, masks = reference_forward(model, x, mask_seed)
    assert logits is trace.pre_activations[-1]
    assert_same_bytes(trace.pre_activations, pre)
    assert_same_bytes(trace.hidden_activations, hidden)
    assert_same_bytes(trace.masks, masks)

    dz = rng.normal(size=logits.shape)
    grads = backward(model, trace, dz)
    ref_w, ref_b = reference_backward(model, x, pre, hidden, masks, dz)
    assert_same_bytes(grads.weights, ref_w)
    assert_same_bytes(grads.biases, ref_b)

    lr, mu, wd = 0.05, 0.9, 3e-3
    state = OptimizerState.zeros(model, lr, mu, wd)
    for v in state.velocity_w + state.velocity_b:
        v[:] = rng.normal(size=v.shape)
    expected = []
    for w, g, v in zip(model.weights + model.biases, ref_w + ref_b,
                       state.velocity_w + state.velocity_b):
        v_new = v * mu
        v_new += g + wd * w
        expected.append((w - lr * v_new, v_new))
    sgd_step(model, grads, state)
    assert_same_bytes(model.weights + model.biases, [w for w, _ in expected])
    assert_same_bytes(state.velocity_w + state.velocity_b, [v for _, v in expected])


@settings(max_examples=60, deadline=None)
@given(
    hidden=st.sampled_from([(), (8,), (8, 8), (8, 16, 8), (16, 8, 16)]),
    rows=st.integers(1, 600),
    dropout=st.sampled_from([0.0, 0.4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_eval_logits_equal_the_eval_forward(hidden, rows, dropout, seed):
    # the two alternating buffers and the in-place ReLU keep every bit
    rng = np.random.default_rng(seed)
    model = init_mlp([2, *hidden, 3], dropout_rate=dropout, seed=seed % 1000)
    for b in model.biases:
        b[:] = rng.normal(size=b.shape)
    x = rng.normal(scale=3.0, size=(rows, 2))
    logits = eval_logits(model, x)
    expected, _ = forward(model, x, "eval")
    assert logits.shape == expected.shape
    assert logits.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    size=st.integers(1, 64),
    # keep = 1 - dropout_rate, from every rate a model accepts
    rate=st.floats(0.0, 1.0, exclude_max=True),
)
def test_both_mask_forms_hold_the_same_bits(data, size, rate):
    # ±0.0, subnormals, ±inf and NaNs of any payload; tobytes compares
    # NaNs by their bits
    h = data.draw(hnp.arrays(np.float64, size, elements=st.floats(allow_subnormal=True)))
    m = data.draw(hnp.arrays(np.float64, size, elements=st.sampled_from([0.0, 1.0])))
    keep = 1.0 - rate
    r = np.random.default_rng(size).random(size)
    assert ((r < keep) * (1.0 / keep)).tobytes() == ((r < keep) / keep).tobytes()
    s = 1.0 / keep
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, h * s
        assert ((h * m) * s).tobytes() == (h * (m * s)).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    hidden=st.sampled_from([(8,), (8, 8), (8, 16, 8), (16, 8, 16)]),
    rows=st.integers(1, 300),
    dropout=st.sampled_from([0.0, 0.2, 0.7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_kernel_on_two_buffers_is_the_train_forward(hidden, rows, dropout, seed):
    # from layer 0 on the inputs, and from layer 1 on layer 0's output,
    # which it leaves as it found it
    model = init_mlp([2, *hidden, 3], dropout_rate=dropout, seed=seed % 1000)
    x = np.random.default_rng(seed).normal(scale=3.0, size=(rows, 2))
    expected, _ = forward(model, x, "train", seed)
    h0 = np.maximum(x @ model.weights[0].T + model.biases[0], 0.0)
    before = h0.tobytes()
    for start, inputs in ((0, x), (1, h0)):
        trace = ForwardTrace.two_buffers(model, inputs, np.empty((rows, 3)), dropout > 0)
        rng = np.random.default_rng(seed) if dropout > 0 else None
        logits = forward_into(model, trace, rng, start=start)
        assert logits is trace.pre_activations[-1]
        assert logits.tobytes() == expected.tobytes(), start
    assert h0.tobytes() == before


def test_eval_logits_checks_its_inputs():
    model = init_mlp([2, 8, 3], seed=0)
    with pytest.raises(ValueError, match="input columns"):
        eval_logits(model, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        eval_logits(model, np.array([[0.0, np.nan]]))


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


def readable_blas_threads() -> int:
    count = blas_threads()
    if count is None:
        pytest.skip("numpy's BLAS exports no thread-count symbols")
    return count


def test_one_blas_thread_restores_the_previous_count():
    before = readable_blas_threads()
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
    before = readable_blas_threads()
    real_count = nn_mod._blas_thread_functions()[0]
    set_blas_threads(2)
    try:
        monkeypatch.setattr(nn_mod, "BLAS_THREAD_SYMBOLS",
                            ("no_such_getter", "no_such_setter"))
        assert blas_threads() is None
        assert set_blas_threads(1) is None
        with one_blas_thread():
            assert real_count() == 2
        assert real_count() == 2
    finally:
        monkeypatch.undo()
        set_blas_threads(before)


def test_blas_symbols_are_looked_up_once_per_process(monkeypatch):
    readable_blas_threads()
    opened = []
    real_cdll = ctypes.CDLL

    def counting_cdll(*args, **kwargs):
        opened.append(args)
        return real_cdll(*args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", counting_cdll)
    before = blas_threads()
    for _ in range(50):
        set_blas_threads(set_blas_threads(1))
        with one_blas_thread():
            assert blas_threads() == 1
    assert blas_threads() == before
    assert opened == []


def test_one_blas_thread_survives_overlapping_bodies_on_two_threads():
    # A enters, B enters, A leaves while B's body still runs, B leaves
    before = readable_blas_threads()
    set_blas_threads(2)
    a_in, a_out, b_in = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def body_a():
        with one_blas_thread():
            a_in.set()
            assert b_in.wait(10)
        a_out.set()

    def body_b():
        assert a_in.wait(10)
        with one_blas_thread():
            b_in.set()
            assert a_out.wait(10)
            seen["inside B after A exits"] = blas_threads()

    try:
        threads = [threading.Thread(target=f) for f in (body_a, body_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
            assert not t.is_alive()
        seen["after both"] = blas_threads()
        assert seen == {"inside B after A exits": 1, "after both": 2}
    finally:
        set_blas_threads(before)


def test_import_leaves_the_blas_thread_count_alone():
    readable_blas_threads()  # skips where the count cannot be read
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


def test_import_loads_no_multiprocessing():
    code = "import sys, oodkit, oodkit.cli\nprint('multiprocessing' in sys.modules)\n"
    src = os.path.dirname(os.path.dirname(nn_mod.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["False"]


# ---------------------------------------------------------------------------
# MC-dropout pass threads
# ---------------------------------------------------------------------------


PASS_MODELS = {
    "two hidden layers": init_mlp([2, 16, 8, 3], dropout_rate=0.3, seed=1),
    "nine classes": init_mlp([2, 12, 9], dropout_rate=0.5, seed=2),
    "dropout 0": init_mlp([2, 16, 8, 3], dropout_rate=0.0, seed=3),
    "no hidden layer": init_mlp([2, 3], dropout_rate=0.3, seed=4),
}


@pytest.mark.parametrize("name", PASS_MODELS)
def test_mc_passes_do_not_depend_on_the_thread_count(name, monkeypatch):
    model = PASS_MODELS[name]
    x = np.random.default_rng(5).normal(scale=3.0, size=(57, 2))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for passes in (1, 2, 3, 31):
            seeds = [1000 + t for t in range(passes)]
            expected = np.stack([
                softmax(forward(model, x, "train", seed)[0]) for seed in seeds
            ])
            # 8 is more threads than this machine's cores
            for threads in (1, 2, 8):
                monkeypatch.setattr(nn_mod, "pass_threads", lambda size: threads)
                probs = mc_dropout_probs(model, x, seeds)
                assert probs.tobytes() == expected.tobytes(), (passes, threads)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("name", PASS_MODELS)
def test_mc_blocks_are_the_stack_in_pass_order(name, monkeypatch):
    model = PASS_MODELS[name]
    x = np.random.default_rng(6).normal(scale=3.0, size=(23, 2))
    seeds = [500 + t for t in range(31)]
    expected = mc_dropout_probs(model, x, seeds)
    for threads in (1, 2):
        monkeypatch.setattr(nn_mod, "pass_threads", lambda size: threads)
        for block_passes in (1, 4, 16, 31, 40):
            blocks = [block.copy() for block in
                      mc_dropout_blocks(model, x, seeds, block_passes)]
            assert [len(b) for b in blocks[:-1]] == [block_passes] * (len(blocks) - 1)
            stack = np.concatenate(blocks)
            assert stack.tobytes() == expected.tobytes(), (threads, block_passes)


def test_mc_blocks_keep_one_pool_and_join_it_when_closed(monkeypatch):
    made = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(nn_mod, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(nn_mod, "pass_threads", lambda size: 2)
    model = init_mlp([2, 8, 8, 3], dropout_rate=0.2, seed=0)
    x = np.random.default_rng(0).normal(size=(20, 2))
    before = threading.active_count()
    assert len(list(mc_dropout_blocks(model, x, list(range(9)), 2))) == 5
    assert made == [{"max_workers": 1}]
    assert threading.active_count() == before
    blocks = mc_dropout_blocks(model, x, list(range(9)), 2)
    next(blocks)
    blocks.close()
    assert threading.active_count() == before
    for seeds, block_passes in (([], 4), ([1, 2], 0)):
        with pytest.raises(ValueError, match="at least one seed"):
            next(mc_dropout_blocks(model, x, seeds, block_passes))


def test_mc_passes_leave_no_thread_behind(monkeypatch):
    monkeypatch.setattr(nn_mod, "pass_threads", lambda size: 4)
    model = init_mlp([2, 8, 8, 3], dropout_rate=0.2, seed=0)
    x = np.random.default_rng(0).normal(size=(20, 2))
    before = threading.active_count()
    mc_dropout_probs(model, x, list(range(9)))
    assert threading.active_count() == before
    # layer 0 stays finite, so the overflow happens inside the passes
    model.weights[1] *= 1e300
    model.weights[2] *= 1e300
    # the workers run under the caller's numpy error state: no warning,
    # only the finite check's error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            mc_dropout_probs(model, x, list(range(9)))
    assert caught == []
    assert threading.active_count() == before
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        mc_dropout_probs(model, x, list(range(9)))
    assert threading.active_count() == before


class WorkerFailingSeeds(list):
    """Seeds that the calling thread reads slowly and no other thread can
    read, so other threads take passes and fail on them."""

    def __getitem__(self, t):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("pass failed on a worker thread")
        time.sleep(0.001)
        return super().__getitem__(t)


def test_a_pass_failing_on_a_worker_thread_fails_the_call(monkeypatch):
    monkeypatch.setattr(nn_mod, "pass_threads", lambda size: 2)
    model = init_mlp([2, 8, 8, 3], dropout_rate=0.2, seed=0)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker thread"):
        mc_dropout_probs(model, np.ones((5, 2)), WorkerFailingSeeds(range(31)))
    assert threading.active_count() == before


def test_a_pass_is_sized_by_rows_times_masked_units(monkeypatch):
    sizes = []

    def recording_threads(size):
        sizes.append(size)
        return 2

    monkeypatch.setattr(nn_mod, "pass_threads", recording_threads)
    model = init_mlp([2, 16, 8, 3], dropout_rate=0.2, seed=0)
    mc_dropout_probs(model, np.ones((57, 2)), list(range(4)))
    assert sizes == [57 * (16 + 8)]


def test_small_passes_run_on_the_calling_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was made")

    monkeypatch.setattr(nn_mod, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(nn_mod, "available_cpus", lambda: 8)
    model = init_mlp([2, 64, 64, 3], dropout_rate=0.2, seed=0)
    rows = nn_mod.MIN_THREADED_PASS_SIZE // 128 - 1
    with one_blas_thread():
        mc_dropout_probs(model, np.ones((rows, 2)), list(range(30)))


def test_passes_get_threads_only_where_blas_is_pinned(monkeypatch):
    before = readable_blas_threads()
    made = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(nn_mod, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(nn_mod, "available_cpus", lambda: 2)
    model = init_mlp([2, 64, 64, 3], dropout_rate=0.2, seed=0)
    x = np.random.default_rng(0).normal(size=(nn_mod.MIN_THREADED_PASS_SIZE // 128 + 1, 2))
    seeds = list(range(8))
    set_blas_threads(2)
    try:
        # a direct call at the default count: pass threads on top of BLAS
        # threads would oversubscribe the CPUs
        unpinned = mc_dropout_probs(model, x, seeds)
        assert made == []
        with one_blas_thread():
            pinned = mc_dropout_probs(model, x, seeds)
        assert made == [{"max_workers": 1}]
    finally:
        set_blas_threads(before)
    assert pinned.tobytes() == unpinned.tobytes()


def test_pass_threads_follow_the_cpus_up_to_the_cap(monkeypatch):
    big = nn_mod.MIN_THREADED_PASS_SIZE
    before = readable_blas_threads()
    set_blas_threads(2)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(nn_mod, "available_cpus", lambda: 64)
            assert pass_threads(big) == 1
        with one_blas_thread():
            assert pass_threads(big) == min(nn_mod.MAX_PASS_THREADS, nn_mod.available_cpus())
            assert pass_threads(big - 1) == 1
            for cpus in (1, 2, 64):
                monkeypatch.setattr(nn_mod, "available_cpus", lambda: cpus)
                assert pass_threads(big) == min(cpus, nn_mod.MAX_PASS_THREADS)
    finally:
        set_blas_threads(before)


def test_passes_run_on_one_thread_where_the_blas_count_cannot_be_read(monkeypatch):
    monkeypatch.setattr(nn_mod, "available_cpus", lambda: 2)
    with one_blas_thread(), monkeypatch.context() as patch:
        patch.setattr(nn_mod, "BLAS_THREAD_SYMBOLS", ("no_such_getter", "no_such_setter"))
        assert pass_threads(nn_mod.MIN_THREADED_PASS_SIZE) == 1


def test_passes_run_where_the_os_reports_no_affinity(monkeypatch):
    model = init_mlp([2, 64, 64, 3], dropout_rate=0.2, seed=0)
    x = np.random.default_rng(0).normal(size=(300, 2))
    expected = mc_dropout_probs(model, x, list(range(5)))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert nn_mod.available_cpus() == (os.cpu_count() or 1)
    with one_blas_thread():
        assert mc_dropout_probs(model, x, list(range(5))).tobytes() == expected.tobytes()


def pinned_pass_threads() -> int:
    with one_blas_thread():
        return pass_threads(nn_mod.MIN_THREADED_PASS_SIZE)


def test_pool_workers_run_passes_on_one_thread(monkeypatch):
    readable_blas_threads()  # skips where the count cannot be read
    # forked workers inherit the patch, so only pool membership differs
    monkeypatch.setattr(nn_mod, "available_cpus", lambda: 2)
    assert pinned_pass_threads() == 2
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(pinned_pass_threads).result(timeout=60) == 1
