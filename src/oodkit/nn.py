"""Dense ReLU MLP with inverted dropout, plus SGD with momentum.

Everything is plain float64 numpy. Forward passes record a trace with
enough intermediate state for an exact backward pass, including the
dropout masks, so gradients always match the stochastic forward that
produced them.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

MODEL_FORMAT_VERSION = 1

FORWARD_MODES = ("eval", "train")


class DivergenceError(RuntimeError):
    """Non-finite values would have entered model state."""


class ModelFileError(ValueError):
    """Model file is unreadable or internally inconsistent."""


def _as_batch(x, dim: int | None = None) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got shape {x.shape}")
    if dim is not None and x.shape[1] != dim:
        raise ValueError(f"expected {dim} input columns, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite entries in input batch")
    return x


# numpy's bundled OpenBLAS (numpy >= 2 wheels) exports its thread-count
# getter and setter under these names.
BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_set_num_threads64_",
)


def _blas_thread_functions():
    """numpy's OpenBLAS thread-count getter and setter, or None where the
    symbols are not exported."""
    return _load_blas_thread_functions(BLAS_THREAD_SYMBOLS)


# Opening the library and building the function pointers costs about
# 35 us, so it is done once per process for each pair of symbol names.
@functools.cache
def _load_blas_thread_functions(symbols: tuple[str, str]):
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_ = (getattr(lib, name) for name in symbols)
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def blas_threads() -> int | None:
    """numpy's OpenBLAS thread count, or None where it cannot be read."""
    functions = _blas_thread_functions()
    return None if functions is None else functions[0]()


def set_blas_threads(count: int) -> int | None:
    """Set numpy's OpenBLAS thread count and return the previous count.
    Returns None, changing nothing, where the symbols are not exported."""
    functions = _blas_thread_functions()
    if functions is None:
        return None
    get, set_ = functions
    previous = get()
    set_(count)
    return previous


class _BlasPin:
    """The process's one_blas_thread() bodies. The BLAS count is process
    wide, so the first body to enter saves it and pins it to 1, and the
    last to leave restores it, in whatever order bodies on different
    threads enter and leave."""

    lock = threading.Lock()
    entries = 0
    saved: int | None = None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the
    previous count once no body on any thread still runs.

    Every result is the same on any thread count. On matrices this small
    a second thread buys little or no wall time and doubles the CPU time.
    The pin is also what lets pass_threads() give an MC-dropout call more
    than one thread. It needs the OpenBLAS bundled with numpy >= 2; where
    numpy exports no thread-count symbols, the body runs unpinned and MC
    passes run on one thread. A nested body costs a lock and a counter.
    """
    with _BlasPin.lock:
        if _BlasPin.entries == 0:
            _BlasPin.saved = set_blas_threads(1)
        _BlasPin.entries += 1
    try:
        yield
    finally:
        with _BlasPin.lock:
            _BlasPin.entries -= 1
            if _BlasPin.entries == 0 and _BlasPin.saved is not None:
                set_blas_threads(_BlasPin.saved)


@dataclass
class MlpModel:
    """Fully connected ReLU network. weights[l] has shape (dims[l+1], dims[l])."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    dropout_rate: float = 0.0

    def __post_init__(self):
        dims = [int(d) for d in self.layer_dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"layer_dims must be >=2 positive sizes, got {dims}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("weights/biases count does not match layer_dims")
        self.layer_dims = dims
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if w.shape != (dims[l + 1], dims[l]):
                raise ValueError(
                    f"weights[{l}] shape {w.shape} != {(dims[l + 1], dims[l])}"
                )
            if b.shape != (dims[l + 1],):
                raise ValueError(f"biases[{l}] shape {b.shape} != {(dims[l + 1],)}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"non-finite parameters in layer {l}")
            self.weights[l] = w
            self.biases[l] = b

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> "MlpModel":
        return MlpModel(
            layer_dims=list(self.layer_dims),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            dropout_rate=self.dropout_rate,
        )


@dataclass
class ForwardTrace:
    """Intermediate state of one forward pass, consumed by backward()."""

    inputs: np.ndarray
    pre_activations: list[np.ndarray]
    hidden_activations: list[np.ndarray]  # post-ReLU, post-dropout
    masks: list[np.ndarray | None]  # entries are 0 or 1/keep; None when inactive

    @property
    def penultimate_features(self) -> np.ndarray:
        """Input to the final linear layer."""
        if self.hidden_activations:
            return self.hidden_activations[-1]
        return self.inputs

    def layer_input(self, l: int) -> np.ndarray:
        return self.inputs if l == 0 else self.hidden_activations[l - 1]

    @classmethod
    def allocate(cls, model: "MlpModel", inputs: np.ndarray, dropout: bool):
        """A trace of inputs and uninitialised buffers, for forward_into;
        it has mask buffers if dropout is set."""
        pre = [np.empty((len(inputs), d)) for d in model.layer_dims[1:]]
        hidden = [np.empty_like(z) for z in pre[:-1]]
        masks = [np.empty_like(h) if dropout else None for h in hidden]
        return cls(inputs, pre, hidden, masks)


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class OptimizerState:
    """SGD-with-momentum state; weight decay is coupled (added to the gradient)."""

    learning_rate: float
    momentum: float
    weight_decay: float
    velocity_w: list[np.ndarray]
    velocity_b: list[np.ndarray]

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")

    @classmethod
    def zeros(
        cls,
        model: MlpModel,
        learning_rate: float,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> "OptimizerState":
        return cls(
            learning_rate=learning_rate,
            momentum=momentum,
            weight_decay=weight_decay,
            velocity_w=[np.zeros_like(w) for w in model.weights],
            velocity_b=[np.zeros_like(b) for b in model.biases],
        )


def init_mlp(layer_dims, dropout_rate: float = 0.0, seed: int = 0) -> MlpModel:
    """He fan-in initialisation (variance 2/fan_in), zero biases."""
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"layer_dims must be >=2 positive sizes, got {dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(dims, weights, biases, dropout_rate)


def forward(
    model: MlpModel,
    inputs,
    mode: str = "eval",
    seed: int | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Run the network. Returns (logits, trace).

    mode "eval" disables dropout; "train" samples fresh inverted-dropout
    masks from `seed` (required when dropout_rate > 0).
    """
    if mode not in FORWARD_MODES:
        raise ValueError(f"mode must be one of {FORWARD_MODES}, got {mode!r}")
    x = _as_batch(inputs, model.input_dim)
    dropout_active = mode != "eval" and model.dropout_rate > 0.0
    if dropout_active and seed is None:
        raise ValueError(f"mode {mode!r} with dropout requires a seed")
    trace = ForwardTrace.allocate(model, x, dropout_active)
    rng = np.random.default_rng(seed) if dropout_active else None
    logits = forward_into(model, trace, rng)
    return logits, trace


def forward_into(model: MlpModel, trace: ForwardTrace, rng) -> np.ndarray:
    """forward's arithmetic, unchecked, on trace.inputs. Writes every
    layer's outputs into the trace's buffers and returns the logits,
    trace.pre_activations[-1]. With an rng, each hidden layer's dropout
    mask is drawn from it into trace.masks."""
    a = trace.inputs
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        if l > 0:
            a = np.maximum(z, 0.0, out=trace.hidden_activations[l - 1])
            if rng is not None:
                # the mask is 0 or 1/keep, as (r < keep).astype(float) / keep
                keep = 1.0 - model.dropout_rate
                mask = trace.masks[l - 1]
                rng.random(out=mask)
                np.less(mask, keep, out=mask)
                mask /= keep
                a *= mask
        z = np.matmul(a, w.T, out=trace.pre_activations[l])
        z += b
    return z


# The most pass threads measured (on a 2-vCPU host). Larger hosts use no
# more until runs there show that the extra threads pay for themselves.
MAX_PASS_THREADS = 2

# Activations one pass masks (rows times the hidden units it masks) below
# which one thread beat two on a 2-vCPU host: every numpy call hands the
# GIL over, and a small pass is mostly hand-offs.
MIN_THREADED_PASS_SIZE = 32768


def available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has
    one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_cpus() -> int:
    """CPUs this process may spread one call's work over: available_cpus(),
    or 1 in a process that multiprocessing started, such as a sweep
    worker, whose siblings already share the CPUs."""
    # read from sys.modules: `import oodkit` loads no multiprocessing
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return 1
    return available_cpus()


def pass_threads(pass_size: int) -> int:
    """Threads one mc_dropout_probs call may run passes of pass_size
    masked activations on: one per parallel_cpus(), at most
    MAX_PASS_THREADS.

    That is 1 unless numpy's OpenBLAS count reads exactly 1 (inside
    one_blas_thread(), or where the user pinned it; an unreadable count
    gives 1) and the pass masks at least MIN_THREADED_PASS_SIZE
    activations. Pass threads on top of BLAS threads cost more than they
    buy.
    """
    if pass_size < MIN_THREADED_PASS_SIZE or blas_threads() != 1:
        return 1
    return min(MAX_PASS_THREADS, parallel_cpus())


def mc_dropout_probs(model: MlpModel, inputs, seeds) -> np.ndarray:
    """Softmax outputs of one dropout pass per seed, shape (T, N, k).

    Pass t equals softmax(forward(model, inputs, "train", seeds[t])[0])
    bit for bit: it draws the same masks in the same order and does the
    same float operations, only into buffers allocated once per call.
    Layer 0's pre-activation and ReLU precede every mask, so they are
    computed once.

    The passes run on up to pass_threads(...) threads, the calling thread
    among them, and every other thread is joined before the call returns.
    More than one runs only under one_blas_thread() in a process that
    multiprocessing did not start. Each pass owns its generator and its
    logits[t], so the result does not depend on the thread count or on
    which thread ran which pass.
    """
    x = _as_batch(inputs, model.input_dim)
    weights, biases = model.weights, model.biases
    last = len(weights) - 1
    h0 = x @ weights[0].T + biases[0]
    if last > 0:
        np.maximum(h0, 0.0, out=h0)
    logits = np.empty((len(seeds), len(x), model.num_classes))
    if last == 0:
        logits[:] = h0
    else:
        _run_passes(h0, weights, biases, model.dropout_rate, seeds, logits)
    softmax_in_place(_as_batch(logits.reshape(-1, model.num_classes)))
    return logits


def _run_passes(h0, weights, biases, dropout_rate, seeds, logits) -> None:
    """Fill logits[t] with pass t's logits from layer 1 on, given layer 0's
    post-ReLU output h0, on up to pass_threads(...) threads."""
    last = len(weights) - 1
    dropout_active = dropout_rate > 0.0
    keep = 1.0 - dropout_rate
    scale = 1.0 / keep
    rows = len(h0)
    pass_size = rows * sum(w.shape[1] for w in weights[1:])
    threads = max(1, min(pass_threads(pass_size), len(seeds)))
    # Every thread gets, for layers 1..last, a buffer for the masked input
    # and, below the last layer, one for the pre-activation; the last
    # layer writes into logits[t]. All are allocated on this thread
    # (per-thread malloc arenas would raise peak memory).
    buffers = [
        [
            (w, b, np.empty((rows, w.shape[1])),
             np.empty((rows, w.shape[0])) if l < last else None)
            for l, (w, b) in enumerate(zip(weights[1:], biases[1:]), start=1)
        ]
        for _ in range(threads)
    ]
    # Threads take passes one at a time, so one thread the OS holds back
    # delays the call by one pass, not by a fixed share of them. A deque's
    # popleft is atomic.
    todo = collections.deque(range(len(seeds)))
    # numpy's floating-point error state is per thread
    errstate = np.geterr()

    def run(layers):
        # numpy calls only: bench/spans.py times nn.softmax and derive_seed
        # on one open-span stack, which no other thread may touch
        with np.errstate(**errstate):
            while True:
                try:
                    t = todo.popleft()
                except IndexError:
                    return
                rng = np.random.default_rng(seeds[t]) if dropout_active else None
                a = h0
                for w, b, masked, z in layers:
                    if dropout_active:
                        # h * (r < keep) * (1/keep) equals forward's
                        # h * ((r < keep) / keep): the mask is exactly 0
                        # or 1/keep
                        rng.random(out=masked)
                        np.less(masked, keep, out=masked)
                        a = np.multiply(a, masked, out=masked)
                        a *= scale
                    out = logits[t] if z is None else z
                    np.matmul(a, w.T, out=out)
                    out += b
                    if z is not None:
                        np.maximum(out, 0.0, out=out)
                    a = out

    if threads == 1:
        run(buffers[0])
        return
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        futures = [pool.submit(run, layers) for layers in buffers[1:]]
        run(buffers[0])
        for future in futures:
            future.result()


def softmax(logits) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    # order="K" keeps the input's layout, which fixes the order of the row sums
    z = _as_batch(logits).copy(order="K")
    softmax_in_place(z)
    return z


def softmax_in_place(z: np.ndarray) -> None:
    """softmax's arithmetic, unchecked, on z's rows in place."""
    # The row max is taken one column at a time: a max is exact in any
    # order, and where a tie of 0.0 and -0.0 picks the other zero, z - m
    # changes only the sign of a zero, which exp maps to 1 either way.
    # The sum keeps numpy's row reduction, whose order changes the bits
    # from 8 columns on.
    m = z[:, 0].copy()
    for j in range(1, z.shape[1]):
        np.maximum(m, z[:, j], out=m)
    z -= m[:, None]
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)


def backward(model: MlpModel, trace: ForwardTrace, d_logits) -> Gradients:
    """Backpropagate a logit gradient through the traced forward pass."""
    dz = np.asarray(d_logits, dtype=np.float64)
    if dz.shape != trace.pre_activations[-1].shape:
        raise ValueError(
            f"d_logits shape {dz.shape} != logits shape "
            f"{trace.pre_activations[-1].shape}"
        )
    grads = Gradients([np.empty_like(w) for w in model.weights],
                      [np.empty_like(b) for b in model.biases])
    deltas = [np.empty_like(h) for h in trace.hidden_activations]
    backward_into(model, trace, dz, grads, deltas)
    return grads


def backward_into(
    model: MlpModel, trace: ForwardTrace, dz: np.ndarray, grads: Gradients,
    deltas: list[np.ndarray],
) -> None:
    """backward's arithmetic, unchecked: writes the gradients of logit
    gradient dz into grads, using deltas[l] (shaped like hidden layer l)
    as scratch. Neither dz nor the trace is written to."""
    for l in reversed(range(len(model.weights))):
        np.matmul(dz.T, trace.layer_input(l), out=grads.weights[l])
        np.add.reduce(dz, axis=0, out=grads.biases[l])  # dz.sum(axis=0)
        if l > 0:
            da = np.matmul(dz, model.weights[l], out=deltas[l - 1])
            mask = trace.masks[l - 1]
            if mask is not None:
                da *= mask
            dz = np.multiply(da, trace.pre_activations[l - 1] > 0.0, out=da)


def sgd_step(model: MlpModel, grads: Gradients, state: OptimizerState) -> None:
    """One in-place SGD-momentum update. Aborts (no mutation) on non-finite grads."""
    if len(grads.weights) != len(model.weights):
        raise ValueError("gradient/model layer count mismatch")
    for gw, gb, w, b in zip(grads.weights, grads.biases, model.weights, model.biases):
        if gw.shape != w.shape or gb.shape != b.shape:
            raise ValueError("gradient/parameter shape mismatch")
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise DivergenceError("non-finite gradient; step aborted")
    for param, grad, velocity in zip(
        model.weights + model.biases,
        grads.weights + grads.biases,
        state.velocity_w + state.velocity_b,
    ):
        sgd_update(param, grad, velocity, np.empty_like(param),
                   state.learning_rate, state.momentum, state.weight_decay)


def sgd_update(param, grad, velocity, scratch, lr, mu, wd) -> None:
    """sgd_step's arithmetic, unchecked, on arrays of one shape: one
    layer's, or every layer's at once as flat vectors. scratch is
    overwritten.

    velocity = mu * velocity + (grad + wd * param); param -= lr * velocity.
    Each element sees the same float operations in any layout.
    """
    velocity *= mu
    np.multiply(param, wd, out=scratch)
    scratch += grad
    velocity += scratch
    np.multiply(velocity, lr, out=scratch)
    param -= scratch


def save_model(model: MlpModel, path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_dims": list(model.layer_dims),
        "dropout_rate": model.dropout_rate,
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path) -> MlpModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFileError(f"model file {path} is not a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFileError(
            f"unsupported model format_version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    missing = {"layer_dims", "dropout_rate", "weights", "biases"} - doc.keys()
    if missing:
        raise ModelFileError(f"model file {path} missing fields: {sorted(missing)}")
    try:
        return MlpModel(
            layer_dims=list(doc["layer_dims"]),
            weights=[np.asarray(w, dtype=np.float64) for w in doc["weights"]],
            biases=[np.asarray(b, dtype=np.float64) for b in doc["biases"]],
            dropout_rate=float(doc["dropout_rate"]),
        )
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"inconsistent model file {path}: {exc}") from exc
