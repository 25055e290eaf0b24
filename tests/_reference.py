"""Reference forms of library calls, shared by the tests."""

from __future__ import annotations

import numpy as np

from oodkit.nn import MlpModel, mc_dropout_blocks


def mc_dropout_probs(model: MlpModel, inputs, seeds) -> np.ndarray:
    """Softmax outputs of one dropout pass per seed, shape (T, N, k):
    mc_dropout_blocks in one block of every pass."""
    (probs,) = mc_dropout_blocks(model, inputs, seeds, len(seeds))
    return probs
