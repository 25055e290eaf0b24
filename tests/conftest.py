"""Shared fixtures: small, fast benchmark variants for trainer tests, and
a guard against child processes and threads that outlive their test."""

from __future__ import annotations

import sys
import threading

import pytest

from oodkit.datasynth import make_default_benchmark


@pytest.fixture(autouse=True)
def leaves_no_child_or_thread():
    """Fail a test that leaves a multiprocessing child alive, or a thread
    that it started."""
    before = set(threading.enumerate())
    yield
    # read from sys.modules: a test that never loaded multiprocessing
    # started no child through it
    mp = sys.modules.get("multiprocessing")
    children = mp.active_children() if mp is not None else []
    threads = [t for t in threading.enumerate() if t not in before and t.is_alive()]
    for child in children:
        child.kill()
        child.join(60)
    assert not children, f"the test left child processes alive: {children}"
    assert not threads, f"the test left threads running: {threads}"


@pytest.fixture(scope="session")
def small_benchmark():
    """Default geometry at 1/8 scale; enough signal to reach 100% accuracy."""
    return make_default_benchmark(
        seed=0, n_per_class=64, n_per_ood_component=64
    )


@pytest.fixture(scope="session")
def tiny_benchmark():
    """Minimal benchmark for smoke tests of the training plumbing."""
    return make_default_benchmark(
        seed=1, n_per_class=24, n_per_ood_component=24
    )
