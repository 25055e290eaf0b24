"""The traced benchmark wraps oodkit functions by name and reads some of
their arguments by position (bench/spans.py). A renamed function or a
renamed or moved parameter would silently zero a per-layer counter, so
these tests pin what spans relies on. They read bench/ and change nothing
there."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans_contract", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


def positional_reads() -> dict[str, set[tuple[int, str]]]:
    """Per spans.py function, the (position, name) pairs of its
    _arg(args, kwargs, position, name) calls."""
    reads = {}
    for node in ast.parse(SPANS_PATH.read_text()).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "_arg"):
                pos, name = (arg.value for arg in call.args[2:4])
                reads.setdefault(node.name, set()).add((pos, name))
    return reads


@pytest.mark.parametrize("module,function", [layer[:2] for layer in SPANS.LAYERS])
def test_every_wrapped_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"oodkit.{module}"), function))


def reads_by_function() -> dict[tuple[str, str], set[tuple[int, str]]]:
    """Per wrapped (module, function), the arguments its span name and
    count functions read by position."""
    reads = positional_reads()
    found = {}
    for module, function, name, count in SPANS.LAYERS:
        for helper in (name, count):
            if callable(helper) and helper.__name__ in reads:
                found.setdefault((module, function), set()).update(reads[helper.__name__])
    return found


def test_the_positional_reads_are_the_known_ones():
    # so that the signature test below cannot pass on an empty list
    assert reads_by_function() == {
        ("nn", "forward"): {(1, "inputs"), (2, "mode")},
        ("scores", "mc_dropout_predict"): {(2, "num_passes")},
    }


@pytest.mark.parametrize("target,reads", sorted(reads_by_function().items()))
def test_positional_reads_keep_their_name_and_place(target, reads):
    module, function = target
    params = list(inspect.signature(
        getattr(importlib.import_module(f"oodkit.{module}"), function)).parameters)
    for pos, name in reads:
        assert params[pos] == name, (target, pos, name, params)
