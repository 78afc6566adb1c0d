"""The benchmark's traced run wraps ssdopt functions by name (see
``ssdbench/tracing.py``). A rename or move of any of them must fail here, in
the package's own suite, and not only in the benchmark's tests."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "ssdbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("ssdbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tracing):
    """(qualified name, owner object, attribute, original function) of each name."""
    for layer, functions in tracing.TRACED.items():
        module = importlib.import_module(f"ssdopt.{layer}")
        for name in functions:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            yield f"{layer}.{name}", owner, attr, getattr(owner, attr)


def test_install_binds_every_traced_name_and_uninstall_restores_it(tracing):
    originals = list(_traced(tracing))
    tracer = tracing.Tracer()
    try:
        bound = tracer.install()
        for qualified, owner, attr, fn in originals:
            assert bound[qualified] >= 1, qualified
            wrapped = getattr(owner, attr)
            assert wrapped is not fn and wrapped.__wrapped__ is fn, qualified
    finally:
        tracer.uninstall()
    for qualified, owner, attr, fn in originals:
        assert getattr(owner, attr) is fn, qualified
