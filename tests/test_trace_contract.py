"""The benchmark's traced run wraps ssdopt functions by name (see
``ssdbench/tracing.py``) and reads their arguments by position and name. A
rename, move or signature change of any of them must fail here, in the
package's own suite, and not only in the benchmark's tests."""

import importlib
import importlib.util
import inspect
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


#: The signature of each traced name, as ``str(inspect.signature(...))``. A
#: name traced later without an entry here need only exist.
SIGNATURES = {
    "cli.main": "(argv: 'list[str] | None' = None) -> 'int'",
    "designio.read_design_csv": "(path: 'str | Path') -> 'SignMatrix'",
    "designio.write_design_csv": "(path: 'str | Path', design: 'SignMatrix') -> 'None'",
    "designio.dump_json": "(payload: 'dict', path: 'str | Path') -> 'None'",
    "designio.evaluate_report": "(design: 'SignMatrix') -> 'dict'",
    "designio.report_json": "(report: 'OptimalityReport') -> 'dict'",
    "designio.sidecar_json": "(build: 'SsdBuild', report: 'OptimalityReport') -> 'dict'",
    **{
        f"verify.{name}": "(n: 'int', construction: 'str' = 'auto', "
        "cap: 'int | None' = 500) -> 'list[CheckResult]'"
        for name in ("verify_lemma1", "verify_lemma2", "verify_theorems")
    },
    "es2.verdict": "(build: 'SsdBuild') -> 'OptimalityReport'",
    "es2.es2_direct": "(design: 'SignMatrix') -> 'Fraction'",
    "es2.es2_via_j": "(build: 'SsdBuild') -> 'Fraction'",
    "es2.es2_closed_form":
        "(family: 'SsdFamily', n: 'int', q: 'int', d: 'int | None' = None) -> 'Fraction'",
    "es2.bound_details":
        "(n: 'int', m: 'int') -> 'tuple[tuple[Decomposition, ...], Decomposition, Fraction]'",
    "builder.build_full": "(start: 'SignMatrix') -> 'SsdBuild'",
    "builder.build_minus_one": "(start: 'SignMatrix', delete: 'ColumnLabel', "
        "removed: 'SignMatrix | None' = None) -> 'SsdBuild'",
    "builder.build_interactions_only": "(start: 'SignMatrix') -> 'SsdBuild'",
    "builder.build_single_parent": "(start: 'SignMatrix', parent: 'int', "
        "removed: 'SignMatrix | None' = None) -> 'SsdBuild'",
    "spectral.sum_j_squared": "(design: 'SignMatrix', s: 'int') -> 'int'",
    "spectral.sum_j_squared_filtered":
        "(design: 'SignMatrix', s: 'int', fixed: 'Iterable[int]') -> 'int'",
    "spectral.gwp_via_krawtchouk": "(design: 'SignMatrix') -> 'GwpVector'",
    "spectral.distance_distribution": "(design: 'SignMatrix') -> 'DistanceDistribution'",
    "spectral.d_parameter": "(t1, t2, t3) -> 'int'",
    "core.hadamard_design": "(n: 'int', construction: 'str' = 'auto', "
        "max_order: 'int' = 64) -> 'SignMatrix'",
    "core.drop_columns":
        "(design: 'SignMatrix', indices: 'Iterable[int]') -> 'tuple[SignMatrix, SignMatrix]'",
    "core.verify_oa_strength2": "(design: 'SignMatrix') -> 'bool'",
    "core.aliasing_report": "(design: 'SignMatrix') -> 'AliasedPairs'",
    "core.SignMatrix.gram": "(self) -> 'np.ndarray'",
}


def test_every_traced_name_keeps_its_pinned_signature(tracing):
    traced = {qualified: fn for qualified, _, _, fn in _traced(tracing)}
    assert traced.keys() & SIGNATURES.keys()
    for qualified, fn in traced.items():
        if qualified in SIGNATURES:
            assert str(inspect.signature(fn)) == SIGNATURES[qualified], qualified
