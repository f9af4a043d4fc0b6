"""The benchmark's tracer (perfbench/tracer.py) wraps degclass functions by
name, so a rename or removal in the package fails here rather than in a
traced benchmark run."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import degclass
import oracles

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every degclass module and every class defined in one, with its attributes."""
    owners = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "degclass"]
    owners += [c for m in list(owners) for c in vars(m).values() if inspect.isclass(c) and c.__module__ == m.__name__]
    return {id(owner): (owner, dict(vars(owner))) for owner in owners}


def _changed(before):
    return {
        (owner.__name__, attr)
        for owner, attrs in before.values()
        for attr in set(attrs) | set(vars(owner))
        if vars(owner).get(attr) is not attrs.get(attr)
    }


def test_install_then_restore_leaves_every_attribute_as_it_was(tracer_module):
    before = _namespaces()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        patched = _changed(before)
    finally:
        tracer.restore()
    wrapped = {("degclass.modmat", fn) for fn in ("rref", "nullspace", "solve_right", "minimal_polynomial", "poly_roots")}
    assert wrapped | {("degclass.metrics", "u_pi"), ("ClassAlgebraData", "matrix")} <= patched
    assert _changed(before) == set()


def test_tracer_sees_the_verify_path(tracer_module):
    records = degclass.builtin_corpus()[:3]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        degclass.run_report(records)
    finally:
        tracer.restore()
    names = {span[1] for span in tracer.spans}
    assert {"metrics.u_pi", "metrics.s_pi", "criteria", "chardeg.eigensplit", "structure.classes"} <= names
    # exact counts the benchmark reports: one per nonzero coefficient, one per scalar product
    entries = sum(
        len(oracles.Reference([e.images for e in r.group.elements], [p.images for p in r.group.generators]).class_algebra())
        for r in records
    )
    assert tracer.counts["chardeg.coeff_entries"] == entries
    assert tracer.counts["group.i_mul_calls"] > 0
