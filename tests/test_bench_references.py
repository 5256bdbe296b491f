"""Every name the benchmark in `bench/` reads from the package resolves.

The benchmark is a fixed instrument: it calls layer functions by name and
traces spans named after them.  A rename or removal in the package would
otherwise show only when the benchmark itself runs.  Stdlib-only AST walks.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
LAYERS = ("cli", "fock", "protocol", "noise", "continuum", "resources", "selftest")


def attribute_reads(source: str) -> set[str]:
    """`layer.attr` for every attribute read on a name that is a layer module."""
    return {f"{node.value.id}.{node.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in LAYERS}


def span_names(source: str) -> set[str]:
    """The string span names in the tracer's `GROUPS` values and its `VALIDATE`."""
    names = set()
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)):
            continue
        target = node.targets[0].id
        if target == "VALIDATE":
            names.add(node.value.value)
        elif target == "GROUPS":
            names |= {c.value for v in node.value.values for c in ast.walk(v)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


def resolves(dotted: str) -> bool:
    layer, *path = dotted.split(".")
    obj = importlib.import_module(f"telefock.{layer}")
    for attr in path:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


BENCH_READS = sorted(set().union(*(attribute_reads(p.read_text())
                                   for p in sorted(BENCH.glob("*.py")))))
SPANS = sorted(span_names((BENCH / "tracer.py").read_text()))


def test_the_walks_find_the_benchmark_references():
    assert len(BENCH_READS) >= 30
    assert "protocol.fidelity_closed_pure" in BENCH_READS
    assert "resources.max_entangled" in BENCH_READS
    assert "fock.TwoModeDensityMatrix.__post_init__" in SPANS
    assert "noise.particle_loss_analytic" in SPANS


@pytest.mark.parametrize("name", sorted(set(BENCH_READS) | set(SPANS)))
def test_benchmark_reference_resolves(name):
    assert resolves(name), f"bench/ reads {name}, which the package no longer has"


def test_a_missing_name_does_not_resolve():
    assert not resolves("resources.apply_phases")
    assert not resolves("fock.TwoModeDensityMatrix.no_such_method")
    assert attribute_reads("import numpy as np\nnoise.mix(a)\nnp.zeros(3)\n") == {"noise.mix"}
