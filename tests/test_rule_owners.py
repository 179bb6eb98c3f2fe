"""Each fringe rule of reconstruct.py, and the adaptive reference rule, has one
implementation.

The degenerate-fringe test, the step-difference modulation, the resultant
tolerance and the angle fold live in the two private kernels ``_fringe`` and
``_direction``, which psi_phase, psi_visibility, circular_mean and
reconstruct_from_frames call.  The adaptive reference, the first strongest
population, is picked only by ``_strongest``, which choose_reference (for
frames trials) and the outcome chunks call.  The two-beam law of both forward
models, outcome tables and camera fringes, lives in ``projectors._two_beam``.
These tests read the syntax tree of reconstruct.py, or of every module of the
package.
"""

import ast
import inspect
import pkgutil
from importlib import import_module

import pytest

import psitomo
from psitomo import reconstruct
from psitomo.harness import ExperimentSpec, StateSource, run_batch, run_trial
from psitomo.states import normalize

_TREE = ast.parse(inspect.getsource(reconstruct))


def owners(matches):
    """Names of the top-level definitions of reconstruct.py holding a matching node
    ("<module>" for a statement outside them)."""
    return {getattr(top, "name", "<module>") for top in _TREE.body for node in ast.walk(top)
            if matches(node)}


def reads(name):
    return lambda node: (isinstance(node, ast.Name) and node.id == name
                         and isinstance(node.ctx, ast.Load))


def calls(*names):
    return lambda node: (isinstance(node, ast.Call)
                         and getattr(node.func, "attr", getattr(node.func, "id", None)) in names)


def test_the_degenerate_fringe_rule_has_one_owner():
    assert owners(reads("DEGENERATE_FRACTION")) == {"_fringe"}


def test_the_resultant_tolerance_has_one_owner():
    assert owners(reads("_RESULTANT_TOL")) == {"_direction"}


def test_hypot_and_arctan2_are_called_only_in_the_kernels():
    assert owners(calls("hypot")) == {"_fringe", "_direction"}
    assert owners(calls("arctan2", "atan2")) == {"_direction"}


def test_the_angle_fold_has_one_owner():
    assert owners(lambda node: isinstance(node, ast.Attribute) and node.attr == "pi") \
        == {"_direction"}


def test_the_reference_rule_has_one_owner():
    """argmax is called only by the reference kernel, and by states._canonical_phase's
    search for its phase pivot, which is another rule."""
    found = set()
    for info in pkgutil.iter_modules(psitomo.__path__):
        tree = ast.parse(inspect.getsource(import_module(f"psitomo.{info.name}")))
        found |= {(info.name, getattr(top, "name", "<module>")) for top in tree.body
                  for node in ast.walk(top) if calls("argmax")(node)}
    assert found == {("reconstruct", "_strongest"), ("states", "_canonical_phase")}


def package_nodes(matches):
    """(module, top-level definition, node) for every matching node of the package."""
    for info in pkgutil.iter_modules(psitomo.__path__):
        tree = ast.parse(inspect.getsource(import_module(f"psitomo.{info.name}")))
        yield from ((info.name, getattr(top, "name", "<module>"), node) for top in tree.body
                    for node in ast.walk(top) if matches(node))


def test_the_two_beam_law_has_one_owner():
    """Outcome tables and camera frames reach the law only through the kernel, and
    the renderer takes no modulus of summed beams."""
    assert {(module, top) for module, top, _ in package_nodes(calls("_two_beam"))} \
        == {("projectors", "_two_beam_table"), ("imaging", "_render")}
    assert [ast.unparse(node) for module, top, node in package_nodes(calls("abs"))
            if (module, top) == ("imaging", "_render")
            and not isinstance(node.args[0], ast.Name)] == []


@pytest.mark.parametrize("pipeline", ["outcomes", "frames"])
def test_a_tied_strongest_population_makes_the_lower_slit_the_reference(pipeline):
    psi = normalize([0.3, 1.0, 1.0])
    spec = ExperimentSpec(3, StateSource.explicit([psi]), 0, pipeline=pipeline)
    assert run_trial(psi, spec, 0).reference_used == 1
    assert run_batch(spec).trials[0].reference_used == 1
