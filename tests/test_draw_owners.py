"""Each random draw of the simulator has one implementation.

Shot counts are drawn only in ``projectors._counts``, the step jitter only in
``projectors._step_phases`` and Haar states only in ``states._haar``; both
pipelines and the public samplers call them.  These tests read the syntax
tree of every module of the package.
"""

import ast
import inspect
import pkgutil
from importlib import import_module

import psitomo

_TREES = {
    info.name: ast.parse(inspect.getsource(import_module(f"psitomo.{info.name}")))
    for info in pkgutil.iter_modules(psitomo.__path__)
}


def owners(matches):
    """(module, top-level definition) pairs holding a matching node ("<module>" for a
    statement outside the definitions)."""
    return {(module, getattr(top, "name", "<module>"))
            for module, tree in _TREES.items() for top in tree.body for node in ast.walk(top)
            if matches(node)}


def calls(name):
    return lambda node: (isinstance(node, ast.Call)
                         and getattr(node.func, "attr", getattr(node.func, "id", None)) == name)


def reads(name):
    """A load of ``name``, bare or as an attribute; an import is neither."""
    return lambda node: (isinstance(node, ast.Name) and node.id == name
                         and isinstance(node.ctx, ast.Load)) or (
        isinstance(node, ast.Attribute) and node.attr == name)


def test_shot_counts_are_drawn_in_one_place():
    assert owners(calls("poisson")) == {("projectors", "_counts")}


def test_normals_are_drawn_only_for_haar_states_and_step_jitter():
    assert owners(calls("standard_normal")) == {("states", "_haar"),
                                                 ("projectors", "_step_phases")}


def test_the_step_phases_are_read_only_in_projectors():
    assert {module for module, _ in owners(reads("STEP_PHASES"))} == {"projectors"}
