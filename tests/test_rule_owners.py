"""Each fringe rule of reconstruct.py has one implementation.

The degenerate-fringe test, the step-difference modulation, the resultant
tolerance and the angle fold live in the two private kernels ``_fringe`` and
``_direction``, which psi_phase, psi_visibility, circular_mean and
reconstruct_from_frames call.  These tests read the module's syntax tree.
"""

import ast
import inspect

from psitomo import reconstruct

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

