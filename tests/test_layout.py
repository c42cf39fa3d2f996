"""Each module exports only what it defines: no name in a module's
``__all__`` is imported from another module, so every public name has
one home and no module is a shim over another."""

import ast
import inspect
import pkgutil

import pytest

import aps2sim

MODULES = sorted(m.name for m in pkgutil.iter_modules(aps2sim.__path__))


def defined_names(tree: ast.Module) -> set[str]:
    """The names a module's top-level statements define: functions,
    classes and assigned names, not imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target)
                          if isinstance(n, ast.Name)}
    return names


def exported_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined_in_its_module(name):
    module = __import__(f"aps2sim.{name}", fromlist=["_"])
    tree = ast.parse(inspect.getsource(module))
    assert set(exported_names(tree)) - defined_names(tree) == set()


def test_the_check_sees_a_re_export():
    tree = ast.parse('from .clocks import PIPELINE_TICKS\n'
                     'STACK_DEPTH = 16\n'
                     '__all__ = ["STACK_DEPTH", "PIPELINE_TICKS"]\n')
    assert set(exported_names(tree)) - defined_names(tree) \
        == {"PIPELINE_TICKS"}
