"""Checks on the layout of the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "curvipat"


def _references(tree: ast.AST):
    """(name, node) for every name, attribute and imported name in a tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name, node


def test_every_top_level_definition_is_used_in_src():
    # code that only tests read belongs in tests/, so every top-level
    # function and class of the package must be named somewhere in the
    # package outside its own definition
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = [ref for tree in trees.values() for ref in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if not any(name == node.name and id(ref) not in own for name, ref in refs):
                unused.append(f"{module}:{node.name}")
    assert unused == []
