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


def _definitions(tree: ast.Module):
    """(qualified name, node) for every top-level function and class of a
    module and every method of its classes but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for inner in node.body:
                if isinstance(inner, ast.FunctionDef) and not inner.name.startswith("__"):
                    yield f"{node.name}.{inner.name}", inner


def test_every_top_level_definition_is_used_in_src():
    # code that only tests read belongs in tests/, so every top-level
    # function and class of the package, and every method of its classes,
    # must be named somewhere in the package outside its own definition
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = [ref for tree in trees.values() for ref in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for qualified, node in _definitions(tree):
            own = {id(inner) for inner in ast.walk(node)}
            if not any(name == node.name and id(ref) not in own for name, ref in refs):
                unused.append(f"{module}:{qualified}")
    assert unused == []


def _enum_members(node: ast.AST):
    """Every ``Geometry.<MEMBER>`` and ``ModelName.<MEMBER>`` attribute
    inside ``node``."""
    for inner in ast.walk(node):
        if (
            isinstance(inner, ast.Attribute)
            and isinstance(inner.value, ast.Name)
            and inner.value.id in ("Geometry", "ModelName")
            and inner.attr.isupper()
        ):
            yield inner


def test_no_src_module_compares_against_a_geometry_or_model_member():
    # geometries and models are data: the tables keyed by Geometry and by
    # ModelName hold what differs between them, so no code compares a value
    # against one member (is, ==, in and their negations, or a match case)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.match_case):
                operands = [node.pattern]
            else:
                continue
            found += [
                f"{path.name}:{member.lineno}:{member.value.id}.{member.attr}"
                for operand in operands
                for member in _enum_members(operand)
            ]
    assert found == []
