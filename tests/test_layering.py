"""Import layering of the package, read from the source with ``ast``."""

import ast
from pathlib import Path

import birat2

PACKAGE = Path(birat2.__file__).parent


def package_imports(module):
    """The birat2 modules that ``module`` imports directly."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(alias.name for alias in node.names)
            elif (node.module or "").startswith("birat2."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("birat2."))
    return out


def import_closure(module):
    seen, todo = set(), [module]
    while todo:
        for dep in package_imports(todo.pop()):
            if dep not in seen:
                seen.add(dep)
                todo.append(dep)
    return seen


def test_oracles_never_reach_the_classifiers():
    for oracle in ("quadforms", "rayclass", "abelian"):
        reached = import_closure(oracle)
        assert not reached & {"classify", "fields", "tower"}, (oracle, sorted(reached))


def test_form_oracle_does_not_import_the_ray_oracle():
    assert "rayclass" not in import_closure("quadforms")
    assert "abelian" in package_imports("quadforms")
    assert "abelian" in package_imports("rayclass")


def arith_work(module):
    """The names ``factorize`` and ``is_prime`` that ``module`` imports or
    reaches as an attribute."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    work = {"factorize", "is_prime"}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names if a.name in work)
        elif isinstance(node, ast.Attribute) and node.attr in work:
            out.add(node.attr)
    return out


def test_classifiers_and_tower_read_primes_from_labels():
    for module in ("classify", "tower"):
        assert not arith_work(module), (module, sorted(arith_work(module)))


def test_exports_resolve_once():
    # a stale name in __all__ makes ``from birat2 import *`` raise
    names = birat2.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(birat2, n)] == []


def test_no_assert_statements():
    # python -O strips asserts: self-checks raise TheoremViolation instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
