"""Import hygiene: every name a ``diracboost`` module imports is used in that module.

A name also counts as used when ``__init__`` imports it from the module, as it does
``sweep.SweepError``, or when the module lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diracboost"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported(tree):
    """(bound name, line) of each name an import statement binds, ``__future__`` features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used(tree):
    """Names the module reads, and the entries of its ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def reexported(stem):
    """Names that ``__init__`` imports from the module ``stem``."""
    return {
        alias.name
        for node in ast.walk(parse(PACKAGE / "__init__.py"))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == stem
        for alias in node.names
    }


def test_the_package_modules_are_found():
    assert {"__init__.py", "kinematics.py", "states.py", "tensor.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    tree = parse(path)
    keep = used(tree) | reexported(path.stem)
    unused = [f"{name} (line {line})" for name, line in imported(tree) if name not in keep]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"
