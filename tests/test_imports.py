"""Import hygiene: every name a ``diracboost`` module imports is used in that module.

A name also counts as used when ``__init__`` imports it from the module, as it does
``sweep.SweepError``, or when the module lists it in ``__all__``.  Every private name a
module defines at its top level is read in that module or imported by another.  How a state is
boosted over a grid stays inside ``kernel``: no other module imports its internals.
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


def imported_from(stem, paths):
    """Names that the modules at ``paths`` import from the module ``stem``."""
    return {
        alias.name
        for path in paths
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == stem
        for alias in node.names
    }


def private_definitions(tree):
    """(name, line) of each ``_x`` name, dunders aside, that the module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((n, node.lineno) for n in names if n[:1] == "_" and n[:2] != "__")


def test_the_package_modules_are_found():
    assert {"__init__.py", "kinematics.py", "states.py", "tensor.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    tree = parse(path)
    keep = used(tree) | imported_from(path.stem, [PACKAGE / "__init__.py"])
    unused = [f"{name} (line {line})" for name, line in imported(tree) if name not in keep]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_or_exports_every_private_name(path):
    tree = parse(path)
    others = [other for other in MODULES if other != path]
    keep = imported_from(path.stem, others) | {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    orphans = [f"{n} (line {line})" for n, line in private_definitions(tree) if n not in keep]
    assert not orphans, f"{path.name} defines private names nothing reads: {', '.join(orphans)}"


#: The kernel's internals: its tables, chunk measure, chunk size and eigenbasis scaling.
KERNEL_INTERNALS = {"_tables", "_measure_chunk", "_direction_tables", "_eigenbasis_amplitudes",
                    "_LEVELS", "_CHUNK"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "kernel.py"],
                         ids=lambda path: path.name)
def test_only_the_kernel_touches_its_internals(path):
    leaked = [f"{name} (line {line})" for name, line in imported(parse(path))
              if name in KERNEL_INTERNALS]
    assert not leaked, f"{path.name} imports kernel internals: {', '.join(leaked)}"
