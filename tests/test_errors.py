"""Guard against dead exception classes: each one the package declares is raised in it."""

import ast
import pathlib

from dpsk import errors

PACKAGE = pathlib.Path(errors.__file__).parent


def _raised_names():
    """Names of the classes in ``raise Name(...)`` or ``raise module.Name(...)`` statements."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised_in_the_package():
    declared = {
        name
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.DpskError)
    } - {"DpskError"}
    assert declared, "no DpskError subclasses found"
    assert declared - _raised_names() == set()
