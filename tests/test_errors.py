import ast
import inspect
from pathlib import Path

import riversep.errors

SOURCES = sorted(Path(riversep.errors.__file__).parent.glob("*.py"))


def raised_names():
    """The names the package's ``raise`` statements raise: ``X`` in
    ``raise X``, ``raise X(...)`` and ``raise errors.X(...)``."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_exception_type_is_raised_by_name():
    # a type whose last raise site goes goes with it
    defined = {
        name
        for name, value in vars(riversep.errors).items()
        if inspect.isclass(value) and issubclass(value, riversep.errors.RiversepError)
    }
    assert len(SOURCES) > 1
    assert sorted(defined - raised_names()) == []
