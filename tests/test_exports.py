"""The package root exports nothing: every name lives in the submodule that
defines it, and the root holds only its docstring and ``__version__``."""

import ast
import types
from pathlib import Path

import qhjlab


def imported_public_names() -> set:
    tree = ast.parse(Path(qhjlab.__file__).read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names if not (alias.asname or alias.name).startswith("_")}


def test_star_import_binds_every_exported_name():
    # no name is exported, so a star import binds at most the submodules
    # that earlier imports attached to the package
    namespace = {}
    exec("from qhjlab import *", namespace)
    bound = {name: value for name, value in namespace.items() if name != "__builtins__"}
    assert all(isinstance(value, types.ModuleType) and value.__name__ == f"qhjlab.{name}"
               for name, value in bound.items()), sorted(bound)


def test_all_lists_exactly_the_imported_names():
    assert not hasattr(qhjlab, "__all__")
    assert imported_public_names() == set()
    assert isinstance(qhjlab.__version__, str)
