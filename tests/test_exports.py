"""The package's public names: what ``__init__`` imports is what it exports."""

import ast
from pathlib import Path

import qhjlab


def imported_public_names() -> set:
    tree = ast.parse(Path(qhjlab.__file__).read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names if not (alias.asname or alias.name).startswith("_")}


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from qhjlab import *", namespace)
    missing = [name for name in qhjlab.__all__ if name not in namespace]
    assert not missing


def test_all_lists_exactly_the_imported_names():
    assert len(qhjlab.__all__) == len(set(qhjlab.__all__))
    assert set(qhjlab.__all__) == imported_public_names()
