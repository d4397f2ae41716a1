"""The package's public names: ``kappasim.__all__`` and the imports in
``kappasim/__init__.py`` are two hand-kept lists that must agree."""

import ast
from pathlib import Path

import kappasim


def test_all_lists_every_public_import_once():
    tree = ast.parse(Path(kappasim.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    names = kappasim.__all__
    assert len(names) == len(set(names)), "duplicate entries in __all__"
    assert [name for name in names if not hasattr(kappasim, name)] == []
    assert set(names) == public | {"__version__"}
