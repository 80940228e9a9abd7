"""Every public name of nclayer is used by the package itself: a name that
only the tests or a reader reach is API that nothing in the system needs."""

import ast
from pathlib import Path

import nclayer

PACKAGE = Path(nclayer.__file__).parent


def _loaded_names() -> set:
    """The names loaded, bare or as an attribute, in the package's modules
    other than __init__.py."""
    loaded = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_public_name_is_used_in_the_package():
    unused = sorted(set(nclayer.__all__) - {"__version__"} - _loaded_names())
    assert not unused, f"nclayer exports names that no module of it uses: {unused}"
