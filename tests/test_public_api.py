"""Every public name of nclayer, and every public method and property of
the classes it exports, is used by the package itself: a name that only the
tests or a reader reach is API that nothing in the system needs."""

import ast
import inspect
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


def _public_members() -> set:
    """Class.name for each public method and property defined on a class
    nclayer exports."""
    members = set()
    for export in nclayer.__all__:
        cls = getattr(nclayer, export)
        if not inspect.isclass(cls):
            continue
        for name, member in vars(cls).items():
            if not name.startswith("_") and (
                inspect.isfunction(member)
                or isinstance(member, (property, classmethod, staticmethod))
            ):
                members.add(f"{export}.{name}")
    return members


def test_every_public_method_and_property_is_used_in_the_package():
    members = _public_members()
    # the scan sees methods and properties of several classes
    assert {"PacketBlock.select", "StrategyTable.pdr_bins", "ChainConfig.needs_table"} <= members
    loaded = _loaded_names()
    unused = sorted(m for m in members if m.split(".")[1] not in loaded)
    assert not unused, f"nclayer classes define members that no module of it uses: {unused}"
