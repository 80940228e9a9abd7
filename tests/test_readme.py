"""README.md's Quick start must run as written, its config example must
load, and every name of the package or the test suite it cites must
exist."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import nclayer
from nclayer.config import KEY_REGISTRY, parse_config_text
from nclayer.simulator import ChainConfig

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(nclayer.__path__)}


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
    # the first python block of the README, run in an empty directory so
    # that any file it writes lands there
    first = re.search(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert first, "README.md has no python block"
    monkeypatch.chdir(tmp_path)
    exec(compile(first.group(1), str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def _resolves(dotted: str) -> bool:
    """Whether nclayer.<dotted> names a module of the package or an
    attribute reached from one."""
    parts = dotted.split(".")
    for split in range(len(parts), -1, -1):
        try:
            found = importlib.import_module(".".join(["nclayer", *parts[:split]]))
        except ModuleNotFoundError:
            continue
        try:
            for name in parts[split:]:
                found = getattr(found, name)
        except AttributeError:
            return False
        return True


def _defines(path: Path, name: str) -> bool:
    """Whether a test file defines a function or class name at its top
    level."""
    return any(
        isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        for node in ast.parse(path.read_text()).body
    )


def test_readme_names_resolve():
    # `<module>.<name>` for a module of the package, nclayer.<name>
    # anywhere, and tests/<file>.py::<name>; a config key such as
    # `media.layers` names no code
    text = README.read_text()
    cited = {d[1:] for d in re.findall(r"\bnclayer((?:\.\w+)+)", text)}
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        head = re.match(r"(\w+)((?:\.\w+)+)", span)
        if head and head.group(1) in MODULES and head.group(0) not in KEY_REGISTRY:
            cited.add(head.group(0))
    missing = sorted(d for d in cited if not _resolves(d))
    for file, name in re.findall(r"\btests/(\w+)\.py::(\w+)", text):
        path = ROOT / "tests" / f"{file}.py"
        if not (path.is_file() and _defines(path, name)):
            missing.append(f"tests/{file}.py::{name}")
    assert cited
    assert not missing, f"README.md cites names that do not exist: {missing}"


def test_config_example_loads():
    # every key of the README's config file must still be in the registry
    # and its values must make a ChainConfig
    block = re.search(r"^```ini\n(.*?)^```", README.read_text(), re.M | re.S)
    assert block, "README.md has no ini block"
    config = ChainConfig(**parse_config_text(block.group(1)))
    assert config.link_pdrs == (0.9, 0.8) and config.pdr_schedule == ((500, 1, 0.3),)
