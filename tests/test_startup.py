"""Importing nclayer starts no BLAS worker threads, and leaves a caller's
choice of BLAS threads and its environment as they were.

numpy loads OpenBLAS, which starts one worker per core at load. nclayer
makes no BLAS call, so its import asks for one thread; the scan below keeps
that premise true. Each start-up case runs in a fresh interpreter and counts
its threads from /proc/self/task, so those cases run on Linux only.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nclayer

PACKAGE = Path(nclayer.__file__).parent
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
BLAS_NAMES = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot", "linalg"}

_PROBE = (
    "import os\n"
    "before = dict(os.environ)\n"
    "{imports}\n"
    "print(len(os.listdir('/proc/self/task')), dict(os.environ) == before)\n"
)

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads from /proc/self/task"
)


def _openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        return False
    return "openblas" in str(blas.get("name", "")).lower()


needs_two_cpus = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity") else True,
    reason="OpenBLAS starts no more threads than CPUs",
)
needs_openblas = pytest.mark.skipif(not _openblas(), reason="numpy's BLAS is not OpenBLAS")


def _threads_after(imports: str, **env) -> int:
    """Threads of a fresh interpreter after these imports, with none of the
    BLAS thread variables set but those given; fails if the imports changed
    its environment."""
    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))
    )
    child_env.update(env)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(imports=imports)],
        env=child_env, capture_output=True, text=True, timeout=60, check=True,
    )
    threads, environ_kept = done.stdout.split()
    assert environ_kept == "True", f"{imports!r} changed os.environ"
    return int(threads)


@needs_proc
def test_plain_import_starts_no_blas_threads():
    assert _threads_after("import nclayer") == 1


@needs_proc
@needs_openblas
@needs_two_cpus
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_chosen_blas_thread_count_is_kept(variable):
    assert _threads_after("import nclayer", **{variable: "2"}) == 2


@needs_proc
@needs_openblas
@needs_two_cpus
def test_numpy_imported_first_keeps_its_own_pool():
    probe = (
        "import numpy\n"
        "own = len(os.listdir('/proc/self/task'))\n"
        "import nclayer\n"
        "assert own > 1 and len(os.listdir('/proc/self/task')) == own, own"
    )
    assert _threads_after(probe) > 1


def _blas_calls(source: str) -> list[str]:
    """The `@` products and BLAS-backed numpy names in this source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"line {node.lineno}: {node.attr}")
        elif isinstance(node, ast.alias) and BLAS_NAMES & set(node.name.split(".")):
            found.append(f"line {node.lineno}: {node.name}")
        elif isinstance(node, ast.ImportFrom) and BLAS_NAMES & set((node.module or "").split(".")):
            found.append(f"line {node.lineno}: {node.module}")
    return found


def test_the_scan_finds_blas_calls():
    assert _blas_calls("c = a @ b\nc @= a\nx = np.linalg.solve(a, b)\ny = a.dot(b)\n")
    assert len(_blas_calls("c = a @ b\nc @= a\n")) == 2
    assert _blas_calls("from numpy import einsum\n")
    assert _blas_calls("from numpy.linalg import solve\n")
    assert not _blas_calls("c = gf_matmul(a, b)\nd = a ^ b\n")


def test_nclayer_makes_no_blas_call():
    """One BLAS thread is all an nclayer process asks for, so a BLAS call in
    the package would silently run on one thread."""
    found = {
        path.name: calls
        for path in sorted(PACKAGE.glob("*.py"))
        if (calls := _blas_calls(path.read_text()))
    }
    assert not found, f"nclayer calls BLAS, which its import limits to one thread: {found}"
