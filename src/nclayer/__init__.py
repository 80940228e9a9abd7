"""Layered-video delivery over lossy multi-hop chains, with nested
inter-layer coding, precomputed strategy tables, and a chain simulator."""

import os as _os
import sys as _sys

# numpy loads OpenBLAS, which sizes its thread pool once, at load, at one
# worker per core. nclayer makes no BLAS call (tests/test_startup.py scans
# for one), so unless the caller has loaded numpy or chosen a thread
# count, numpy is loaded here with one thread asked for, and the variable
# is removed again, so child processes and os.environ see what the caller
# left.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(
    name in _os.environ for name in _BLAS_THREAD_VARIABLES
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .channel import send_block
from .codec import (
    SCHEME_REPEAT,
    SCHEME_RLC,
    SCHEME_XOR,
    PacketBlock,
    decode_block,
    encode_block,
    encode_gop,
    score_block,
)
from .config import ConfigError, apply_overrides, load_config
from .heuristic import ThresholdPolicy, builtin_policy
from .media import make_synthetic_gop
from .simulator import (
    ChainConfig,
    RunMetrics,
    resolve_mode,
    run,
    sweep,
)
from .spt import (
    PDR_BINS,
    StrategyTable,
    build_table,
    enumerate_strategies,
    expected_decoded_layers,
    nearest_bin,
    save_table,
)

__version__ = "0.1.0"

__all__ = [
    "ChainConfig",
    "ConfigError",
    "PDR_BINS",
    "PacketBlock",
    "RunMetrics",
    "SCHEME_REPEAT",
    "SCHEME_RLC",
    "SCHEME_XOR",
    "StrategyTable",
    "ThresholdPolicy",
    "apply_overrides",
    "build_table",
    "builtin_policy",
    "decode_block",
    "encode_block",
    "encode_gop",
    "enumerate_strategies",
    "expected_decoded_layers",
    "load_config",
    "make_synthetic_gop",
    "nearest_bin",
    "resolve_mode",
    "run",
    "save_table",
    "score_block",
    "send_block",
    "sweep",
    "__version__",
]
