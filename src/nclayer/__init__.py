"""Layered-video delivery over lossy multi-hop chains, with nested
inter-layer coding, precomputed strategy tables, and a chain simulator."""

from .channel import send_block
from .codec import (
    SCHEME_REPEAT,
    SCHEME_RLC,
    SCHEME_XOR,
    PacketBlock,
    decodable_layers,
    decode_block,
    encode_block,
    encode_gop,
    score_block,
)
from .config import ConfigError, apply_overrides, load_config, parse_config_text
from .gf256 import gf256_inv, gf256_mul
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
    "decodable_layers",
    "decode_block",
    "encode_block",
    "encode_gop",
    "enumerate_strategies",
    "expected_decoded_layers",
    "gf256_inv",
    "gf256_mul",
    "load_config",
    "make_synthetic_gop",
    "nearest_bin",
    "parse_config_text",
    "resolve_mode",
    "run",
    "save_table",
    "score_block",
    "send_block",
    "sweep",
    "__version__",
]
