"""Layered-video delivery over lossy multi-hop chains, with nested
inter-layer coding, precomputed strategy tables, and a chain simulator."""

from .channel import LinkModel, chain_e2e_pdr
from .codec import (
    SCHEME_REPEAT,
    SCHEME_RLC,
    SCHEME_XOR,
    PacketBatch,
    decodable_layers,
    decode_block,
    decode_gop,
    encode_gop,
)
from .config import ConfigError, apply_overrides, load_config, parse_config_text
from .gf256 import gf256_inv, gf256_mul
from .heuristic import ThresholdPolicy, builtin_policy, select_strategy
from .media import LayerGrid, make_synthetic_gop
from .nodes import (
    FeedbackReport,
    ReceiverState,
    RelayState,
    SenderState,
    receiver_finalize_gop,
    receiver_ingest,
    relay_step,
    sender_epoch,
)
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
    load_table,
    nearest_bin,
    save_table,
    select_best,
)

__version__ = "0.1.0"

__all__ = [
    "ChainConfig",
    "ConfigError",
    "FeedbackReport",
    "LayerGrid",
    "LinkModel",
    "PDR_BINS",
    "PacketBatch",
    "ReceiverState",
    "RelayState",
    "RunMetrics",
    "SCHEME_REPEAT",
    "SCHEME_RLC",
    "SCHEME_XOR",
    "SenderState",
    "StrategyTable",
    "ThresholdPolicy",
    "apply_overrides",
    "build_table",
    "builtin_policy",
    "chain_e2e_pdr",
    "decodable_layers",
    "decode_block",
    "decode_gop",
    "encode_gop",
    "enumerate_strategies",
    "expected_decoded_layers",
    "gf256_inv",
    "gf256_mul",
    "load_config",
    "load_table",
    "make_synthetic_gop",
    "nearest_bin",
    "parse_config_text",
    "receiver_finalize_gop",
    "receiver_ingest",
    "relay_step",
    "resolve_mode",
    "run",
    "save_table",
    "select_best",
    "select_strategy",
    "sender_epoch",
    "sweep",
    "__version__",
]
