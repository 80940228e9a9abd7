"""Per-node behaviour along the delivery chain.

The sender picks a replica allocation from its table (or threshold policy)
and encodes each GOP. An intermediate either forwards whatever arrives, or
decodes what it can and re-encodes the recovered prefix at full budget with
a strategy restricted to the depths it actually holds. The receiver scores
each GOP by what its scheme's decoder recovers: RLC by the count-based
decode rule on per-class arrivals, XOR and repeat by which (depth, column)
cells arrived. Packets travel as one PacketBatch per GOP. An RLC encoder
with no decoder downstream sends coefficient-free packets, since the count
rule reads only their classes. A re-encoding relay and a verifying receiver
can decode a block of GOPs in one call (``decode_arrivals``) and hand each
GOP's decode to the per-GOP step; without one, a step decodes its GOP alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .codec import (
    SCHEME_RLC,
    PacketBatch,
    check_columns,
    covered_depth,
    decodable_layers,
    decode_block,
    encode_gop,
)
from .heuristic import ThresholdPolicy, select_strategy
from .media import LayerGrid
from .spt import StrategyTable, best_restricted, nearest_bin, select_best

MODE_FORWARD = "forward"
MODE_NC = "nc"
RELAY_MODES = (MODE_FORWARD, MODE_NC)


@dataclass
class FeedbackReport:
    """Outcome of one probe round, reported back to the strategy owner."""

    node_id: str
    delivered: int
    probes: int

    @property
    def ratio(self) -> float:
        if self.probes < 1:
            raise ValueError(f"probe count must be positive, got {self.probes}")
        return self.delivered / self.probes


def _fresh_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


@dataclass
class SenderState:
    """Picks each GOP's strategy from a table or a threshold policy; with
    neither, it sends every GOP under the fixed strategy it was given."""

    scheme: str
    table: Optional[StrategyTable] = None
    policy: Optional[ThresholdPolicy] = None
    update_period: int = 1
    pdr_estimate: float = 1.0
    strategy: Optional[tuple[int, ...]] = None
    gop_counter: int = 0
    coeff_width: Optional[int] = None
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self):
        if self.table is not None and self.policy is not None:
            raise ValueError("sender needs exactly one of table or policy")
        if self.table is None and self.policy is None and self.strategy is None:
            raise ValueError("sender needs a table, a policy or a fixed strategy")
        if self.update_period < 1:
            raise ValueError(f"update_period must be positive, got {self.update_period}")


def sender_epoch(
    state: SenderState, grid: LayerGrid, feedback: Optional[FeedbackReport] = None
) -> PacketBatch:
    """Encodes one GOP; the strategy refreshes only on period boundaries."""
    if feedback is not None:
        state.pdr_estimate = feedback.ratio
    if state.strategy is None or state.gop_counter % state.update_period == 0:
        if state.table is not None:
            state.strategy = select_best(state.table, state.pdr_estimate)
        elif state.policy is not None:
            state.strategy = select_strategy(state.policy, state.pdr_estimate)
    state.gop_counter += 1
    return encode_gop(
        grid, state.strategy, state.scheme, _fresh_seed(state.rng), state.coeff_width
    )


@dataclass
class RelayState:
    mode: str
    scheme: str
    layer_count: int
    packets_per_layer: int
    payload_size: int
    table: Optional[StrategyTable] = None
    pdr_estimate: float = 1.0
    forward_delay: float = 0.005
    recode_delay: float = 60.0
    last_decoded: int = 0
    coeff_width: Optional[int] = None
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self):
        if self.mode not in RELAY_MODES:
            raise ValueError(f"unknown relay mode {self.mode!r}, expected one of {RELAY_MODES}")
        if self.mode == MODE_NC and self.table is None:
            raise ValueError("a re-encoding relay needs a strategy table")


def decode_arrivals(state, batches: Sequence[PacketBatch]) -> list[tuple[int, LayerGrid]]:
    """What a re-encoding relay or a verifying receiver (``state``) recovers
    from each GOP of a block, one batch per GOP: (depth, grid) per batch,
    decoded in one ``decode_block`` call, so RLC systems share one stacked
    elimination."""
    return decode_block(batches, state.layer_count, state.packets_per_layer, state.payload_size)


def relay_step(
    state: RelayState,
    packets: PacketBatch,
    decoded: Optional[tuple[int, LayerGrid]] = None,
) -> PacketBatch:
    """Forward mode passes packets through untouched. Re-encode mode decodes
    the deepest available prefix and spends the full budget on it, never
    emitting a class deeper than what it decoded; with nothing decoded it
    emits an empty batch. ``decoded`` is this GOP's entry of
    ``decode_arrivals`` when the caller decoded a block at once; without it
    the relay decodes the GOP alone."""
    if state.mode == MODE_FORWARD:
        return packets
    if not len(packets):
        state.last_decoded = 0
        return packets
    if decoded is None:
        (decoded,) = decode_arrivals(state, [packets])
    depth, grid = decoded
    state.last_decoded = depth
    if depth == 0:
        return packets[:0]
    strategy = best_restricted(state.table, nearest_bin(state.pdr_estimate), depth)
    if strategy is None:
        return packets[:0]
    return encode_gop(
        grid, strategy, state.scheme, _fresh_seed(state.rng), state.coeff_width
    )


@dataclass
class ReceiverState:
    layer_count: int
    packets_per_layer: int
    payload_size: int
    scheme: str = SCHEME_RLC
    verify_payloads: bool = False
    counts: np.ndarray = field(init=False)
    seen: np.ndarray = field(init=False)
    buffer: list = field(init=False, default_factory=list)
    history: list = field(init=False, default_factory=list)
    prediction_gaps: int = 0
    payload_errors: int = 0

    def __post_init__(self):
        self.counts = np.zeros(self.layer_count, dtype=np.int64)
        self.seen = np.zeros((self.layer_count, self.packets_per_layer), dtype=bool)


def receiver_ingest(state: ReceiverState, packets: PacketBatch) -> None:
    """Adds a batch's arrivals to the current GOP: per-class counts for RLC,
    the (depth, column) cells covered for the column schemes."""
    if not len(packets):
        return
    if packets.scheme != state.scheme:
        raise ValueError(f"receiver expects {state.scheme} packets, got {packets.scheme}")
    depth = packets.depth
    if depth.min() < 1 or depth.max() > state.layer_count:
        raise ValueError(
            f"packet class depths {depth.min()}..{depth.max()} "
            f"outside 1..{state.layer_count}"
        )
    if packets.column is None:
        state.counts += np.bincount(depth, minlength=state.layer_count + 1)[1:]
    else:
        check_columns(packets.column, state.packets_per_layer)
        state.seen[depth - 1, packets.column] = True
    if state.verify_payloads:
        state.buffer.append(packets)


def receiver_finalize_gop(
    state: ReceiverState,
    reference: Optional[LayerGrid] = None,
    decoded: Optional[tuple[int, LayerGrid]] = None,
) -> int:
    """Scores the finished GOP and resets state.

    RLC is scored by the count rule, which a singular random system can
    miss; XOR and repeat by column coverage, which is exactly their decoded
    depth. In payload-verification mode the buffered packets are actually
    decoded: a decode shallower than the score bumps prediction_gaps, and
    recovered bytes differing from the reference bump payload_errors.
    ``decoded`` is the ``decode_arrivals`` entry of the GOP's one ingested
    batch when the caller decoded a block at once; without it the buffered
    packets are decoded here.
    """
    if state.scheme == SCHEME_RLC:
        predicted = decodable_layers(state.counts.tolist(), state.packets_per_layer)
    else:
        predicted = covered_depth(state.seen)
    if state.verify_payloads and state.buffer:
        if decoded is None:
            (decoded,) = decode_arrivals(state, [PacketBatch.concat(state.buffer)])
        actual, grid = decoded
        if actual < predicted:
            state.prediction_gaps += 1
        if reference is not None and actual > 0:
            if not np.array_equal(grid.cells[:actual], reference.cells[:actual]):
                state.payload_errors += 1
    state.history.append(predicted)
    state.counts[:] = 0
    state.seen[:] = False
    state.buffer = []
    return predicted
