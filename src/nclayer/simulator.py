"""Chain simulation: one sender, optional relays, one receiver.

Strategy owners re-estimate delivery odds by probing the stretch of links
between themselves and the next re-encoding node (or the receiver), so a
chain of forwarders behaves like one long lossy pipe while each re-encoding
relay starts a fresh segment. The uncoded baseline is the "repeat" scheme
in the same loop: its sender repeats every source packet to fill the
budget, so it selects nothing, builds no table and sends no probes. Delay
is modelled per GOP as transmission time per packet put on a link, a
store-and-forward charge per relay, and a recode charge on top for
re-encoding relays. A run with a re-encoding relay is also charged
TABLE_BUILD_CHARGE, once, for building the strategy table; a run whose
relays all forward pays nothing for it.

run() carries GOPs through the chain in blocks of GOP_BLOCK, segment by
segment: the sender's segment for every GOP of the block, then each
re-encoding relay's in hop order. A segment's pass handles the whole block
as arrays. Each encoder's packet count per GOP is known before any draw (a
table or policy spends one budget; a re-encoding relay spends it on every
GOP its block decode recovered a layer of), so each link of the segment
makes one draw for the block, covering each GOP's probes and then its
packets, GOP by GOP, at the link's one delivery for the block: a block
also ends before each GOP at which pdr_schedule changes a delivery, and
that GOP's changes apply as it starts. The strategy picks, per-hop delays
and receiver scoring then run on the block, whose packets travel as each
GOP's per-class counts: nodes.pick_strategies gives the counts an encoder
sends from how many probes of its latest round survived, a whole number.
channel.send_block returns each link's survival mask over its draws,
and codec.surviving_counts reads from it, on each GOP's probes and then
its classes, both as they reach the next hop; a GOP is its row of the
counts, and run() alone knows its number. Where a step reads more than
classes, the packets travel as a PacketBlock, a block's class counts plus
its rows: encode_block makes it from the pick, each link selects from it
the packets its mask kept, and the selected block's counts are those in
flight.
That is in a verified run, whose relays and receiver decode coefficients
and payloads with decode_block, and under xor and repeat, whose depth is
which columns arrived. An unverified RLC run makes no rows: its relays
draw their depths from the decoder's law with codec.sample_depths. Every
RLC receiver scores the counts by the count rule. A relay's depths give
both its packet count per GOP and what it re-encodes. A decode reduces the
RLC systems of a block in gf_rref stacks of at most
codec.DECODE_STACK_BYTES. run() keeps the loop's state in its own locals:
each link's and each encoder's generator, the delivery probability in force
on each link, each encoder's surviving count of its latest probe round and
the verifying receiver's counts; the nodes hold no run state. Seeded
results are those of a GOP-by-GOP loop whatever the block size: every link
belongs to one segment and draws its probes and packets of GOP g before
those of g+1; in a verified run the sender and each re-encoding relay
draw the coefficients they encode, in GOP order, from their own generator,
and in an unverified one only RLC relays draw, their samples, in GOP
order; decoding draws nothing; and each GOP's delay is summed in hop
order. Each generator is seeded from its own child of the run's seed, child
i of SeedSequence(seed).spawn(n) made alone from its spawn key (i,), and only
for the generators the run draws from: a forwarding chain's links, say, but
no grid seed unless payload bytes travel.

run() is the one-row case of _run_rows, which carries rows that differ
only in their links' delivery, seed and label through one pass: a block
holds each row's next GOPs in turn along the same GOP axis, so every step
above runs once per block for all rows. Only drawing is per row: each
row's link, relay and sender generators and its grid seed draw its own
GOPs' values, in GOP order, split by codec._draw, and each row keeps its
own held probe counts and delivery in force, so a row's metrics are its
run()'s. sweep() hands each mode's grid points and repetitions to
passes of as many rows as GROUP_GOPS holds, and its pool maps over these
groups.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter, eq
from typing import Optional, Sequence

import numpy as np

from .channel import send_block
from .codec import (
    SCHEME_REPEAT,
    SCHEME_RLC,
    SCHEMES,
    _draw,
    _Rows,
    decodable_layers_batch,
    decode_block,
    encode_block,
    sample_depths,
    score_block,
    surviving_counts,
)
from .heuristic import ThresholdPolicy, builtin_policy
from .media import make_synthetic_cells
from .nodes import MODE_FORWARD, MODE_NC, RELAY_MODES, pick_strategies
from .spt import (
    StrategyTable,
    build_table,
    check_count,
    check_probability,
    check_sequence,
    is_real,
)

SELECTIONS = ("spt", "heuristic")

CSV_HEADER = "mode,hop_count,link_pdr,measured_pdr,npr,audl,delay,seed"

# GOPs of one row a block carries at most: each step of a block (probe and
# link draws, selection, encoding, delays, scoring) is a fixed number of
# numpy calls whatever its size, so a larger block cuts the calls per GOP,
# and a 50-GOP forwarding run or a 100-GOP sweep row is a single block; the
# block's own arrays grow with it. It does not bound decoder memory:
# decode_block splits each RLC decode into stacks of at most
# codec.DECODE_STACK_BYTES.
GOP_BLOCK = 256

# GOPs a sweep's pass carries in one block at most, over its rows: a sweep
# runs a mode's rows in groups of GROUP_GOPS // min(gop_count, GOP_BLOCK),
# so each row keeps whole blocks, as many draws a generator call as run()
# makes, and no block grows past it however many rows a sweep has. Six
# 100-GOP rows make one 600-GOP block, and 500-GOP rows go four to a pass.
GROUP_GOPS = 1024

# The delay, in seconds like recode_delay, that a run with a re-encoding
# relay is charged for building the strategy table the relay selects from.
TABLE_BUILD_CHARGE = 60.0


@dataclass
class ChainConfig:
    link_pdrs: tuple[float, ...] = (1.0,)
    relay_modes: tuple[str, ...] = ()
    layer_count: int = 4
    packets_per_layer: int = 8
    payload_size: int = 64
    budget: int = 64
    granularity: int = 4
    scheme: str = "rlc"
    selection: str = "spt"
    heuristic_set: int = 3
    gop_count: int = 100
    probe_count: int = 100
    update_period: int = 1
    transmit_delay: float = 0.001
    forward_delay: float = 0.005
    recode_delay: float = 60.0
    seed: int = 0
    verify_payloads: bool = False
    pdr_schedule: tuple[tuple[int, int, float], ...] = ()
    label: str = ""

    def __post_init__(self):
        for name, least in (
            ("layer_count", 1), ("packets_per_layer", 1), ("payload_size", 1), ("budget", 1),
            # a run that builds no table never reads its granularity
            ("granularity", 0), ("heuristic_set", 1), ("gop_count", 1), ("probe_count", 1),
            ("update_period", 1), ("seed", 0),
        ):
            check_count(name, getattr(self, name), least)
        self.link_pdrs = tuple(
            check_probability("link_pdrs", p)
            for p in check_sequence("link_pdrs", self.link_pdrs, nonempty=True)
        )
        links = len(self.link_pdrs)
        modes = tuple(check_sequence("relay_modes", self.relay_modes))
        self.relay_modes = modes or (MODE_FORWARD,) * (links - 1)
        if len(self.relay_modes) != links - 1:
            raise ValueError(
                f"relay_modes must name {links - 1} modes for {links} links, "
                f"got {len(self.relay_modes)}"
            )
        if any(m not in RELAY_MODES for m in self.relay_modes):
            raise ValueError(f"relay_modes must be in {RELAY_MODES}, got {self.relay_modes}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.scheme == SCHEME_REPEAT and MODE_NC in self.relay_modes:
            raise ValueError("scheme repeat sends uncoded packets, so no relay can re-encode them")
        if self.selection not in SELECTIONS:
            raise ValueError(f"selection must be one of {SELECTIONS}, got {self.selection!r}")
        source = self.layer_count * self.packets_per_layer
        if self.scheme == SCHEME_REPEAT and self.budget % source:
            raise ValueError(
                f"budget {self.budget} must be a multiple of the {source} source "
                f"packets the uncoded sender repeats"
            )
        if self.needs_table and (self.granularity < 1 or self.budget % self.granularity):
            raise ValueError(
                f"granularity {self.granularity} must be positive and divide "
                f"the budget {self.budget}"
            )
        for name in ("transmit_delay", "forward_delay", "recode_delay"):
            value = getattr(self, name)
            if not (is_real(value) and 0.0 <= value < math.inf):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if self.selection == "heuristic" and self.scheme != SCHEME_REPEAT:
            # every GOP spends the budget over layer_count classes, so a
            # policy must spend exactly it over exactly those
            policy = builtin_policy(self.heuristic_set)
            if len(policy.strategies[0]) != self.layer_count:
                raise ValueError(
                    f"layer_count {self.layer_count} differs from the "
                    f"{len(policy.strategies[0])} classes the threshold policy allocates"
                )
            if policy.budget != self.budget:
                raise ValueError(
                    f"budget {self.budget} differs from the {policy.budget} packets "
                    f"per GOP the threshold policy spends"
                )
        if not isinstance(self.verify_payloads, (bool, np.bool_)):
            raise ValueError(f"verify_payloads must be a bool, got {self.verify_payloads!r}")
        # a label is the first field of a CSV row
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a str, got {self.label!r}")
        if any(c in self.label for c in ",\r\n"):
            raise ValueError(f"label must not hold a comma or a line break, got {self.label!r}")
        schedule = []
        for n, entry in enumerate(check_sequence("pdr_schedule", self.pdr_schedule)):
            name = f"pdr_schedule[{n}]"
            if len(check_sequence(name, entry)) != 3:
                raise ValueError(f"{name} must be a (gop, link, pdr) triple, got {entry!r}")
            gop = check_count(f"{name} gop", entry[0], 0)
            link = check_count(f"{name} link", entry[1], 0)
            if link >= links:
                raise ValueError(f"{name} names link {link}, chain has {links}")
            schedule.append((gop, link, check_probability(f"{name} pdr", entry[2])))
        self.pdr_schedule = tuple(schedule)

    @property
    def hop_count(self) -> int:
        return len(self.link_pdrs)

    @property
    def needs_table(self) -> bool:
        """Whether a run selects from a strategy table: a re-encoding relay
        always does, and so does a coded sender under spt selection."""
        return MODE_NC in self.relay_modes or (
            self.selection == "spt" and self.scheme != SCHEME_REPEAT
        )


# the fields the rows of one _run_rows pass share
_SHARED = attrgetter(
    *(f.name for f in fields(ChainConfig) if f.name not in ("link_pdrs", "seed", "label"))
)


@dataclass
class RunMetrics:
    label: str
    hop_count: int
    link_pdrs: tuple[float, ...]
    npr: int
    sent_total: int
    measured_pdr: float
    audl: float
    total_delay: float
    # Each GOP's decoded depth, in the smallest signed integer type that
    # holds -layer_count - 1 (int8 up to 127 layers), and its delay, float64.
    per_gop_decoded: np.ndarray = field(repr=False)
    per_gop_delay: np.ndarray = field(repr=False)
    seed: int = 0
    # With verify_payloads: GOPs whose real decode fell short of the count
    # score, and GOPs whose decoded bytes differ from the source.
    prediction_gaps: int = 0
    payload_errors: int = 0
    # Probes put on air: each probe once per link it is sent on, over every
    # link of the run. A repeat (uncoded) sender sends none.
    probe_packets: int = 0

    def __eq__(self, other):
        # field by field, each per-GOP array as a whole; still unhashable
        if other.__class__ is not self.__class__:
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            same = np.array_equal if isinstance(mine, np.ndarray) else eq
            if not same(mine, theirs):
                return False
        return True


def _segments(config: ChainConfig) -> list[range]:
    """Link ranges probed by the sender and by each re-encoding relay, in
    hop order: each runs from its encoder to the next one or the receiver."""
    starts = [0] + [i + 1 for i, m in enumerate(config.relay_modes) if m == MODE_NC]
    return [range(a, b) for a, b in zip(starts, starts[1:] + [config.hop_count])]


def _packets_kept(alive, probes, packets) -> np.ndarray:
    """The rows of a block's packets that survive one link, in order, from
    the link's survival mask alive over its draws: probes[k] probes and then
    packets[k] packets for each GOP k."""
    if probes.any():
        # the block's packet i, of GOP k, is draw i plus the probes of GOPs 0..k
        alive = alive[np.arange(packets.sum()) + np.repeat(probes.cumsum(), packets)]
    return np.flatnonzero(alive)


def _check_table_matches(table: StrategyTable, config: ChainConfig) -> None:
    """A table built for other media or coding parameters would pick
    allocations for the wrong budget, so refuse it rather than run."""
    fields = ("budget", "layer_count", "packets_per_layer", "granularity")
    wrong = [
        f"{name}={getattr(table, name)} (config has {getattr(config, name)})"
        for name in fields
        if getattr(table, name) != getattr(config, name)
    ]
    if wrong:
        raise ValueError(f"strategy table does not match the config: {', '.join(wrong)}")


def run(config: ChainConfig, table: Optional[StrategyTable] = None) -> RunMetrics:
    """Simulates gop_count GOPs over the configured chain.

    GOPs go through in blocks of GOP_BLOCK, one pass per segment: each link
    draws once per block, for every GOP's probes and then its packets, and
    the probe counts, strategies, delays and scores of the block are array
    operations on its per-class packet counts, which travel with their
    packets' rows, as a PacketBlock, only in a verified run or under xor
    and repeat. The metrics are those of carrying the GOPs one at a time, for
    any block size. This is the one-row case of _run_rows.
    """
    return _run_rows([config], table)[0]


def _run_rows(
    configs: Sequence[ChainConfig], table: Optional[StrategyTable] = None
) -> list[RunMetrics]:
    """run() of each config, for configs that differ only in link_pdrs, seed
    and label, in one pass: a block holds each row's next GOPs, row after
    row, so each step runs once per block for every row. Each row draws
    from its own generators, which the draw sites take as one codec._Rows
    when there are several rows, so its metrics are those of its run alone.
    A block holds at most GOP_BLOCK GOPs of each row, at one delivery per
    link and row."""
    config = configs[0]
    rows = len(configs)
    if rows > 1 and any(_SHARED(c) != _SHARED(config) for c in configs[1:]):
        raise ValueError("the rows of one pass differ only in link_pdrs, seed and label")
    hops = config.hop_count
    n_relays = hops - 1

    def per_row(made):
        # one source per row: itself at one row, one codec._Rows at several,
        # which the draw sites split by row
        return made[0] if rows == 1 else _Rows(made)

    def generator(index):
        # each row's child index of SeedSequence(seed).spawn(n), any n > index
        return per_row([
            np.random.default_rng(np.random.SeedSequence(c.seed, spawn_key=(index,)))
            for c in configs
        ])

    if table is not None:
        _check_table_matches(table, config)
    repeat = config.scheme == SCHEME_REPEAT
    # Payload bytes travel only when checked, and only then do decoders
    # eliminate and encoders draw coefficients. An unverified RLC run reads
    # nothing of a packet but its class, so it carries each GOP's class
    # counts and makes no packet rows; its relays sample their depths from
    # their generators. Each generator has its own child of the run's seed,
    # links 0..hops-1, relays hops + position, the sender and then the grid
    # seed after them, made only when drawn from, so none moves another's
    # draws.
    verify = config.verify_payloads
    width = config.payload_size if verify else 0
    counted = config.scheme == SCHEME_RLC and not verify
    grid_seed = per_row([
        int(np.random.SeedSequence(c.seed, spawn_key=(hops + n_relays + 1,)).generate_state(1)[0])
        if width
        else 0
        for c in configs
    ])
    sender_segment, *relay_segments = _segments(config)

    if config.needs_table and table is None:
        table = build_table(
            budget=config.budget,
            layer_count=config.layer_count,
            packets_per_layer=config.packets_per_layer,
            granularity=config.granularity,
        )

    # each link is its own generator; the delivery probability in force on
    # each row's links, which the schedule changes, is the pass's to keep
    link_rngs = [generator(i) for i in range(hops)]
    pdr_now = np.array([c.link_pdrs for c in configs])
    if repeat:
        # every source packet, budget // (layer_count * packets_per_layer) times
        copies = (config.budget // config.layer_count,) * config.layer_count
        selector = ThresholdPolicy((), (copies,))
    elif config.selection == "spt":
        selector = table
    else:
        selector = builtin_policy(config.heuristic_set)
    sender_rng = generator(hops + n_relays) if verify else None

    # each encoder's table or policy, the links it probes and sends over and
    # its generator, which encodes in a verified run and samples depths at
    # a relay of an unverified RLC run: the sender's segment, then each
    # relay's, in hop order
    segments = [(selector, sender_segment, sender_rng)]
    for segment in relay_segments:
        # the relay at position i starts the segment at link i + 1
        rng = generator(hops + segment.start - 1) if verify or counted else None
        segments.append((table, segment, rng))
    # each encoder's surviving probe count in each row, held from its latest
    # probe round; before the first, every probe counts as through
    held_seen = [np.full(rows, config.probe_count)] * len(segments)
    # each row's packets received, probes on air, short decodes and wrong ones
    npr, probe_packets = [0] * rows, [0] * rows
    prediction_gaps, payload_errors = [0] * rows, [0] * rows
    # each row's depth and delay of each GOP
    per_gop_decoded = np.zeros(
        (rows, config.gop_count), np.min_scalar_type(-config.layer_count - 1)
    )
    per_gop_delay = np.zeros((rows, config.gop_count))
    # each row's delays added so far, in GOP order whatever the Python: not
    # pairwise, as np.sum adds, nor compensated, as sum() does from 3.12
    total_delay = np.zeros(rows)

    # blocks of at most GOP_BLOCK GOPs, each also ending before a GOP at
    # which the schedule changes a delivery; that GOP's changes apply as its
    # block starts, in config order, so the last one to a link wins
    starts = sorted({
        *range(0, config.gop_count, GOP_BLOCK),
        *(g for g, _, _ in config.pdr_schedule if g < config.gop_count),
    })
    for first, stop in zip(starts, starts[1:] + [config.gop_count]):
        for gop_index, link_index, new_pdr in config.pdr_schedule:
            if gop_index == first:
                pdr_now[:, link_index] = new_pdr
        # each row's GOPs of the block; the block's arrays hold them row
        # after row, n per row
        gops = np.arange(first, stop)
        n = gops.size
        cells = None
        if not counted:
            cells = _draw(
                grid_seed, rows * n, None, _cells,
                gops, config.layer_count, config.packets_per_layer, width,
            )
        probes = np.where(gops % config.update_period == 0, config.probe_count, 0)
        if repeat:
            probes[:] = 0
        # latest[k]: the block's GOP of the latest probe round by GOP k in
        # its row; before the row's first, -1 in the last row, -2 in the
        # one before and so on, which name the rows' held counts placed
        # after the block's
        latest = np.maximum.accumulate(np.where(probes > 0, np.arange(n), -1))
        if rows > 1:
            latest = np.where(
                latest >= 0, latest + n * np.arange(rows)[:, None], np.arange(-rows, 0)[:, None]
            ).ravel()
            probes = np.tile(probes, rows)
        delays = np.zeros(rows * n)
        # counts[k, c]: the packets of class c + 1 of GOP k in flight; block,
        # those counts plus the packets' rows, where a step reads more than
        # classes
        counts = block = None
        for index, (selector, segment, rng) in enumerate(segments):
            # (segment links, rows): each link's delivery in each row
            pdrs = pdr_now[:, segment.start : segment.stop].T
            if index == 0:
                held = np.full(rows * n, config.layer_count)
                source = cells
            elif counted:
                held = sample_depths(counts, config.packets_per_layer, rng)
            else:
                held, source = decode_block(block)
            # every encoder spends the budget on each GOP it holds a layer
            # of, and sends nothing for the others
            sending = np.where(held > 0, config.budget, 0)
            # one draw per link for the block: probes and packets, GOP by GOP;
            # kept[j], link j's survival mask over its draws
            alive, kept = send_block([link_rngs[i] for i in segment], probes, sending, pdrs)
            # the sender's feedback, round(share * probes), is the surviving
            # count itself
            seen = np.concatenate([alive, held_seen[index]])[latest]
            held_seen[index] = seen[n - 1 :: n]
            counts = pick_strategies(selector, seen, config.probe_count, held)
            sizes = counts.sum(axis=1)
            if (sizes != sending).any():
                raise RuntimeError(
                    f"an encoder sent {sizes.tolist()} packets per GOP, "
                    f"its links drew for {sending.tolist()}"
                )
            if not counted:
                block = encode_block(source, counts, config.scheme, rng)
            # runs[k]: GOP k's probes that reach the hop, then its packets
            # of each class. A link draws for them in that order, so one read
            # of its mask gives the runs that reach the next hop; a
            # probe is on air on every link it reaches
            runs = np.concatenate([probes[:, None], counts], axis=1)
            aired = probes
            for hop, link_kept in zip(segment, kept):
                reached = runs[:, 0]
                if hop > segment.start:
                    aired = aired + reached
                delays += sizes * config.transmit_delay
                runs = surviving_counts(runs, link_kept)
                counts = runs[:, 1:]
                if not counted:
                    block = block._take(_packets_kept(link_kept, reached, sizes), counts)
                sizes = counts.sum(axis=1)
                if hop < n_relays:
                    delays += config.forward_delay
                    if config.relay_modes[hop] == MODE_NC:
                        # re-encodes at the head of the next segment
                        delays += config.recode_delay
            _add_rows(probe_packets, aired)

        if config.scheme == SCHEME_RLC:
            scores = decodable_layers_batch(counts, config.packets_per_layer)
        else:
            scores = score_block(block)
        if verify:
            depths, decoded = decode_block(block)
            _add_rows(prediction_gaps, depths < scores)
            # a GOP decoded wrong when a cell of its recovered prefix differs
            wrong = (decoded != cells).any(axis=(2, 3)) & (
                np.arange(config.layer_count) < depths[:, None]
            )
            _add_rows(payload_errors, wrong.any(axis=1))
        _add_rows(npr, sizes)
        per_gop_decoded[:, first:stop] = scores.reshape(rows, n)
        per_gop_delay[:, first:stop] = delays.reshape(rows, n)
        total_delay = np.add.accumulate(
            np.column_stack([total_delay, per_gop_delay[:, first:stop]]), axis=1
        )[:, -1]

    build_charge = TABLE_BUILD_CHARGE if MODE_NC in config.relay_modes else 0.0
    sent_total = config.budget * config.gop_count
    default_label = "uncoded" if repeat else f"{config.selection}-{config.scheme}"
    return [
        RunMetrics(
            label=c.label or f"{default_label}-{hops}hop",
            hop_count=hops,
            link_pdrs=c.link_pdrs,
            npr=received,
            sent_total=sent_total,
            measured_pdr=received / sent_total,
            # the exact integer sum, divided once: the float np.mean gives
            audl=int(decoded.sum()) / config.gop_count,
            total_delay=float(delay_sum) + build_charge,
            per_gop_decoded=decoded,
            per_gop_delay=delay,
            seed=c.seed,
            prediction_gaps=gaps,
            payload_errors=errors,
            probe_packets=aired,
        )
        for c, received, decoded, delay, delay_sum, gaps, errors, aired in zip(
            configs, npr, per_gop_decoded, per_gop_delay, total_delay, prediction_gaps,
            payload_errors, probe_packets,
        )
    ]


def _add_rows(totals: list, values: np.ndarray) -> None:
    """Adds to each row's total its sum of values, one per GOP of a block
    that holds each row's GOPs in turn."""
    if len(totals) == 1:
        totals[0] += int(values.sum())
        return
    for row, value in enumerate(values.reshape(len(totals), -1).sum(axis=1).tolist()):
        totals[row] += value


def _cells(grid_seed, n, row, gop_ids, layer_count, packets_per_layer, width):
    """The grids of one run's GOPs gop_ids, from its grid seed."""
    return make_synthetic_cells(gop_ids, layer_count, packets_per_layer, width, grid_seed)


_MODE_PATTERNS = (
    re.compile(r"^nonc(\d+)$"),
    re.compile(r"^nc(\d+)(?:-e2e|-(hbh)(\d*))?$"),
    re.compile(r"^heuristic-(\d+)$"),
    re.compile(r"^spt$"),
)


def resolve_mode(mode: str, base: ChainConfig) -> ChainConfig:
    """The config of a sweep mode label: base with the mode's chain shape,
    selection and scheme, labelled with the mode. A chain of another hop
    count than base's takes base's first link delivery on every link.

    NoNC<k>    uncoded baseline (the repeat scheme) over k hops
    NC<k>      table-driven sender over k hops, relays forward (same as -E2E)
    NC<k>-HBH  every relay re-encodes; -HBH<m> limits that to the first m
    heuristic-<s>  threshold set s on the base chain shape
    spt        table-driven sender on the base chain shape
    """
    text = mode.strip().lower()
    hops = base.hop_count
    relay_modes = base.relay_modes
    selection, heuristic_set, scheme = "spt", base.heuristic_set, base.scheme
    m = _MODE_PATTERNS[0].match(text) or _MODE_PATTERNS[1].match(text)
    if m:
        hops = int(m.group(1))
        if hops < 1:
            raise ValueError(f"mode {mode!r} needs at least one hop")
        n_nc = 0
        if m.re is _MODE_PATTERNS[0]:
            scheme = SCHEME_REPEAT
        elif m.group(2) == "hbh":
            n_nc = hops - 1 if not m.group(3) else int(m.group(3))
            if n_nc > hops - 1:
                raise ValueError(
                    f"mode {mode!r} asks for {n_nc} re-encoding relays, "
                    f"chain only has {hops - 1}"
                )
        relay_modes = tuple(MODE_NC if i < n_nc else MODE_FORWARD for i in range(hops - 1))
    elif m := _MODE_PATTERNS[2].match(text):
        selection, heuristic_set = "heuristic", int(m.group(1))
    elif not _MODE_PATTERNS[3].match(text):
        raise ValueError(
            f"unknown sweep mode {mode!r}; expected NoNC<k>, NC<k>[-E2E|-HBH[<m>]], "
            f"heuristic-<set>, or spt"
        )
    link_pdrs = base.link_pdrs if hops == base.hop_count else (base.link_pdrs[0],) * hops
    return replace(
        base,
        link_pdrs=link_pdrs,
        relay_modes=relay_modes,
        selection=selection,
        heuristic_set=heuristic_set,
        scheme=scheme,
        label=mode.strip(),
    )


def _task_seed(master: int, grid_index: int, mode_index: int, rep: int) -> int:
    return int(
        np.random.SeedSequence([master, grid_index, mode_index, rep]).generate_state(1)[0]
    )


def sweep(
    base: ChainConfig,
    pdr_grid: Sequence[float],
    modes: Sequence[str],
    reps: int = 1,
    jobs: int = 1,
) -> list[dict]:
    """Runs every (pdr, mode, repetition) combination and returns one row per
    run, in task order regardless of how many workers execute them. Each row
    runs every link at its grid delivery, so a base with a pdr_schedule is
    refused."""
    for p in check_sequence("pdr_grid", pdr_grid, nonempty=True):
        check_probability("pdr_grid", p)
    check_sequence("modes", modes, nonempty=True)
    check_count("reps", reps, 1)
    check_count("jobs", jobs, 1)
    if base.pdr_schedule:
        raise ValueError(
            f"sweep runs each link at its grid delivery; base pdr_schedule "
            f"(schedule.<n>) {base.pdr_schedule} would not run"
        )

    resolved = [resolve_mode(m, base) for m in modes]
    shared_table: Optional[StrategyTable] = None
    if any(cfg.needs_table for cfg in resolved):
        shared_table = build_table(
            budget=base.budget,
            layer_count=base.layer_count,
            packets_per_layer=base.packets_per_layer,
            granularity=base.granularity,
        )

    # each mode's grid points and repetitions differ only in their links'
    # delivery and their seed, so they run as one pass (_run_rows), in
    # groups whose block of each row's first GOP_BLOCK GOPs fits in
    # GROUP_GOPS
    size = max(1, GROUP_GOPS // min(base.gop_count, GOP_BLOCK))
    groups = []
    for mode_index, cfg in enumerate(resolved):
        rows = [
            replace(
                cfg,
                link_pdrs=(float(p),) * cfg.hop_count,
                seed=_task_seed(base.seed, grid_index, mode_index, rep),
            )
            for grid_index, p in enumerate(pdr_grid)
            for rep in range(reps)
        ]
        groups += [rows[i : i + size] for i in range(0, len(rows), size)]

    def _execute(group):
        return [metrics_row(m) for m in _run_rows(group, table=shared_table)]

    if jobs == 1:
        done = [_execute(g) for g in groups]
    else:
        # imported here: the thread pool module costs every interpreter that
        # imports nclayer 10-20 ms of CPU, and only a pooled sweep uses it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_execute, groups))
    # done holds the rows mode by mode, each mode's grid point by grid point;
    # back in task order, (pdr, mode, repetition) with pdr slowest
    rows = [row for group in done for row in group]
    per_mode = len(pdr_grid) * reps
    return [
        rows[mode_index * per_mode + grid_index * reps + rep]
        for grid_index in range(len(pdr_grid))
        for mode_index in range(len(resolved))
        for rep in range(reps)
    ]


def format_row(row: dict) -> str:
    return (
        f"{row['mode']},{row['hop_count']},{row['link_pdr']:.4f},"
        f"{row['measured_pdr']:.6f},{row['npr']},{row['audl']:.6f},"
        f"{row['delay']:.6f},{row['seed']}"
    )


def write_rows(rows: Sequence[dict], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(format_row(row) + "\n")


def read_rows(path) -> bytes:
    """The bytes of the result CSV at path, none if there is no file yet.
    A file that does not start with the header line or does not end in a
    line break holds something else, so ValueError names it, and a path
    no result file can be read or made at, a directory or a file in a
    missing directory say, raises OSError."""
    header = (CSV_HEADER + "\n").encode("ascii")
    try:
        with open(path, "rb") as fh:
            held = fh.read()
    except FileNotFoundError:
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise
        return b""
    if held and not (held.startswith(header) and held.endswith(b"\n")):
        raise ValueError(
            f"{path} is not a CSV of result rows: it must start with the line "
            f"{CSV_HEADER!r} and end in a line break"
        )
    return held


def append_row(row: dict, path) -> None:
    """Appends a row to the CSV at path, headed first if the file is new or
    empty; a file read_rows refuses is left as it is."""
    held = read_rows(path)
    with open(path, "a", encoding="ascii") as fh:
        if not held:
            fh.write(CSV_HEADER + "\n")
        fh.write(format_row(row) + "\n")


def metrics_row(metrics: RunMetrics) -> dict:
    """Flattens run metrics into the sweep row schema. The link_pdr column
    carries the mean per-link delivery probability; a chain whose links all
    share one value reports that value exactly, as a sweep grid gave it."""
    pdrs = metrics.link_pdrs
    return {
        "mode": metrics.label,
        "hop_count": metrics.hop_count,
        "link_pdr": pdrs[0] if len(set(pdrs)) == 1 else float(np.mean(pdrs)),
        "measured_pdr": metrics.measured_pdr,
        "npr": metrics.npr,
        "audl": metrics.audl,
        "delay": metrics.total_delay,
        "seed": metrics.seed,
    }
