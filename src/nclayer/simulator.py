"""Chain simulation: one sender, optional relays, one receiver.

Strategy owners re-estimate delivery odds by probing the stretch of links
between themselves and the next re-encoding node (or the receiver), so a
chain of forwarders behaves like one long lossy pipe while each re-encoding
relay starts a fresh segment. Delay is modelled per GOP as transmission time
per packet put on a link, a store-and-forward charge per relay, and a
recode charge on top for re-encoding relays; building a strategy table is
charged once per run or once per re-encoding node, depending on policy.
"""

from __future__ import annotations

import math
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .channel import LinkModel, chain_e2e_pdr
from .heuristic import ThresholdPolicy, builtin_policy
from .media import make_synthetic_gop
from .nodes import (
    MODE_FORWARD,
    MODE_NC,
    RELAY_MODES,
    FeedbackReport,
    ReceiverState,
    RelayState,
    SenderState,
    receiver_finalize_gop,
    receiver_ingest,
    relay_step,
    sender_epoch,
)
from .spt import StrategyTable, build_table

SELECTIONS = ("spt", "heuristic")
CHARGING_POLICIES = ("amortized", "per-node")

CSV_HEADER = "mode,hop_count,link_pdr,measured_pdr,npr,audl,delay,seed"


@dataclass
class ChainConfig:
    link_pdrs: tuple[float, ...] = (1.0,)
    relay_modes: tuple[str, ...] = ()
    link_delays: tuple[float, ...] = ()
    layer_count: int = 4
    packets_per_layer: int = 8
    payload_size: int = 64
    budget: int = 64
    granularity: int = 4
    scheme: str = "rlc"
    selection: str = "spt"
    heuristic_set: int = 3
    custom_policy: Optional[ThresholdPolicy] = None
    gop_count: int = 100
    probe_count: int = 100
    update_period: int = 1
    transmit_delay: float = 0.001
    forward_delay: float = 0.005
    recode_delay: float = 60.0
    table_build_charge: float = 60.0
    table_charging: str = "amortized"
    seed: int = 0
    verify_payloads: bool = False
    pdr_schedule: tuple[tuple[int, int, float], ...] = ()
    label: str = ""

    def __post_init__(self):
        self.link_pdrs = tuple(float(p) for p in self.link_pdrs)
        if not self.link_pdrs:
            raise ValueError("need at least one link")
        if any(not 0.0 <= p <= 1.0 for p in self.link_pdrs):
            raise ValueError(f"link pdr values must lie in [0, 1], got {self.link_pdrs}")
        if not self.relay_modes:
            self.relay_modes = (MODE_FORWARD,) * (len(self.link_pdrs) - 1)
        else:
            self.relay_modes = tuple(self.relay_modes)
        if len(self.relay_modes) != len(self.link_pdrs) - 1:
            raise ValueError(
                f"{len(self.link_pdrs)} links need {len(self.link_pdrs) - 1} relay "
                f"modes, got {len(self.relay_modes)}"
            )
        if any(m not in RELAY_MODES for m in self.relay_modes):
            raise ValueError(f"relay modes must be in {RELAY_MODES}, got {self.relay_modes}")
        if self.link_delays:
            self.link_delays = tuple(float(d) for d in self.link_delays)
            if len(self.link_delays) != len(self.link_pdrs):
                raise ValueError(
                    f"{len(self.link_pdrs)} links need {len(self.link_pdrs)} delays, "
                    f"got {len(self.link_delays)}"
                )
        if self.selection not in SELECTIONS:
            raise ValueError(f"selection must be one of {SELECTIONS}, got {self.selection!r}")
        if self.table_charging not in CHARGING_POLICIES:
            raise ValueError(
                f"table_charging must be one of {CHARGING_POLICIES}, got {self.table_charging!r}"
            )
        if self.gop_count < 1:
            raise ValueError(f"gop_count must be positive, got {self.gop_count}")
        if self.probe_count < 1:
            raise ValueError(f"probe_count must be positive, got {self.probe_count}")
        if self.update_period < 1:
            raise ValueError(f"update_period must be positive, got {self.update_period}")
        self.pdr_schedule = tuple(
            (int(g), int(i), float(p)) for g, i, p in self.pdr_schedule
        )
        for gop_index, link_index, new_pdr in self.pdr_schedule:
            if gop_index < 0:
                raise ValueError(f"schedule gop index must be non-negative, got {gop_index}")
            if not 0 <= link_index < len(self.link_pdrs):
                raise ValueError(
                    f"schedule names link {link_index}, chain has {len(self.link_pdrs)}"
                )
            if not 0.0 <= new_pdr <= 1.0:
                raise ValueError(f"schedule pdr must lie in [0, 1], got {new_pdr}")

    @property
    def hop_count(self) -> int:
        return len(self.link_pdrs)


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
    per_gop_decoded: list[int] = field(repr=False, default_factory=list)
    per_gop_delay: list[float] = field(repr=False, default_factory=list)
    table_build_seconds: float = 0.0
    seed: int = 0


def _policy_for(config: ChainConfig) -> ThresholdPolicy:
    if config.custom_policy is not None:
        return config.custom_policy
    return builtin_policy(config.heuristic_set)


def _segments(config: ChainConfig) -> tuple[range, dict[int, range]]:
    """Link ranges probed by the sender and by each re-encoding relay."""
    nc_positions = [i for i, m in enumerate(config.relay_modes) if m == MODE_NC]
    first = nc_positions[0] + 1 if nc_positions else config.hop_count
    sender_segment = range(0, first)
    relay_segments: dict[int, range] = {}
    for order, pos in enumerate(nc_positions):
        end = (
            nc_positions[order + 1] + 1
            if order + 1 < len(nc_positions)
            else config.hop_count
        )
        relay_segments[pos] = range(pos + 1, end)
    return sender_segment, relay_segments


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
    """Simulates gop_count GOPs over the configured chain."""
    hops = config.hop_count
    n_relays = hops - 1
    seed_seq = np.random.SeedSequence(config.seed)
    children = seed_seq.spawn(hops + n_relays + 2)
    link_children = children[:hops]
    relay_children = children[hops : hops + n_relays]
    sender_child = children[hops + n_relays]
    grid_seed = int(children[hops + n_relays + 1].generate_state(1)[0])

    if table is not None:
        _check_table_matches(table, config)
    needs_table = config.selection == "spt" or MODE_NC in config.relay_modes
    build_seconds = 0.0
    if needs_table and table is None:
        start = time.perf_counter()
        table = build_table(
            budget=config.budget,
            layer_count=config.layer_count,
            packets_per_layer=config.packets_per_layer,
            granularity=config.granularity,
            method="exact",
            seed=config.seed,
        )
        build_seconds = time.perf_counter() - start

    delays = config.link_delays or (config.transmit_delay,) * hops
    links = [
        LinkModel(p, seed=child, transmit_delay=d)
        for p, child, d in zip(config.link_pdrs, link_children, delays)
    ]
    sender = SenderState(
        budget=config.budget,
        scheme=config.scheme,
        table=table if config.selection == "spt" else None,
        policy=None if config.selection == "spt" else _policy_for(config),
        update_period=config.update_period,
        rng=np.random.default_rng(sender_child),
    )
    relays = [
        RelayState(
            mode=mode,
            budget=config.budget,
            scheme=config.scheme,
            layer_count=config.layer_count,
            packets_per_layer=config.packets_per_layer,
            payload_size=config.payload_size,
            table=table if mode == MODE_NC else None,
            forward_delay=config.forward_delay,
            recode_delay=config.recode_delay,
            rng=np.random.default_rng(child),
        )
        for mode, child in zip(config.relay_modes, relay_children)
    ]
    receiver = ReceiverState(
        layer_count=config.layer_count,
        packets_per_layer=config.packets_per_layer,
        payload_size=config.payload_size,
        verify_payloads=config.verify_payloads,
    )
    sender_segment, relay_segments = _segments(config)

    schedule: dict[int, list[tuple[int, float]]] = {}
    for gop_index, link_index, new_pdr in config.pdr_schedule:
        schedule.setdefault(int(gop_index), []).append((int(link_index), float(new_pdr)))

    sent_total = 0
    npr = 0
    per_gop_decoded: list[int] = []
    per_gop_delay: list[float] = []
    feedback: Optional[FeedbackReport] = None

    for gop_index in range(config.gop_count):
        for link_index, new_pdr in schedule.get(gop_index, ()):
            links[link_index].delivery_prob = new_pdr

        if gop_index % config.update_period == 0:
            estimate = chain_e2e_pdr(
                [links[i] for i in sender_segment], config.probe_count
            )
            feedback = FeedbackReport(
                "sender",
                delivered=round(estimate * config.probe_count),
                probes=config.probe_count,
            )
            for pos, segment in relay_segments.items():
                relays[pos].pdr_estimate = chain_e2e_pdr(
                    [links[i] for i in segment], config.probe_count
                )

        grid = make_synthetic_gop(
            gop_index,
            config.layer_count,
            config.packets_per_layer,
            config.payload_size,
            grid_seed,
        )
        current = sender_epoch(sender, grid, feedback)
        sent_total += len(current)
        gop_delay = 0.0
        for hop in range(hops):
            gop_delay += len(current) * links[hop].transmit_delay
            current = links[hop].transmit(current)
            if hop < n_relays:
                relay = relays[hop]
                gop_delay += relay.forward_delay
                if relay.mode == MODE_NC:
                    gop_delay += relay.recode_delay
                current = relay_step(relay, current)
        for packet in current:
            receiver_ingest(receiver, packet)
        npr += len(current)
        decoded = receiver_finalize_gop(
            receiver, reference=grid if config.verify_payloads else None
        )
        per_gop_decoded.append(decoded)
        per_gop_delay.append(gop_delay)

    n_nc = sum(1 for m in config.relay_modes if m == MODE_NC)
    build_charge = 0.0
    if n_nc:
        multiplier = n_nc if config.table_charging == "per-node" else 1
        build_charge = config.table_build_charge * multiplier

    audl = float(np.mean(per_gop_decoded)) if per_gop_decoded else 0.0
    return RunMetrics(
        label=config.label or f"{config.selection}-{config.scheme}-{hops}hop",
        hop_count=hops,
        link_pdrs=config.link_pdrs,
        npr=npr,
        sent_total=sent_total,
        measured_pdr=npr / sent_total if sent_total else 0.0,
        audl=audl,
        total_delay=sum(per_gop_delay) + build_charge,
        per_gop_decoded=per_gop_decoded,
        per_gop_delay=per_gop_delay,
        table_build_seconds=build_seconds,
        seed=config.seed,
    )


def no_nc_baseline(config: ChainConfig) -> RunMetrics:
    """Uncoded reference: every source packet is repeated ceil(B/N) times and
    a layer counts as decoded only when it and every layer below arrived
    complete. Relays always forward."""
    hops = config.hop_count
    seed_seq = np.random.SeedSequence(config.seed)
    children = seed_seq.spawn(hops + (hops - 1) + 2)
    link_children = children[:hops]
    delays = config.link_delays or (config.transmit_delay,) * hops
    links = [
        LinkModel(p, seed=child, transmit_delay=d)
        for p, child, d in zip(config.link_pdrs, link_children, delays)
    ]

    n_source = config.layer_count * config.packets_per_layer
    copies = math.ceil(config.budget / n_source)
    source = [
        (layer, col)
        for layer in range(config.layer_count)
        for col in range(config.packets_per_layer)
        for _ in range(copies)
    ]

    schedule: dict[int, list[tuple[int, float]]] = {}
    for gop_index, link_index, new_pdr in config.pdr_schedule:
        schedule.setdefault(int(gop_index), []).append((int(link_index), float(new_pdr)))

    sent_total = 0
    npr = 0
    per_gop_decoded: list[int] = []
    per_gop_delay: list[float] = []
    for gop_index in range(config.gop_count):
        for link_index, new_pdr in schedule.get(gop_index, ()):
            links[link_index].delivery_prob = new_pdr
        current: Sequence = list(source)
        sent_total += len(current)
        gop_delay = 0.0
        for hop in range(hops):
            gop_delay += len(current) * links[hop].transmit_delay
            current = links[hop].transmit(current)
            if hop < hops - 1:
                gop_delay += config.forward_delay
        npr += len(current)
        seen = np.zeros((config.layer_count, config.packets_per_layer), dtype=bool)
        for layer, col in current:
            seen[layer, col] = True
        decoded = 0
        for layer in range(config.layer_count):
            if not seen[layer].all():
                break
            decoded = layer + 1
        per_gop_decoded.append(decoded)
        per_gop_delay.append(gop_delay)

    audl = float(np.mean(per_gop_decoded)) if per_gop_decoded else 0.0
    return RunMetrics(
        label=config.label or f"uncoded-{hops}hop",
        hop_count=hops,
        link_pdrs=config.link_pdrs,
        npr=npr,
        sent_total=sent_total,
        measured_pdr=npr / sent_total if sent_total else 0.0,
        audl=audl,
        total_delay=sum(per_gop_delay),
        per_gop_decoded=per_gop_decoded,
        per_gop_delay=per_gop_delay,
        table_build_seconds=0.0,
        seed=config.seed,
    )


_MODE_PATTERNS = (
    re.compile(r"^nonc(\d+)$"),
    re.compile(r"^nc(\d+)(?:-(e2e|hbh)(\d*)?)?$"),
    re.compile(r"^heuristic-(\d+)$"),
    re.compile(r"^spt$"),
)


@dataclass(frozen=True)
class ResolvedMode:
    label: str
    hop_count: int
    relay_modes: tuple[str, ...]
    selection: str
    heuristic_set: int
    uncoded: bool


def resolve_mode(mode: str, base: ChainConfig) -> ResolvedMode:
    """Maps a sweep mode label onto chain shape and selection scheme.

    NoNC<k>    uncoded baseline over k hops
    NC<k>      table-driven sender over k hops, relays forward (same as -E2E)
    NC<k>-HBH  every relay re-encodes; -HBH<m> limits that to the first m
    heuristic-<s>  threshold set s on the base chain shape
    spt        table-driven sender on the base chain shape
    """
    text = mode.strip().lower()
    m = _MODE_PATTERNS[0].match(text)
    if m:
        hops = int(m.group(1))
        if hops < 1:
            raise ValueError(f"mode {mode!r} needs at least one hop")
        return ResolvedMode(mode.strip(), hops, (MODE_FORWARD,) * (hops - 1), "spt", base.heuristic_set, True)
    m = _MODE_PATTERNS[1].match(text)
    if m:
        hops = int(m.group(1))
        if hops < 1:
            raise ValueError(f"mode {mode!r} needs at least one hop")
        flavour = m.group(2)
        count_text = m.group(3)
        if flavour == "hbh":
            n_nc = hops - 1 if not count_text else int(count_text)
            if n_nc > hops - 1:
                raise ValueError(
                    f"mode {mode!r} asks for {n_nc} re-encoding relays, "
                    f"chain only has {hops - 1}"
                )
            modes = tuple(
                MODE_NC if i < n_nc else MODE_FORWARD for i in range(hops - 1)
            )
        else:
            modes = (MODE_FORWARD,) * (hops - 1)
        return ResolvedMode(mode.strip(), hops, modes, "spt", base.heuristic_set, False)
    m = _MODE_PATTERNS[2].match(text)
    if m:
        return ResolvedMode(
            mode.strip(),
            base.hop_count,
            base.relay_modes,
            "heuristic",
            int(m.group(1)),
            False,
        )
    if _MODE_PATTERNS[3].match(text):
        return ResolvedMode(
            mode.strip(), base.hop_count, base.relay_modes, "spt", base.heuristic_set, False
        )
    raise ValueError(
        f"unknown sweep mode {mode!r}; expected NoNC<k>, NC<k>[-E2E|-HBH[<m>]], "
        f"heuristic-<set>, or spt"
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
    run, in task order regardless of how many workers execute them."""
    if not pdr_grid:
        raise ValueError("pdr grid is empty")
    if any(not 0.0 <= p <= 1.0 for p in pdr_grid):
        raise ValueError(f"pdr grid values must lie in [0, 1], got {tuple(pdr_grid)}")
    if not modes:
        raise ValueError("mode list is empty")
    if reps < 1 or jobs < 1:
        raise ValueError(f"reps and jobs must be positive, got {reps}, {jobs}")

    resolved = [resolve_mode(m, base) for m in modes]
    shared_table: Optional[StrategyTable] = None
    if any(not r.uncoded for r in resolved):
        shared_table = build_table(
            budget=base.budget,
            layer_count=base.layer_count,
            packets_per_layer=base.packets_per_layer,
            granularity=base.granularity,
            method="exact",
            seed=base.seed,
        )

    tasks = []
    for grid_index, p in enumerate(pdr_grid):
        for mode_index, rm in enumerate(resolved):
            for rep in range(reps):
                cfg = replace(
                    base,
                    link_pdrs=(float(p),) * rm.hop_count,
                    relay_modes=rm.relay_modes,
                    link_delays=(),
                    selection=rm.selection,
                    heuristic_set=rm.heuristic_set,
                    seed=_task_seed(base.seed, grid_index, mode_index, rep),
                    label=rm.label,
                )
                tasks.append((float(p), rm, cfg))

    def _execute(task):
        p, rm, cfg = task
        metrics = no_nc_baseline(cfg) if rm.uncoded else run(cfg, table=shared_table)
        return {
            "mode": rm.label,
            "hop_count": rm.hop_count,
            "link_pdr": p,
            "measured_pdr": metrics.measured_pdr,
            "npr": metrics.npr,
            "audl": metrics.audl,
            "delay": metrics.total_delay,
            "seed": cfg.seed,
        }

    if jobs == 1:
        return [_execute(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_execute, tasks))


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


def append_row(row: dict, path) -> None:
    try:
        with open(path, "r", encoding="ascii") as fh:
            has_content = bool(fh.read(1))
    except FileNotFoundError:
        has_content = False
    with open(path, "a", encoding="ascii") as fh:
        if not has_content:
            fh.write(CSV_HEADER + "\n")
        fh.write(format_row(row) + "\n")


def metrics_row(metrics: RunMetrics) -> dict:
    """Flattens run metrics into the sweep row schema. The link_pdr column
    carries the mean per-link delivery probability."""
    return {
        "mode": metrics.label,
        "hop_count": metrics.hop_count,
        "link_pdr": float(np.mean(metrics.link_pdrs)),
        "measured_pdr": metrics.measured_pdr,
        "npr": metrics.npr,
        "audl": metrics.audl,
        "delay": metrics.total_delay,
        "seed": metrics.seed,
    }
