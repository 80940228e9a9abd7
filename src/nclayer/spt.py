"""Strategy performance table: precomputed value of every replica allocation.

For each delivery-probability bin the table stores the expected number of
consecutive layers a count-based receiver decodes under every admissible
replica allocation, plus the argmax per bin. Senders and re-encoding relays
look strategies up here instead of solving anything online.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .codec import decodable_layers
from .kernels import expected_layers_batch

PDR_BINS = tuple(round(0.05 * k, 2) for k in range(1, 21))

_BIN_EPS = 1e-9
_BRUTE_FORCE_CAP = 20

METHODS = ("exact", "monte-carlo", "brute-force")
# brute force enumerates 2**budget outcomes, so it checks single strategies
# at small budgets and never builds a table
TABLE_METHODS = ("exact", "monte-carlo")


def enumerate_strategies(
    budget: int, layer_count: int, granularity: int = 1
) -> list[tuple[int, ...]]:
    """All replica allocations of ``budget`` packets over the classes.

    Entries are multiples of ``granularity`` and the list is in ascending
    lexicographic order, so the all-in-deepest-class vector comes first and
    the all-base vector last.
    """
    if budget < 1 or layer_count < 1 or granularity < 1:
        raise ValueError(
            f"budget, layer_count and granularity must be positive, "
            f"got {budget}, {layer_count}, {granularity}"
        )
    if budget % granularity:
        raise ValueError(
            f"granularity {granularity} does not divide budget {budget}"
        )
    units = budget // granularity
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            out.append(prefix + (remaining * granularity,))
            return
        for u in range(remaining + 1):
            rec(prefix + (u * granularity,), remaining - u, slots - 1)

    rec((), units, layer_count)
    return out


@lru_cache(maxsize=None)
def _comb_rows(max_count: int) -> np.ndarray:
    """comb(n, r) at [n, r] as floats, zero for r > n."""
    size = max_count + 1
    rows = np.array([[float(math.comb(n, r)) for r in range(size)] for n in range(size)])
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def _pmf_rows(max_count: int, p: float) -> np.ndarray:
    """Row n holds the Binomial(n, p) pmf, zero-padded to a square array.

    Each entry is comb(n, r) * p**r * (1 - p)**(n - r), multiplied in that
    order with the powers taken by Python's ``**``, so it is bit-identical
    to evaluating that expression cell by cell.
    """
    size = max_count + 1
    hits = np.array([p**r for r in range(size)])
    misses = np.array([(1.0 - p) ** k for k in range(size)])
    n = np.arange(size)
    rows = _comb_rows(max_count) * hits * misses[np.maximum(n[:, None] - n, 0)]
    rows.flags.writeable = False
    return rows


def _check_inputs(strategy, delivery_prob, packets_per_layer):
    counts = tuple(int(x) for x in strategy)
    if any(x < 0 for x in counts) or not counts:
        raise ValueError(f"strategy must be non-empty and non-negative, got {counts}")
    if not 0.0 <= delivery_prob <= 1.0:
        raise ValueError(f"delivery_prob must lie in [0, 1], got {delivery_prob}")
    if packets_per_layer < 1:
        raise ValueError(f"packets_per_layer must be positive, got {packets_per_layer}")
    return counts


def expected_decoded_layers(
    strategy: Sequence[int],
    delivery_prob: float,
    packets_per_layer: int,
    method: str = "exact",
    trials: int = 100_000,
    seed: int = 0,
) -> float:
    """Mean decodable depth when each packet survives independently.

    "exact" runs a dynamic program over the per-class reception deficits,
    "monte-carlo" samples ``trials`` reception vectors, and "brute-force"
    enumerates every delivery outcome (only viable for small budgets; it is
    the reference the other methods are checked against).
    """
    counts = _check_inputs(strategy, delivery_prob, packets_per_layer)
    if method == "exact":
        rows = _pmf_rows(max(counts), float(delivery_prob))
        batch = expected_layers_batch(
            np.asarray([counts], dtype=np.int64), rows, packets_per_layer
        )
        return float(batch[0])
    if method == "monte-carlo":
        return _monte_carlo_value(counts, delivery_prob, packets_per_layer, trials, seed)
    if method == "brute-force":
        return _brute_force_value(counts, delivery_prob, packets_per_layer)
    raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")


def _monte_carlo_value(counts, p, per_layer, trials, seed) -> float:
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = np.random.default_rng(seed)
    draws = rng.binomial(np.asarray(counts), p, size=(trials, len(counts)))
    return float(np.mean(decodable_layers_batch(draws, per_layer)))


def decodable_layers_batch(count_rows: np.ndarray, packets_per_layer: int) -> np.ndarray:
    """Vectorized decodable depth for an array of reception-count rows.

    The trailing-window checks collapse to a running-maximum test on the walk
    W_i = sum(counts[:i]) - i * packets_per_layer: depth i qualifies exactly
    when W_i touches the running maximum of W_0..W_i with W_0 = 0.
    """
    count_rows = np.asarray(count_rows, dtype=np.int64)
    walk = np.cumsum(count_rows - packets_per_layer, axis=1)
    prior = np.concatenate(
        [np.zeros((walk.shape[0], 1), dtype=np.int64), walk[:, :-1]], axis=1
    )
    prior_max = np.maximum(np.maximum.accumulate(prior, axis=1), 0)
    qualifies = walk >= prior_max
    any_depth = qualifies.any(axis=1)
    last = count_rows.shape[1] - np.argmax(qualifies[:, ::-1], axis=1)
    return np.where(any_depth, last, 0)


def _brute_force_value(counts, p, per_layer) -> float:
    total_packets = sum(counts)
    if total_packets > _BRUTE_FORCE_CAP:
        raise ValueError(
            f"brute-force enumerates 2**{total_packets} outcomes; "
            f"capped at budgets of {_BRUTE_FORCE_CAP} packets"
        )
    owner = [j for j, x in enumerate(counts) for _ in range(x)]
    total = 0.0
    for mask in range(1 << total_packets):
        received = [0] * len(counts)
        m = mask
        k = 0
        for b in range(total_packets):
            if m & 1:
                received[owner[b]] += 1
                k += 1
            m >>= 1
        weight = p**k * (1.0 - p) ** (total_packets - k)
        total += weight * decodable_layers(received, per_layer)
    return total


@dataclass
class StrategyTable:
    budget: int
    layer_count: int
    packets_per_layer: int
    granularity: int
    method: str
    seed: int
    strategies: list[tuple[int, ...]]
    values: np.ndarray
    best_index: np.ndarray
    # restricted_index[b, d]: best strategy of bin b among those that leave
    # every class deeper than d empty, -1 where none does
    restricted_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        matrix = np.asarray(self.strategies, dtype=np.int64)
        self.restricted_index = np.full(
            (self.values.shape[1], self.layer_count + 1), -1, dtype=np.int64
        )
        for depth in range(self.layer_count + 1):
            allowed = np.flatnonzero(~matrix[:, depth:].any(axis=1))
            if allowed.size:
                self.restricted_index[:, depth] = allowed[
                    _argmax_lex_largest(self.values[allowed])
                ]

    @property
    def pdr_bins(self) -> tuple[float, ...]:
        return PDR_BINS

    def best_strategy(self, bin_index: int) -> tuple[int, ...]:
        return self.strategies[int(self.best_index[bin_index])]


def _argmax_lex_largest(values: np.ndarray):
    """Index of the maximum along axis 0; among exact ties the later entry wins.

    Strategies are stored in ascending lexicographic order, so the later
    entry is the lexicographically larger one (more replicas on shallow
    classes), which is the cheaper choice to decode. A 2-D input gives one
    index per column.
    """
    return values.shape[0] - 1 - np.argmax(values[::-1], axis=0)


def build_table(
    budget: int = 64,
    layer_count: int = 4,
    packets_per_layer: int = 8,
    granularity: int = 4,
    method: str = "exact",
    seed: int = 0,
    trials: int = 100_000,
) -> StrategyTable:
    if method not in TABLE_METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {TABLE_METHODS}")
    strategies = enumerate_strategies(budget, layer_count, granularity)
    matrix = np.asarray(strategies, dtype=np.int64)
    values = np.zeros((len(strategies), len(PDR_BINS)))
    for b, p in enumerate(PDR_BINS):
        if method == "exact":
            values[:, b] = expected_layers_batch(
                matrix, _pmf_rows(budget, float(p)), packets_per_layer
            )
        else:
            for s, strat in enumerate(strategies):
                values[s, b] = expected_decoded_layers(
                    strat,
                    p,
                    packets_per_layer,
                    method=method,
                    trials=trials,
                    seed=int(np.random.SeedSequence([seed, s, b]).generate_state(1)[0]),
                )
    best = _argmax_lex_largest(values)
    return StrategyTable(
        budget=budget,
        layer_count=layer_count,
        packets_per_layer=packets_per_layer,
        granularity=granularity,
        method=method,
        seed=seed,
        strategies=strategies,
        values=values,
        best_index=best,
    )


def nearest_bin(estimate: float) -> int:
    """0-based index of the bin closest to the estimate; ties round down."""
    if not 0.0 <= estimate <= 1.0:
        raise ValueError(f"pdr estimate must lie in [0, 1], got {estimate}")
    scaled = estimate * 20.0
    k = int(math.floor(scaled))
    if scaled - k > 0.5 + _BIN_EPS:
        k += 1
    return min(max(k, 1), 20) - 1


def select_best(table: StrategyTable, pdr_estimate: float) -> tuple[int, ...]:
    return table.best_strategy(nearest_bin(pdr_estimate))


def best_restricted(
    table: StrategyTable, bin_index: int, max_depth: int
) -> Optional[tuple[int, ...]]:
    """Best table strategy that leaves classes deeper than max_depth empty."""
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    i = int(table.restricted_index[bin_index, min(max_depth, table.layer_count)])
    return None if i < 0 else table.strategies[i]


def save_table(table: StrategyTable, path) -> None:
    lines = [
        f"B={table.budget}",
        f"L={table.layer_count}",
        f"P={table.packets_per_layer}",
        f"g={table.granularity}",
        f"method={table.method}",
        f"seed={table.seed}",
    ]
    for b, p in enumerate(PDR_BINS):
        for s, strat in enumerate(table.strategies):
            cells = ",".join(str(x) for x in strat)
            lines.append(f"{p:.2f},{cells},{table.values[s, b]:.6f}")
    for b, p in enumerate(PDR_BINS):
        i = int(table.best_index[b])
        cells = ",".join(str(x) for x in table.strategies[i])
        lines.append(f"best,{p:.2f},{cells},{table.values[i, b]:.6f}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_table(path) -> StrategyTable:
    with open(path, "r", encoding="ascii") as fh:
        raw = [line.rstrip("\n") for line in fh if line.strip()]
    header: dict[str, str] = {}
    body_start = 0
    for line in raw:
        if "=" not in line or "," in line:
            break
        key, value = line.split("=", 1)
        header[key] = value
        body_start += 1
    for key in ("B", "L", "P", "g", "method", "seed"):
        if key not in header:
            raise ValueError(f"table file is missing header line {key}=")

    budget = int(header["B"])
    layer_count = int(header["L"])
    per_layer = int(header["P"])
    granularity = int(header["g"])
    strategies = enumerate_strategies(budget, layer_count, granularity)
    index_of = {strat: i for i, strat in enumerate(strategies)}
    rows_per_bin: dict[float, list[tuple[tuple[int, ...], float]]] = {}
    best_rows: list[tuple[float, tuple[int, ...], float]] = []

    for line in raw[body_start:]:
        parts = line.split(",")
        if parts[0] == "best":
            strat = tuple(int(x) for x in parts[2 : 2 + layer_count])
            best_rows.append((float(parts[1]), strat, float(parts[-1])))
            continue
        strat = tuple(int(x) for x in parts[1 : 1 + layer_count])
        rows_per_bin.setdefault(float(parts[0]), []).append((strat, float(parts[-1])))

    if sorted(rows_per_bin) != [round(b, 2) for b in PDR_BINS]:
        raise ValueError("table file does not cover the expected pdr bins")
    values = np.zeros((len(strategies), len(PDR_BINS)))
    for b, p in enumerate(PDR_BINS):
        rows = rows_per_bin[round(p, 2)]
        # the header fixes the strategy set, so a body written for another
        # budget, or with an edited or reordered row, cannot load
        if [strat for strat, _ in rows] != strategies:
            raise ValueError(
                f"bin {p:.2f} does not list the {len(strategies)} strategies of "
                f"B={budget}, L={layer_count}, g={granularity} in order"
            )
        values[:, b] = [value for _, value in rows]
    if sorted(p for p, _, _ in best_rows) != [round(b, 2) for b in PDR_BINS]:
        raise ValueError(f"table file must hold one best row per pdr bin, {len(PDR_BINS)} in all")
    best = np.zeros(len(PDR_BINS), dtype=np.int64)
    for p, strat, value in best_rows:
        b = nearest_bin(p)
        if strat not in index_of:
            raise ValueError(f"best row for bin {p:.2f} names an unlisted strategy {strat}")
        i = index_of[strat]
        if values[i, b] < values[:, b].max():
            raise ValueError(f"best row for bin {p:.2f} is not an argmax of that bin")
        best[b] = i
    return StrategyTable(
        budget=budget,
        layer_count=layer_count,
        packets_per_layer=per_layer,
        granularity=granularity,
        method=header["method"],
        seed=int(header["seed"]),
        strategies=strategies,
        values=values,
        best_index=best,
    )
