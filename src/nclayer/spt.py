"""Strategy performance table: precomputed value of every replica allocation.

For each delivery-probability bin the table stores the expected number of
consecutive layers a count-based receiver decodes under every admissible
replica allocation, plus the argmax per bin. Senders and re-encoding relays
look strategies up here instead of solving anything online. build_table is
the only source of a table; save_table writes one out for readers, and
nothing reads it back. Every value comes from the exact dynamic program in
``kernels.expected_layers_batch``; the tests check it against full
delivery-outcome enumeration at small budgets
(``tests/oracles.py::brute_force_decoded_layers``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .kernels import expected_layers_batch

PDR_BINS = tuple(round(0.05 * k, 2) for k in range(1, 21))

_BIN_EPS = 1e-9


def enumerate_strategies(
    budget: int, layer_count: int, granularity: int = 1
) -> list[tuple[int, ...]]:
    """All replica allocations of ``budget`` packets over the classes.

    Entries are multiples of ``granularity`` and the list is in ascending
    lexicographic order, so the all-in-deepest-class vector comes first and
    the all-base vector last.
    """
    check_count("budget", budget, 1)
    check_count("layer_count", layer_count, 1)
    check_count("granularity", granularity, 1)
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
    """comb(n, r) at [n, r] as floats, zero for r > n: exact Pascal rows in
    Python integers, each entry rounded to float once, as float(comb(n, r))."""
    size = max_count + 1
    rows = np.zeros((size, size))
    row = [1]
    for n in range(size):
        rows[n, : n + 1] = [float(c) for c in row]
        row = [1, *[a + b for a, b in zip(row, row[1:])], 1]
    rows.flags.writeable = False
    return rows


# bounded, as each distinct p passed to expected_decoded_layers would
# otherwise stay cached for the life of the process
@lru_cache(maxsize=32)
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


# one budget's stack holds what the 20 per-bin rows of a build would, and
# repeated builds, a sweep's or a benchmark's, then copy nothing
@lru_cache(maxsize=1)
def _pmf_stack(max_count: int) -> np.ndarray:
    """The (bins, n, n) read-only stack of the _pmf_rows of every PDR_BINS
    bin, made with the uncached function so that no bin's rows are held
    twice."""
    stack = np.stack([_pmf_rows.__wrapped__(max_count, float(p)) for p in PDR_BINS])
    stack.flags.writeable = False
    return stack


def is_whole(value) -> bool:
    """Whether ``value`` is an int or a numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is an int, a float or a numpy number; a bool is not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_count(name: str, value, least: int) -> int:
    """``value`` as an int, or a ValueError naming ``name`` if it is not a
    whole number (is_whole) of at least ``least``."""
    if not is_whole(value):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if value < least:
        rule = {0: "non-negative", 1: "positive"}.get(least, f"at least {least}")
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def check_probability(name: str, value) -> float:
    """``value`` as a float, or a ValueError naming ``name`` if it is not a
    number (is_real) in [0, 1]."""
    if not (is_real(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def check_sequence(name: str, value, nonempty: bool = False):
    """``value``, or a ValueError naming ``name`` if it is a str, has no
    length, or is empty where it must not be."""
    if isinstance(value, str) or not hasattr(value, "__len__") or (nonempty and not len(value)):
        raise ValueError(f"{name} must be a {'non-empty ' * nonempty}sequence, got {value!r}")
    return value


def expected_decoded_layers(
    strategy: Sequence[int],
    delivery_prob: float,
    packets_per_layer: int,
) -> float:
    """Mean decodable depth when each packet survives independently.

    The dynamic program build_table runs over the per-class reception
    deficits, for one strategy.
    """
    strategy = check_sequence("strategy", strategy, nonempty=True)
    counts = tuple(check_count("strategy", x, 0) for x in strategy)
    check_count("packets_per_layer", packets_per_layer, 1)
    rows = _pmf_rows(max(counts), check_probability("delivery_prob", delivery_prob))
    batch = expected_layers_batch(np.asarray([counts], dtype=np.int64), rows, packets_per_layer)
    return float(batch[0])


@dataclass
class StrategyTable:
    """Every strategy's value in every bin, from build_table; each pick is
    derived from the values by _argmax_lex_largest, never given."""

    budget: int
    layer_count: int
    packets_per_layer: int
    granularity: int
    strategies: list[tuple[int, ...]]
    values: np.ndarray
    # best_index[b]: the sender's pick in bin b, restricted_index[b, L]
    best_index: np.ndarray = field(init=False)
    # restricted_index[b, d]: best strategy of bin b among those that leave
    # every class deeper than d empty, -1 where none does; at d = L every
    # strategy qualifies
    restricted_index: np.ndarray = field(init=False, repr=False, compare=False)
    # picks[b, d]: the replica counts of restricted_index[b, d], all zero
    # where it is -1 (depth 0), so a node's pick is one read of many GOPs
    picks: np.ndarray = field(init=False, repr=False, compare=False)

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
        self.best_index = self.restricted_index[:, self.layer_count]
        self.picks = np.where(
            (self.restricted_index >= 0)[..., None], matrix[self.restricted_index], 0
        )

    @property
    def pdr_bins(self) -> tuple[float, ...]:
        return PDR_BINS


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
) -> StrategyTable:
    check_count("packets_per_layer", packets_per_layer, 1)
    strategies = enumerate_strategies(budget, layer_count, granularity)
    # one call over every bin: the kernel runs its large steps on ranges of
    # their rows, so kernels.TABLE_STEP_BYTES bounds a build's working memory
    # whatever the table's size
    values = expected_layers_batch(strategies, _pmf_stack(budget), packets_per_layer)
    return StrategyTable(
        budget=budget,
        layer_count=layer_count,
        packets_per_layer=packets_per_layer,
        granularity=granularity,
        strategies=strategies,
        values=values,
    )


def nearest_bin(estimate):
    """0-based index of the bin closest to the estimate; ties round down.
    An array of estimates gives an array of indices."""
    scaled = np.asarray(estimate, dtype=float)
    if not ((scaled >= 0.0) & (scaled <= 1.0)).all():
        raise ValueError(f"pdr estimate must lie in [0, 1], got {estimate}")
    scaled = scaled * 20.0
    k = np.floor(scaled)
    k += scaled - k > 0.5 + _BIN_EPS
    # scaled <= 20 keeps k <= 20, so only the lowest bin needs a bound
    bins = np.maximum(k, 1).astype(np.intp) - 1
    return int(bins) if bins.ndim == 0 else bins


def save_table(table: StrategyTable, path) -> None:
    # the B=, L=, P=, g= header, each bin's values in enumeration order, then
    # each bin's best row; a value's repr reads back as the same float
    lines = [
        f"B={table.budget}",
        f"L={table.layer_count}",
        f"P={table.packets_per_layer}",
        f"g={table.granularity}",
    ]
    for b, p in enumerate(PDR_BINS):
        for s, strat in enumerate(table.strategies):
            cells = ",".join(str(x) for x in strat)
            lines.append(f"{p:.2f},{cells},{float(table.values[s, b])!r}")
    for b, p in enumerate(PDR_BINS):
        i = int(table.best_index[b])
        cells = ",".join(str(x) for x in table.strategies[i])
        lines.append(f"best,{p:.2f},{cells},{float(table.values[i, b])!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
