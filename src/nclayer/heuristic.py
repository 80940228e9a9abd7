"""Fixed threshold policies: a cheap stand-in for the full strategy table.

A policy is a sorted list of breakpoints that carves [0, 1] into intervals,
one replica allocation per interval. An estimate sitting exactly on a
breakpoint belongs to the upper interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spt import check_count, check_probability, check_sequence


@dataclass(frozen=True)
class ThresholdPolicy:
    breakpoints: tuple[float, ...]
    strategies: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        breakpoints = check_sequence("breakpoints", self.breakpoints)
        breakpoints = tuple(check_probability("breakpoints", b) for b in breakpoints)
        strategies = tuple(
            tuple(check_count("strategies", x, 0) for x in check_sequence("strategies", s))
            for s in check_sequence("strategies", self.strategies)
        )
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "strategies", strategies)
        if len(strategies) != len(breakpoints) + 1:
            raise ValueError(
                f"strategies must number one more than the {len(breakpoints)} "
                f"breakpoints, got {len(strategies)}"
            )
        if list(breakpoints) != sorted(set(breakpoints)):
            raise ValueError(f"breakpoints must be strictly increasing, got {breakpoints}")
        if any(not 0.0 < b < 1.0 for b in breakpoints):
            raise ValueError(f"breakpoints must lie strictly inside (0, 1), got {breakpoints}")
        if len({len(s) for s in strategies}) != 1:
            raise ValueError("strategies must all cover the same number of classes")
        budgets = {sum(s) for s in strategies}
        if len(budgets) != 1:
            raise ValueError(f"strategies must all spend the same budget, got sums {budgets}")

    @property
    def budget(self) -> int:
        return sum(self.strategies[0])


_BUILTIN = {
    1: ThresholdPolicy(
        breakpoints=(0.5,),
        strategies=((64, 0, 0, 0), (24, 20, 20, 0)),
    ),
    2: ThresholdPolicy(
        breakpoints=(0.3, 0.8),
        strategies=((64, 0, 0, 0), (48, 16, 0, 0), (24, 20, 20, 0)),
    ),
    3: ThresholdPolicy(
        breakpoints=(0.3, 0.5, 0.8),
        strategies=((64, 0, 0, 0), (48, 16, 0, 0), (24, 20, 20, 0), (40, 8, 8, 8)),
    ),
}

BUILTIN_SET_IDS = tuple(sorted(_BUILTIN))


def builtin_policy(heuristic_set: int) -> ThresholdPolicy:
    if heuristic_set not in _BUILTIN:
        raise ValueError(f"heuristic_set must be one of {BUILTIN_SET_IDS}, got {heuristic_set!r}")
    return _BUILTIN[heuristic_set]
