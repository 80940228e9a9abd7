"""Fixed threshold policies: a cheap stand-in for the full strategy table.

A policy is a sorted list of breakpoints that carves [0, 1] into intervals,
one replica allocation per interval. An estimate sitting exactly on a
breakpoint belongs to the upper interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spt import is_whole


@dataclass(frozen=True)
class ThresholdPolicy:
    breakpoints: tuple[float, ...]
    strategies: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        breakpoints = tuple(float(b) for b in self.breakpoints)
        if not all(is_whole(x) for s in self.strategies for x in s):
            raise ValueError(f"replica counts must be whole numbers, got {self.strategies}")
        strategies = tuple(tuple(int(x) for x in s) for s in self.strategies)
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "strategies", strategies)
        if len(strategies) != len(breakpoints) + 1:
            raise ValueError(
                f"{len(breakpoints)} breakpoints need {len(breakpoints) + 1} "
                f"strategies, got {len(strategies)}"
            )
        if list(breakpoints) != sorted(set(breakpoints)):
            raise ValueError(f"breakpoints must be strictly increasing, got {breakpoints}")
        if any(not 0.0 < b < 1.0 for b in breakpoints):
            raise ValueError(f"breakpoints must lie strictly inside (0, 1), got {breakpoints}")
        widths = {len(s) for s in strategies}
        if len(widths) != 1:
            raise ValueError("all strategies must cover the same number of classes")
        budgets = {sum(s) for s in strategies}
        if len(budgets) != 1:
            raise ValueError(f"all strategies must spend the same budget, got sums {budgets}")
        if any(x < 0 for s in strategies for x in s):
            raise ValueError("replica counts must be non-negative")

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


def builtin_policy(set_id: int) -> ThresholdPolicy:
    if set_id not in _BUILTIN:
        raise ValueError(f"unknown policy set {set_id}, expected one of {BUILTIN_SET_IDS}")
    return _BUILTIN[set_id]
