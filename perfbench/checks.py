"""Output checks for the benchmark's workloads.

Each check returns a list of failure messages; an empty list is a pass.
The checks are statistical or exact properties of the model, never seeded
reference values, so they hold when the simulator's random draw order
changes.
"""

from __future__ import annotations

import math

# Bins whose best forward-only value brackets the end-to-end delivery
# 0.7**3 = 0.343 of the three-hop chain.
NEAR_0343 = (0.30, 0.35, 0.40)
SIGMAS = 5.0
# The DP sums probabilities in float64; a few expectations land an ulp or
# two above L (4 + 8.9e-16 in the standard table).
ROUNDING = 1e-12


def check_table(table) -> list[str]:
    """The lossless bin's best allocation is (40, 8, 8, 8) at exactly L
    layers, and every value is a depth in [0, L] up to float rounding."""
    failures = []
    layers = table.layer_count
    values = table.values
    if not ((values >= -ROUNDING) & (values <= layers + ROUNDING)).all():
        failures.append(f"table values leave [0, {layers}]")
    last = len(table.best_index) - 1
    best = tuple(table.strategies[int(table.best_index[last])])
    value = float(values[int(table.best_index[last]), last])
    if best != (40, 8, 8, 8) or value != float(layers):
        failures.append(f"p=1.0 best row is {best} at {value!r}, expected (40, 8, 8, 8) at {layers}")
    return failures


def binomial_gap(observed: float, p: float, trials: int) -> float:
    """Distance of an observed success share from p, in binomial sigmas."""
    sigma = math.sqrt(p * (1.0 - p) / trials)
    if sigma == 0.0:
        return 0.0 if observed == p else math.inf
    return abs(observed - p) / sigma


def check_forward_pdr(metrics, link_pdr: float, hops: int) -> list[str]:
    """End-to-end delivery of a forward-only chain is Binomial(sent, p**hops)."""
    expected = link_pdr**hops
    gap = binomial_gap(metrics.measured_pdr, expected, metrics.sent_total)
    if gap > SIGMAS:
        return [f"measured pdr {metrics.measured_pdr:.4f} is {gap:.1f} sigma from {expected:.4f}"]
    return []


def best_forward_value(table, bins=NEAR_0343) -> float | None:
    """Largest table value at the best allocation over the given bins, or
    None if the table has none of them."""
    values = [
        float(table.values[int(table.best_index[b]), b])
        for b, p in enumerate(table.pdr_bins)
        if any(abs(p - q) < 1e-9 for q in bins)
    ]
    return max(values) if values else None


def check_recode_audl(metrics, table) -> list[str]:
    """Re-encoding relays beat the best a forward-only chain can do at the
    same end-to-end delivery (acceptance test c07's ordering)."""
    bar = best_forward_value(table)
    if bar is None:
        return [f"table has no delivery bin among {NEAR_0343} to compare against"]
    if not metrics.audl > bar:
        return [f"re-encoding audl {metrics.audl:.3f} does not exceed forward best {bar:.3f}"]
    return []


def uncoded_depth_moments(link_pdr: float, hops: int, layers: int, per_layer: int, copies: int):
    """Mean and variance of one GOP's decoded depth for the uncoded baseline.

    A source packet arrives when any of its copies survives every hop, with
    probability q = 1 - (1 - p**hops)**copies. Depth i needs all
    i * per_layer packets of layers 1..i, so P(depth >= i) = q**(per_layer*i)
    and E[D] = sum_i q**(per_layer*i), E[D^2] = sum_ij q**(per_layer*max(i, j)).
    """
    q = 1.0 - (1.0 - link_pdr**hops) ** copies
    mean = sum(q ** (per_layer * i) for i in range(1, layers + 1))
    second = sum(
        q ** (per_layer * max(i, j))
        for i in range(1, layers + 1)
        for j in range(1, layers + 1)
    )
    return mean, max(second - mean * mean, 0.0)


def check_sweep_order(rows, grid, modes) -> list[str]:
    """One row per (pdr, mode) in task order."""
    expected = [(float(p), m) for p in grid for m in modes]
    got = [(float(r["link_pdr"]), r["mode"]) for r in rows]
    if got != expected:
        return [f"sweep returned {len(got)} rows starting {got[:2]}, expected {len(expected)}"]
    return []


def check_sweep_row(row, base, forward_modes, uncoded_mode) -> list[str]:
    """Depth range, forward-only delivery, and the uncoded row against the
    closed form.

    The uncoded AUDL is a mean of integer depths over gop_count GOPs, so it
    moves in steps of 1/gop_count; where the depth is random the tolerance
    is 5 sigma plus one such step, because at low delivery a single decoded
    GOP is already many sigma away from a near-zero mean. Where it is
    certain (lossless links) the row must match exactly.
    """
    failures = []
    p, mode, audl = float(row["link_pdr"]), row["mode"], row["audl"]
    hops = len(base.link_pdrs)
    gops = base.gop_count
    if not 0.0 <= audl <= base.layer_count:
        failures.append(f"{mode} p={p}: audl {audl} outside [0, {base.layer_count}]")
    if mode in forward_modes:
        gap = binomial_gap(row["measured_pdr"], p**hops, base.budget * gops)
        if gap > SIGMAS:
            failures.append(f"{mode} p={p}: measured pdr {row['measured_pdr']:.4f} is {gap:.1f} sigma off")
    if mode == uncoded_mode:
        per_layer = base.packets_per_layer
        copies = math.ceil(base.budget / (base.layer_count * per_layer))
        mean, var = uncoded_depth_moments(p, hops, base.layer_count, per_layer, copies)
        tolerance = SIGMAS * math.sqrt(var / gops) + (1.0 / gops if var > 0.0 else 0.0)
        if abs(audl - mean) > tolerance + 1e-12:
            failures.append(
                f"{mode} p={p}: audl {audl:.4f} vs closed form {mean:.4f} "
                f"(tolerance {tolerance:.4f})"
            )
    return failures
