import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from nclayer.spt import (
    PDR_BINS,
    _argmax_lex_largest,
    _pmf_rows,
    _pmf_stack,
    brute_force_decoded_layers,
    build_table,
    enumerate_strategies,
    expected_decoded_layers,
    nearest_bin,
    save_table,
)
from nclayer import simulator
from nclayer.nodes import pick_strategies
from nclayer.simulator import ChainConfig, run
from oracles import (
    best_restricted,
    class_block,
    nearest_bin_reference,
    select_best,
    sent_strategies,
)


def _picks(table, estimates):
    """The strategy a table-driven sender sends at each estimate, checked
    against the oracle's one-estimate lookup."""
    n, layers = len(estimates), table.layer_count
    picked = pick_strategies(table, estimates, [layers] * n)
    block = class_block(picked, table.packets_per_layer)
    picks = sent_strategies(block)
    assert picks == [select_best(table, e) for e in estimates]
    return picks


def _restricted(table, bin_index, max_depth):
    """The relay's restricted_index lookup, checked against the oracle's
    scan; None where no strategy qualifies."""
    i = int(table.restricted_index[bin_index, min(max_depth, table.layer_count)])
    got = None if i < 0 else table.strategies[i]
    assert got == best_restricted(table, bin_index, max_depth), (bin_index, max_depth)
    return got


def test_standard_enumeration_count_and_members():
    strategies = enumerate_strategies(64, 4, 4)
    assert len(strategies) == 969
    for pinned in ((64, 0, 0, 0), (48, 16, 0, 0), (24, 20, 20, 0), (40, 8, 8, 8)):
        assert pinned in strategies
    assert all(sum(s) == 64 for s in strategies)
    assert all(all(x % 4 == 0 for x in s) for s in strategies)
    assert strategies == sorted(strategies)


def test_enumeration_matches_composition_count():
    # compositions of b/g into l non-negative parts: C(b/g + l - 1, l - 1)
    for budget, layers, gran in ((8, 3, 1), (12, 2, 4), (64, 4, 4)):
        want = math.comb(budget // gran + layers - 1, layers - 1)
        assert len(enumerate_strategies(budget, layers, gran)) == want


def test_enumeration_rejects_bad_granularity():
    with pytest.raises(ValueError, match="divide"):
        enumerate_strategies(64, 4, 3)
    with pytest.raises(ValueError):
        enumerate_strategies(0, 4, 1)


def test_documented_expected_value():
    # two class-1 packets and one class-2 packet at p = 1/2, one packet per
    # layer: E = 2*(1/8) + 1*(5/8) + 0*(2/8) = 9/8
    assert expected_decoded_layers((2, 1, 0, 0), 0.5, 1) == 1.125
    assert brute_force_decoded_layers((2, 1, 0, 0), 0.5, 1) == 1.125


def test_exact_handles_multiple_packets_per_layer():
    exact = expected_decoded_layers((4, 2), 0.5, 2)
    brute = brute_force_decoded_layers((4, 2), 0.5, 2)
    assert abs(exact - brute) <= 1e-12


def test_brute_force_checks_its_inputs_and_cap():
    with pytest.raises(ValueError, match="packets_per_layer"):
        brute_force_decoded_layers((2, 1), 0.5, 0)
    with pytest.raises(ValueError, match="capped"):
        brute_force_decoded_layers((21,), 0.5, 1)


@pytest.mark.parametrize("per_layer", [0, -1])
def test_build_table_rejects_nonpositive_packets_per_layer(per_layer):
    # with no packets per layer every allocation would decode every layer
    with pytest.raises(ValueError, match="packets_per_layer"):
        build_table(budget=8, layer_count=2, packets_per_layer=per_layer, granularity=4)


def test_expected_layers_monotone_in_p():
    grid = [i / 20 for i in range(21)]
    for strategy in ((40, 8, 8, 8), (24, 20, 20, 0), (64, 0, 0, 0)):
        values = [expected_decoded_layers(strategy, p, 8) for p in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), strategy


def test_degenerate_probabilities():
    assert expected_decoded_layers((40, 8, 8, 8), 1.0, 8) == 4.0
    assert expected_decoded_layers((40, 8, 8, 8), 0.0, 8) == 0.0


def test_table_build_memory_is_bounded():
    # a build is one kernel call whose large steps split its bins into
    # chunks of at most kernels.TABLE_STEP_BYTES of step state, so its traced
    # peak, with every bin's binomial rows already cached, stays within 1.5x
    # of that of the build that handed the kernel stacks of 1 MiB of state:
    # 2.74 MiB at the standard shape and 6.3 MiB at B=128, where one bin's
    # state passes the budget and every table-wide array is 6545 strategies
    # tall
    for shape, stacked_mib in (((64, 4, 8, 4), 2.74), ((128, 4, 8, 4), 6.3)):
        build_table(*shape)
        tracemalloc.start()
        try:
            build_table(*shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * stacked_mib * 2**20, (shape, peak)


def test_pmf_cache_stays_bounded_and_keeps_a_table_of_bins():
    # one exact value per distinct delivery probability must not keep every
    # pmf array for the life of the process, yet a table build must still
    # find all of its bins cached from the build before: one read-only
    # stack of every bin, no larger than the per-bin rows it is made of,
    # which each build reads without copying and no single value evicts
    bound = _pmf_rows.cache_info().maxsize
    assert len(PDR_BINS) <= bound < 1000
    for p in np.linspace(0.001, 0.999, 1000):
        expected_decoded_layers((3, 2), float(p), 1)
    assert _pmf_rows.cache_info().currsize == bound
    build_table(budget=8, layer_count=2, packets_per_layer=2, granularity=4)
    stack = _pmf_stack(8)
    hits = _pmf_stack.cache_info().hits
    expected_decoded_layers((3, 2), 0.123, 1)
    build_table(budget=8, layer_count=2, packets_per_layer=2, granularity=4)
    assert _pmf_stack.cache_info().hits == hits + 1
    assert _pmf_stack.cache_info().currsize == _pmf_stack.cache_info().maxsize == 1
    assert stack.shape == (len(PDR_BINS), 9, 9) and not stack.flags.writeable
    for b, p in enumerate(PDR_BINS):
        assert np.array_equal(stack[b], _pmf_rows(8, float(p)))


def test_bins_cover_nominal_grid():
    assert len(PDR_BINS) == 20
    assert PDR_BINS[0] == 0.05
    assert PDR_BINS[-1] == 1.0
    steps = {round(b - a, 10) for a, b in zip(PDR_BINS, PDR_BINS[1:])}
    assert steps == {0.05}


def test_nearest_bin_rounding():
    assert nearest_bin(0.05) == 0
    assert nearest_bin(1.0) == 19
    assert nearest_bin(0.0) == 0
    assert nearest_bin(0.52) == 9
    # exact midpoints round down
    assert nearest_bin(0.525) == 9
    assert nearest_bin(0.526) == 10
    with pytest.raises(ValueError):
        nearest_bin(1.2)


def test_table_best_at_extremes(default_table):
    assert _picks(default_table, [1.0, 0.05]) == [(40, 8, 8, 8), (64, 0, 0, 0)]
    top = int(default_table.best_index[19])
    assert default_table.values[top, 19] == 4.0


# argmax of every bin of the standard table (B=64, L=4, P=8, g=4), pinned so
# that a change in the expected-depth arithmetic cannot silently move one
STANDARD_BEST = (
    (64, 0, 0, 0), (64, 0, 0, 0), (64, 0, 0, 0), (64, 0, 0, 0),
    (28, 36, 0, 0), (20, 44, 0, 0), (16, 48, 0, 0), (16, 24, 24, 0),
    (12, 20, 32, 0), (12, 16, 36, 0), (12, 12, 20, 20), (8, 16, 16, 24),
    (8, 12, 16, 28), (8, 12, 12, 32), (8, 8, 16, 32), (8, 8, 12, 36),
    (8, 8, 8, 40), (4, 0, 0, 60), (16, 8, 4, 36), (40, 8, 8, 8),
)


def test_standard_table_best_strategies_are_pinned(default_table):
    got = tuple(default_table.best_strategy(b) for b in range(len(PDR_BINS)))
    assert got == STANDARD_BEST


def test_tie_break_prefers_shallow_heavy_vector(default_table):
    # every strategy with the full trailing windows scores 4.0 at p = 1;
    # the winner must be the lexicographically largest of them
    values = default_table.values[:, 19]
    ties = [s for s, v in zip(default_table.strategies, values) if v == 4.0]
    assert len(ties) > 1
    assert _picks(default_table, [1.0]) == [max(ties)]


def test_best_restricted_depth_limits(default_table):
    shallow = _restricted(default_table, 10, 1)
    assert shallow == (64, 0, 0, 0)
    full = _restricted(default_table, 10, 4)
    assert full == default_table.best_strategy(10)
    two = _restricted(default_table, 10, 2)
    assert two[2] == 0 and two[3] == 0
    assert sum(two) == 64


def test_best_restricted_lookup_matches_scan(default_table):
    small = build_table(budget=8, layer_count=3, packets_per_layer=2, granularity=2)
    # every bin's centre and both float neighbours of each midpoint between bins
    centres = np.array(PDR_BINS)
    midpoints = (centres[:-1] + centres[1:]) / 2
    estimates = np.concatenate(
        [centres, np.nextafter(midpoints, 0.0), np.nextafter(midpoints, 1.0), [0.0]]
    )
    for table in (default_table, small):
        _picks(table, estimates.tolist())
        for b in range(len(PDR_BINS)):
            for depth in range(table.layer_count + 2):
                _restricted(table, b, depth)
    assert _restricted(default_table, 10, 0) is None
    assert _restricted(default_table, 10, 9) == default_table.best_strategy(10)
    with pytest.raises(ValueError):
        best_restricted(default_table, 10, -1)


def test_argmax_prefers_the_last_of_exact_ties():
    values = np.array([[1.0, 3.0], [2.0, 3.0], [2.0, 1.0], [0.5, 3.0]])
    assert _argmax_lex_largest(values[:, 0]) == 2
    assert _argmax_lex_largest(values).tolist() == [2, 3]


def test_run_given_the_default_table_equals_run_building_its_own(default_table, monkeypatch):
    # at 0.9 the values of competing strategies agree to many decimals, and
    # relays that decoded every layer re-encode from the table; the replica
    # counts each encoder sends are recorded, since the metrics alone
    # rarely move with a near-tie
    sent = []
    pick = simulator.pick_strategies

    def recording(*args):
        strategies = pick(*args)
        sent[-1].append(strategies.tolist())
        return strategies

    monkeypatch.setattr(simulator, "pick_strategies", recording)
    config = ChainConfig(
        link_pdrs=(0.9, 0.9, 0.9), relay_modes=("nc", "nc"), gop_count=60, seed=3
    )
    metrics = []
    for table in (default_table, None):
        sent.append([])
        metrics.append(asdict(run(config, table=table)))
    given, built = metrics
    assert given == built
    assert sent[0] == sent[1]


def test_save_is_reproducible(default_table, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_table(default_table, a)
    save_table(default_table, b)
    assert a.read_bytes() == b.read_bytes()


def test_nearest_bin_array_form_matches_scalar_form():
    # every fraction k/q with q <= 1000, which covers each probe estimate of
    # up to 1000 probes, and each bin edge and midpoint one ulp either side
    fractions = np.unique(
        np.concatenate([np.arange(q + 1) / q for q in range(1, 1001)])
    )
    edges = np.array(
        [(k + 0.5 + eps) / 20.0 for k in range(20) for eps in (0.0, 1e-9)]
        + [k / 20.0 for k in range(21)]
    )
    edges = np.concatenate(
        [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)]
    )
    estimates = np.concatenate([fractions, np.clip(edges, 0.0, 1.0)])
    got = nearest_bin(estimates)
    want = [nearest_bin_reference(float(e)) for e in estimates]
    assert got.tolist() == want
    assert [nearest_bin(float(e)) for e in estimates[-edges.size :]] == want[-edges.size :]
    with pytest.raises(ValueError):
        nearest_bin(np.array([0.5, 1.2]))
