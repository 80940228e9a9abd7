import math

import numpy as np
import pytest

from nclayer.spt import (
    PDR_BINS,
    _argmax_lex_largest,
    best_restricted,
    build_table,
    enumerate_strategies,
    expected_decoded_layers,
    load_table,
    nearest_bin,
    save_table,
    select_best,
)


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
    for method in ("exact", "brute-force"):
        assert expected_decoded_layers((2, 1, 0, 0), 0.5, 1, method=method) == 1.125


def test_exact_matches_brute_force_small_domain():
    for layers in (1, 2, 3):
        for budget in range(1, 7):
            for strategy in enumerate_strategies(budget, layers):
                for p in (0.25, 0.75):
                    exact = expected_decoded_layers(strategy, p, 1, method="exact")
                    brute = expected_decoded_layers(strategy, p, 1, method="brute-force")
                    assert abs(exact - brute) <= 1e-12, (strategy, p)


def test_exact_handles_multiple_packets_per_layer():
    exact = expected_decoded_layers((4, 2), 0.5, 2, method="exact")
    brute = expected_decoded_layers((4, 2), 0.5, 2, method="brute-force")
    assert abs(exact - brute) <= 1e-12


def test_monte_carlo_approaches_exact():
    exact = expected_decoded_layers((6, 2), 0.6, 2, method="exact")
    mc = expected_decoded_layers((6, 2), 0.6, 2, method="monte-carlo", trials=200_000, seed=0)
    assert abs(mc - exact) < 0.02


def test_expected_layers_monotone_in_p():
    grid = [i / 20 for i in range(21)]
    for strategy in ((40, 8, 8, 8), (24, 20, 20, 0), (64, 0, 0, 0)):
        values = [expected_decoded_layers(strategy, p, 8) for p in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), strategy


def test_degenerate_probabilities():
    assert expected_decoded_layers((40, 8, 8, 8), 1.0, 8) == 4.0
    assert expected_decoded_layers((40, 8, 8, 8), 0.0, 8) == 0.0


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
    assert select_best(default_table, 1.0) == (40, 8, 8, 8)
    assert select_best(default_table, 0.05) == (64, 0, 0, 0)
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
    assert select_best(default_table, 1.0) == max(ties)


def test_best_restricted_depth_limits(default_table):
    shallow = best_restricted(default_table, 10, 1)
    assert shallow == (64, 0, 0, 0)
    full = best_restricted(default_table, 10, 4)
    assert full == default_table.best_strategy(10)
    two = best_restricted(default_table, 10, 2)
    assert two[2] == 0 and two[3] == 0
    assert sum(two) == 64


def _scan_restricted(table, bin_index, max_depth):
    # the linear scan best_restricted replaced: last index holding the max
    best = None
    for i, strat in enumerate(table.strategies):
        if any(strat[j] for j in range(max_depth, table.layer_count)):
            continue
        if best is None or table.values[i, bin_index] >= table.values[best, bin_index]:
            best = i
    return None if best is None else table.strategies[best]


def test_best_restricted_lookup_matches_scan(default_table, tmp_path):
    path = tmp_path / "table.txt"
    save_table(default_table, path)
    small = build_table(budget=8, layer_count=3, packets_per_layer=2, granularity=2)
    for table in (default_table, load_table(path), small):
        for b in range(len(PDR_BINS)):
            for depth in range(table.layer_count + 1):
                assert best_restricted(table, b, depth) == _scan_restricted(
                    table, b, depth
                ), (table.budget, b, depth)
    assert best_restricted(default_table, 10, 0) is None
    assert best_restricted(default_table, 10, 9) == default_table.best_strategy(10)
    with pytest.raises(ValueError):
        best_restricted(default_table, 10, -1)


def test_argmax_prefers_the_last_of_exact_ties():
    values = np.array([[1.0, 3.0], [2.0, 3.0], [2.0, 1.0], [0.5, 3.0]])
    assert _argmax_lex_largest(values[:, 0]) == 2
    assert _argmax_lex_largest(values).tolist() == [2, 3]


def test_save_load_round_trip(default_table, tmp_path):
    path = tmp_path / "table.txt"
    save_table(default_table, path)
    loaded = load_table(path)
    assert loaded.budget == default_table.budget
    assert loaded.layer_count == default_table.layer_count
    assert loaded.packets_per_layer == default_table.packets_per_layer
    assert loaded.granularity == default_table.granularity
    assert loaded.strategies == default_table.strategies
    assert np.array_equal(loaded.best_index, default_table.best_index)
    assert np.allclose(loaded.values, default_table.values, rtol=0.0, atol=1e-6)


def test_save_is_reproducible(default_table, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_table(default_table, a)
    save_table(default_table, b)
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_missing_header(default_table, tmp_path):
    path = tmp_path / "table.txt"
    save_table(default_table, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines if not line.startswith("P=")) + "\n")
    with pytest.raises(ValueError, match="P="):
        load_table(path)


def test_load_rejects_inconsistent_best_row(default_table, tmp_path):
    path = tmp_path / "table.txt"
    save_table(default_table, path)
    lines = path.read_text().splitlines()
    # at p = 0.05 the all-deep vector is nowhere near the argmax
    target = lines.index(next(l for l in lines if l.startswith("best,0.05")))
    parts = lines[target].split(",")
    lines[target] = ",".join(["best", parts[1], "0", "0", "0", "64", parts[-1]])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_table(path)


def test_load_rejects_body_of_another_budget(default_table, tmp_path):
    # a B=64 body under a B=32 header would let a budget-32 run send 64
    # packets per GOP
    path = tmp_path / "table.txt"
    save_table(default_table, path)
    path.write_text(path.read_text().replace("B=64\n", "B=32\n", 1))
    with pytest.raises(ValueError, match="B=32"):
        load_table(path)


def test_load_rejects_edited_strategy_row(default_table, tmp_path):
    # edited in every bin, so each bin still lists 969 strategies
    path = tmp_path / "table.txt"
    save_table(default_table, path)
    path.write_text(path.read_text().replace(",0,0,0,64,", ",0,0,0,60,"))
    with pytest.raises(ValueError, match="in order"):
        load_table(path)


def test_load_rejects_reordered_bin(tmp_path):
    # swapping two rows of one bin would otherwise hand each strategy the
    # other's value
    path = tmp_path / "table.txt"
    save_table(build_table(budget=8, layer_count=2, packets_per_layer=2, granularity=2), path)
    lines = path.read_text().splitlines()
    i = lines.index(next(l for l in lines if l.startswith("0.50,")))
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="bin 0.50"):
        load_table(path)


def test_load_rejects_repeated_best_row(tmp_path):
    # twenty best rows, but bin 0.55 lost its own: its argmax would default
    # to the first strategy
    path = tmp_path / "table.txt"
    save_table(build_table(budget=8, layer_count=2, packets_per_layer=2, granularity=2), path)
    lines = path.read_text().splitlines()
    i = lines.index(next(l for l in lines if l.startswith("best,0.55,")))
    lines[i] = next(l for l in lines if l.startswith("best,0.50,"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="one best row"):
        load_table(path)


def test_small_monte_carlo_table_agrees_coarsely():
    exact = build_table(budget=8, layer_count=2, packets_per_layer=2, granularity=4)
    mc = build_table(
        budget=8, layer_count=2, packets_per_layer=2, granularity=4,
        method="monte-carlo", trials=20_000,
    )
    assert mc.strategies == exact.strategies
    assert np.allclose(mc.values, exact.values, atol=0.05)
