import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nclayer.spt import (
    PDR_BINS,
    _argmax_lex_largest,
    _pmf_rows,
    _pmf_stack,
    build_table,
    enumerate_strategies,
    expected_decoded_layers,
    nearest_bin,
    save_table,
)
import nclayer
from nclayer import simulator
from nclayer.kernels import expected_layers_batch
from nclayer.nodes import pick_strategies
from nclayer.simulator import ChainConfig, run
from oracles import (
    best_restricted,
    brute_force_decoded_layers,
    class_block,
    nearest_bin_reference,
    plain_metrics,
    select_best,
    sent_strategies,
)


def _picks(table, seen, probe_count):
    """The strategy a table-driven sender sends when seen[k] of probe_count
    probes survived, checked against the oracle's one-estimate lookup at
    seen[k] / probe_count."""
    n, layers = len(seen), table.layer_count
    picked = pick_strategies(table, seen, probe_count, [layers] * n)
    block = class_block(picked, table.packets_per_layer)
    picks = sent_strategies(block)
    assert picks == [select_best(table, k / probe_count) for k in seen]
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


def test_one_strategy_values_are_its_table_entries(default_table):
    # a call on one strategy steps one row per pass, in one bin or in all 20,
    # yet every element sees the operations it sees in the 969-strategy
    # build, so the values are its table entries bit for bit
    rng = np.random.default_rng(45)
    for index in rng.choice(len(default_table.strategies), 12, replace=False):
        strategy = default_table.strategies[index]
        entries = default_table.values[index]
        stacked = expected_layers_batch(np.asarray([strategy]), _pmf_stack(64), 8)[0]
        assert np.array_equal(stacked, entries), strategy
        for b, p in enumerate(PDR_BINS):
            assert expected_decoded_layers(strategy, p, 8) == entries[b], (strategy, p)


def test_expected_layers_monotone_in_p():
    grid = [i / 20 for i in range(21)]
    for strategy in ((40, 8, 8, 8), (24, 20, 20, 0), (64, 0, 0, 0)):
        values = [expected_decoded_layers(strategy, p, 8) for p in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), strategy


def test_replica_counts_must_be_whole_numbers():
    # int() would truncate 40.5 to 40
    for strategy in ((40.5, 8, 8, 8), (40.0, 8, 8, 8), (True, 8, 8, 8)):
        with pytest.raises(ValueError, match="^strategy must be a whole number, got "):
            expected_decoded_layers(strategy, 0.7, 8)
    counts = np.array([40, 8, 8, 8], dtype=np.int32)
    assert expected_decoded_layers(counts, 0.7, 8) == expected_decoded_layers((40, 8, 8, 8), 0.7, 8)


@pytest.mark.parametrize("strategy", [(), (4, -1)])
def test_expected_layers_refuses_an_empty_or_negative_strategy(strategy):
    rule = r"must be non-negative, got -1" if strategy else r"must be a non-empty sequence, got \(\)"
    with pytest.raises(ValueError, match=f"^strategy {rule}$"):
        expected_decoded_layers(strategy, 0.5, 2)


@pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
def test_expected_layers_refuses_a_delivery_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match=r"^delivery_prob must lie in \[0, 1\]"):
        expected_decoded_layers((4, 2), p, 2)


def test_expected_layers_refuses_packets_per_layer_below_one():
    with pytest.raises(ValueError, match="^packets_per_layer must be positive, got 0$"):
        expected_decoded_layers((4, 2), 0.5, 0)


def test_degenerate_probabilities():
    assert expected_decoded_layers((40, 8, 8, 8), 1.0, 8) == 4.0
    assert expected_decoded_layers((40, 8, 8, 8), 0.0, 8) == 0.0


def test_table_build_memory_is_bounded():
    # a build is one kernel call whose large steps run on ranges of their
    # rows of at most kernels.TABLE_STEP_BYTES of step state, so its traced
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


# three standard builds in a fresh interpreter; prints each one's minor page
# faults
_BUILD_FAULTS = (
    "import resource\n"
    "from nclayer.spt import build_table\n"
    "faults = []\n"
    "for _ in range(3):\n"
    "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
    "    build_table()\n"
    "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    "print(*faults)\n"
)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="counts page faults under glibc's malloc",
)
def test_repeated_builds_fault_in_no_fresh_pages():
    # the kernel works in one block per call, which glibc serves from the
    # heap it kept once it has freed a block of that size, so later builds
    # touch pages already resident; fresh arrays per step faulted in about
    # 3,200 pages on every build, not only the first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path(nclayer.__file__).parent.parent), os.environ.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-c", _BUILD_FAULTS],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    first, _, third = (int(n) for n in done.stdout.split())
    assert third <= first / 4, done.stdout


def test_builds_share_nothing_through_the_arena():
    # every kernel call carves its steps from a block of its own: a larger
    # build, a one-strategy value and the same build again leave a table's
    # arrays as they were, and the repeat gives them again bit for bit
    first = build_table(64, 4, 8, 4)
    fields = ("values", "best_index", "restricted_index")
    kept = [getattr(first, name).tobytes() for name in fields]
    build_table(128, 4, 8, 4)
    expected_decoded_layers((40, 8, 8, 8), 0.7, 8)
    again = build_table(64, 4, 8, 4)
    for name, before in zip(fields, kept):
        assert getattr(first, name).tobytes() == before, name
        assert getattr(again, name).tobytes() == before, name


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
    assert _picks(default_table, [100, 5], 100) == [(40, 8, 8, 8), (64, 0, 0, 0)]
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
    got = tuple(default_table.strategies[i] for i in default_table.best_index)
    assert got == STANDARD_BEST


def test_tie_break_prefers_shallow_heavy_vector(default_table):
    # every strategy with the full trailing windows scores 4.0 at p = 1;
    # the winner must be the lexicographically largest of them
    values = default_table.values[:, 19]
    ties = [s for s, v in zip(default_table.strategies, values) if v == 4.0]
    assert len(ties) > 1
    assert _picks(default_table, [100], 100) == [max(ties)]


def test_best_restricted_depth_limits(default_table):
    shallow = _restricted(default_table, 10, 1)
    assert shallow == (64, 0, 0, 0)
    full = _restricted(default_table, 10, 4)
    assert full == default_table.strategies[default_table.best_index[10]]
    two = _restricted(default_table, 10, 2)
    assert two[2] == 0 and two[3] == 0
    assert sum(two) == 64


def test_best_restricted_lookup_matches_scan(default_table):
    small = build_table(budget=8, layer_count=3, packets_per_layer=2, granularity=2)
    # every count of 20 probes, one per bin centre; of 40, every midpoint
    # between bins; and of 1000, the closest counts either side of each
    for table in (default_table, small):
        for probe_count in (20, 40, 1000):
            _picks(table, range(probe_count + 1), probe_count)
        for b in range(len(PDR_BINS)):
            for depth in range(table.layer_count + 2):
                _restricted(table, b, depth)
    assert _restricted(default_table, 10, 0) is None
    best = default_table.strategies[default_table.best_index[10]]
    assert _restricted(default_table, 10, 9) == best
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
    # rarely move with a near-tie, with the surviving probe counts they
    # were picked from
    sent = []
    pick = simulator.pick_strategies

    def recording(selector, seen, probe_count, depths):
        strategies = pick(selector, seen, probe_count, depths)
        sent[-1].append((seen.tolist(), strategies.tolist()))
        return strategies

    monkeypatch.setattr(simulator, "pick_strategies", recording)
    config = ChainConfig(
        link_pdrs=(0.9, 0.9, 0.9), relay_modes=("nc", "nc"), gop_count=60, seed=3
    )
    metrics = []
    for table in (default_table, None):
        sent.append([])
        metrics.append(plain_metrics(run(config, table=table)))
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
