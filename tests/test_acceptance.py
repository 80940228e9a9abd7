"""Acceptance suite: one test per shipped guarantee, each printing a summary
line. Statistical criteria state their margins in sigma units of the
measured difference; everything else is exact or within a fixed tolerance.
"""

import math
import time

import numpy as np

from nclayer.codec import (
    SCHEME_RLC,
    SCHEME_XOR,
    decodable_layers_batch,
    decode_block,
    encode_gop,
)
from nclayer.heuristic import builtin_policy
from nclayer.media import make_synthetic_gop
from nclayer.simulator import ChainConfig, format_row, run, sweep, write_rows
from nclayer.spt import (
    build_table,
    enumerate_strategies,
    expected_decoded_layers,
)
from oracles import (
    brute_force_decoded_layers,
    count_vectors,
    decodable_layers,
    rank_decodable_layers,
    row_classes,
    select_best,
    select_strategy,
)


def _chain_audl(table, hops, relay_modes, p, gops, seed):
    config = ChainConfig(
        link_pdrs=(p,) * hops, relay_modes=relay_modes, gop_count=gops, seed=seed
    )
    decoded = np.asarray(run(config, table=table).per_gop_decoded, dtype=float)
    return decoded.mean(), decoded.std(ddof=1) / math.sqrt(len(decoded))


def test_c01_decode_condition_fidelity():
    start = time.perf_counter()
    assert decodable_layers((1, 1, 1, 0), 1) == 3
    checked = 0
    for layers in (1, 2, 3, 4):
        for per_layer in (1, 2):
            rows = list(count_vectors(layers, 6))
            depths = [decodable_layers(counts, per_layer) for counts in rows]
            for counts, depth in zip(rows, depths):
                assert depth == rank_decodable_layers(counts, per_layer), (counts, per_layer)
            checked += len(rows)
            # the rule the simulator runs, on the same domain
            assert decodable_layers_batch(np.array(rows), per_layer).tolist() == depths
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: {checked} count vectors agree with the rank oracle "
          f"in {elapsed:.2f} s")


def test_c02_expected_value_oracle_equivalence():
    start = time.perf_counter()
    assert expected_decoded_layers((2, 1, 0, 0), 0.5, 1) == 1.125
    strategies = [
        s
        for layers in (1, 2, 3)
        for budget in range(1, 9)
        for s in enumerate_strategies(budget, layers)
    ]
    assert len(strategies) == 216
    worst = 0.0
    for strategy in strategies:
        for p in (0.25, 0.5, 0.75):
            exact = expected_decoded_layers(strategy, p, 1)
            brute = brute_force_decoded_layers(strategy, p, 1)
            worst = max(worst, abs(exact - brute))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 2: 648 oracle cases, worst |exact-brute| = {worst:.2e} "
          f"in {elapsed:.2f} s")


def test_c03_strategy_space_sanity():
    start = time.perf_counter()
    strategies = enumerate_strategies(64, 4, 4)
    assert len(strategies) == 969
    assert (24, 20, 20, 0) in strategies
    assert (40, 8, 8, 8) in strategies
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 3: 969 strategies enumerated in {elapsed:.2f} s")


def test_c04_lossless_ceiling():
    start = time.perf_counter()
    table = build_table(budget=64, layer_count=4, packets_per_layer=8, granularity=4)
    build_seconds = time.perf_counter() - start
    assert build_seconds < 60.0
    best = select_best(table, 1.0)
    assert best == (40, 8, 8, 8)
    assert expected_decoded_layers(best, 1.0, 8) == 4.0
    via_policy = select_strategy(builtin_policy(3), 1.0)
    assert via_policy == (40, 8, 8, 8)
    assert expected_decoded_layers(via_policy, 1.0, 8) == 4.0
    print(f"criterion 4: lossless ceiling 4.0 via table and threshold set 3 "
          f"(table built in {build_seconds:.2f} s)")


def test_c05_codec_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = make_synthetic_gop(0, 4, 8, 64, seed=5)

    rlc_packets = encode_gop(grid, (40, 8, 8, 8), SCHEME_RLC, seed=6)
    full_predicted = 0
    full_recovered = 0
    for _ in range(1000):
        kept = rlc_packets.select(rng.random(len(rlc_packets)) < 0.95)
        if decodable_layers(kept.counts[0], 8) < 4:
            continue
        full_predicted += 1
        (decoded,), (recovered,) = decode_block(kept)
        if decoded == 4 and np.array_equal(recovered, grid):
            full_recovered += 1
    assert full_predicted > 200
    rate = full_recovered / full_predicted
    assert rate >= 0.99

    xor_packets = encode_gop(grid, (16, 16, 16, 16), SCHEME_XOR, seed=7)
    covered = 0
    for _ in range(1000):
        kept = xor_packets.select(rng.random(len(xor_packets)) < 0.9)
        cells = set(zip(row_classes(kept).tolist(), kept.column.tolist()))
        if not all(
            (d, c) in cells for d in range(1, 5) for c in range(8)
        ):
            continue
        covered += 1
        (decoded,), (recovered,) = decode_block(kept)
        assert decoded == 4
        assert np.array_equal(recovered, grid)
    assert covered > 200
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 5: rlc full-decode rate {rate:.4f} over {full_predicted} "
          f"predicted-full trials; xor exact in all {covered} covered trials "
          f"({elapsed:.1f} s)")


def test_c06_monotonicity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    pool = enumerate_strategies(64, 4, 4)
    picks = [pool[i] for i in rng.choice(len(pool), size=50, replace=False)]
    grid = [round(0.05 * k, 2) for k in range(1, 21)]
    for strategy in picks:
        values = [expected_decoded_layers(strategy, p, 8) for p in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), strategy

    # the shipped count rule, one array call per domain: its count vectors,
    # then each of them with one more packet in class 1, 2, ...
    for layers in (1, 2, 3):
        for per_layer in (1, 2):
            domain = np.array(list(count_vectors(layers, 3)))
            rows = np.concatenate([domain, *(domain + bump for bump in np.eye(layers, dtype=int))])
            base, *bumped = decodable_layers_batch(rows, per_layer).reshape(layers + 1, -1)
            for i, depths in enumerate(bumped):
                worse = np.flatnonzero(depths < base)
                assert not worse.size, (domain[worse[0]].tolist(), i)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 6: expected depth monotone in p for 50 strategies; "
          f"decode depth monotone in counts ({elapsed:.1f} s)")


def test_c07_hbh_beats_e2e_on_lossy_chains(default_table):
    start = time.perf_counter()
    e2e, e2e_err = _chain_audl(default_table, 3, ("forward", "forward"), 0.7, 2000, 71)
    hbh, hbh_err = _chain_audl(default_table, 3, ("nc", "nc"), 0.7, 2000, 72)
    margin = (hbh - e2e) / math.hypot(e2e_err, hbh_err)
    assert margin > 4.0

    e2e2, _ = _chain_audl(default_table, 2, ("forward",), 0.8, 2000, 73)
    hbh2, _ = _chain_audl(default_table, 2, ("nc",), 0.8, 2000, 74)
    assert hbh2 > e2e2
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 7: 3 hops p=0.7 audl {hbh:.3f} vs {e2e:.3f} "
          f"({margin:.0f} sigma, +{100 * (hbh - e2e) / e2e:.0f}%); "
          f"2 hops p=0.8 {hbh2:.3f} vs {e2e2:.3f} ({elapsed:.0f} s)")


def test_c08_diminishing_relay_returns(default_table):
    start = time.perf_counter()
    none, err0 = _chain_audl(default_table, 3, ("forward", "forward"), 0.8, 2000, 81)
    one, err1 = _chain_audl(default_table, 3, ("nc", "forward"), 0.8, 2000, 82)
    two, err2 = _chain_audl(default_table, 3, ("nc", "nc"), 0.8, 2000, 83)
    first_gain = one - none
    second_gain = two - one
    sigma = math.sqrt(err0**2 + 4 * err1**2 + err2**2)
    assert (first_gain - second_gain) / sigma > 3.0
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    print(f"criterion 8: relay gains {first_gain:.3f} then {second_gain:.3f} "
          f"({(first_gain - second_gain) / sigma:.0f} sigma apart, {elapsed:.0f} s)")


def test_verified_recode_chain_decodes_source_bytes(default_table):
    # every relay decodes and re-encodes real bytes, so the receiver's
    # recovered layers must equal the source grid's, GOP after GOP
    start = time.perf_counter()
    config = ChainConfig(
        link_pdrs=(0.7, 0.7, 0.7),
        relay_modes=("nc", "nc"),
        gop_count=200,
        seed=91,
        verify_payloads=True,
    )
    metrics = run(config, table=default_table)
    assert metrics.payload_errors == 0
    assert metrics.audl > 1.0
    elapsed = time.perf_counter() - start
    print(f"verified recode chain: {config.gop_count} GOPs, audl {metrics.audl:.3f}, "
          f"{metrics.payload_errors} payload errors, {metrics.prediction_gaps} "
          f"prediction gaps ({elapsed:.1f} s)")


def test_c09_delay_model_ordering(default_table):
    start = time.perf_counter()

    def total(hops, modes):
        config = ChainConfig(
            link_pdrs=(1.0,) * hops,
            relay_modes=modes,
            gop_count=1,
        )
        return run(config, table=default_table).total_delay

    plain = total(1, ())
    one_nc = total(2, ("nc",))
    two_nc = total(3, ("nc", "nc"))
    assert plain < one_nc < two_nc
    assert plain < 1.0
    assert math.floor(math.log10(one_nc)) == 2
    assert math.floor(math.log10(two_nc)) == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 9: delay ordering {plain:.3f} < {one_nc:.3f} < {two_nc:.3f} "
          f"seconds ({elapsed:.2f} s)")


def test_c10_sweep_determinism(tmp_path):
    start = time.perf_counter()
    base = ChainConfig(gop_count=40, seed=17)
    grid = (0.3, 0.7, 1.0)
    modes = ["NC1", "NoNC1", "NC2-HBH", "heuristic-2", "spt"]
    serial = sweep(base, grid, modes, reps=2, jobs=1)
    parallel = sweep(base, grid, modes, reps=2, jobs=4)
    rerun = sweep(base, grid, modes, reps=2, jobs=1)
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    write_rows(serial, a)
    write_rows(parallel, b)
    write_rows(rerun, c)
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 10: {len(serial)} sweep rows byte-identical at jobs 1 "
          f"and 4 and across reruns ({elapsed:.1f} s)")
