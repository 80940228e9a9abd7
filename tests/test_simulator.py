import csv
import io
import math
from dataclasses import replace

import pytest

from nclayer.simulator import (
    CSV_HEADER,
    ChainConfig,
    append_row,
    format_row,
    metrics_row,
    no_nc_baseline,
    resolve_mode,
    run,
    sweep,
    write_rows,
)


def test_lossless_one_hop_hits_ceiling(default_table):
    config = ChainConfig(link_pdrs=(1.0,), gop_count=20, verify_payloads=True)
    metrics = run(config, table=default_table)
    assert metrics.audl == 4.0
    assert metrics.measured_pdr == 1.0
    assert metrics.sent_total == 20 * 64
    assert metrics.npr == metrics.sent_total
    assert metrics.per_gop_decoded == [4] * 20


def test_lossless_heuristic_hits_ceiling(default_table):
    config = ChainConfig(
        link_pdrs=(1.0,), gop_count=10, selection="heuristic", heuristic_set=3
    )
    metrics = run(config, table=default_table)
    assert metrics.audl == 4.0


def test_forwarders_are_transparent(default_table):
    one = run(ChainConfig(link_pdrs=(1.0,), gop_count=15), table=default_table)
    two = run(
        ChainConfig(link_pdrs=(1.0, 1.0), relay_modes=("forward",), gop_count=15),
        table=default_table,
    )
    assert two.audl == one.audl
    assert two.npr == one.npr
    assert two.sent_total == one.sent_total
    assert two.total_delay > one.total_delay


def test_same_seed_reproduces_everything(default_table):
    config = ChainConfig(link_pdrs=(0.7, 0.8), relay_modes=("nc",), gop_count=25, seed=5)
    a = run(config, table=default_table)
    b = run(config, table=default_table)
    assert a.per_gop_decoded == b.per_gop_decoded
    assert a.per_gop_delay == b.per_gop_delay
    assert a.npr == b.npr
    c = run(replace(config, seed=6), table=default_table)
    assert (a.npr, a.per_gop_delay) != (c.npr, c.per_gop_delay)


def test_uncoded_baseline_matches_closed_form():
    # 2 copies of each source packet: a cell dies only if both drop, so a
    # layer survives with ((1 - 0.01))^8 and depth is the surviving prefix
    q = 0.99**8
    want = sum(q**i for i in range(1, 5))
    metrics = no_nc_baseline(ChainConfig(link_pdrs=(0.9,), gop_count=4000))
    assert abs(metrics.audl - want) < 0.1
    assert metrics.sent_total == 4000 * 64


def test_uncoded_baseline_lossless():
    metrics = no_nc_baseline(ChainConfig(link_pdrs=(1.0,), gop_count=5))
    assert metrics.audl == 4.0
    assert metrics.measured_pdr == 1.0


def test_pdr_schedule_kicks_in(default_table):
    config = ChainConfig(
        link_pdrs=(1.0,),
        gop_count=12,
        pdr_schedule=((6, 0, 0.0),),
    )
    metrics = run(config, table=default_table)
    assert metrics.per_gop_decoded[:6] == [4] * 6
    assert metrics.per_gop_decoded[6:] == [0] * 6


def test_schedule_validation():
    with pytest.raises(ValueError, match="link 3"):
        ChainConfig(link_pdrs=(1.0,), pdr_schedule=((0, 3, 0.5),))
    with pytest.raises(ValueError, match="pdr"):
        ChainConfig(link_pdrs=(1.0,), pdr_schedule=((0, 0, 1.5),))


def test_chain_shape_validation():
    with pytest.raises(ValueError, match="relay"):
        ChainConfig(link_pdrs=(1.0, 1.0), relay_modes=("forward", "forward"))
    with pytest.raises(ValueError, match="at least one link"):
        ChainConfig(link_pdrs=())
    with pytest.raises(ValueError, match="selection"):
        ChainConfig(selection="oracle")
    with pytest.raises(ValueError, match="delays"):
        ChainConfig(link_pdrs=(1.0, 1.0), link_delays=(0.001,))


def test_run_rejects_table_built_for_other_parameters(default_table):
    base = ChainConfig(link_pdrs=(0.9,), gop_count=2)
    for field, value in (
        ("budget", 32),
        ("layer_count", 3),
        ("packets_per_layer", 4),
        ("granularity", 8),
    ):
        with pytest.raises(ValueError, match=f"{field}="):
            run(replace(base, **{field: value}), table=default_table)
    # the heuristic selector never reads the table, but a mismatch still fails
    with pytest.raises(ValueError, match="budget"):
        run(replace(base, budget=32, selection="heuristic"), table=default_table)


def test_delay_affinity_in_nc_relays(default_table):
    def per_gop(modes):
        config = ChainConfig(link_pdrs=(1.0,) * 3, relay_modes=modes, gop_count=1)
        return run(config, table=default_table).per_gop_delay[0]

    base = per_gop(("forward", "forward"))
    one = per_gop(("nc", "forward"))
    two = per_gop(("nc", "nc"))
    assert abs((one - base) - 60.0) < 1e-9
    assert abs((two - one) - 60.0) < 1e-9


def test_table_build_charging_policies(default_table):
    def total(charging, modes):
        config = ChainConfig(
            link_pdrs=(1.0,) * 3,
            relay_modes=modes,
            gop_count=1,
            table_charging=charging,
        )
        return run(config, table=default_table).total_delay

    two_nc = ("nc", "nc")
    assert total("per-node", two_nc) - total("amortized", two_nc) == 60.0
    # with no re-encoding relay there is nothing to charge either way
    fwd = ("forward", "forward")
    assert total("per-node", fwd) == total("amortized", fwd)


def test_resolve_mode_grammar():
    base = ChainConfig(link_pdrs=(0.9, 0.9), relay_modes=("nc",), heuristic_set=2)
    nonc = resolve_mode("NoNC2", base)
    assert nonc.uncoded and nonc.hop_count == 2
    assert nonc.relay_modes == ("forward",)

    nc = resolve_mode("NC3", base)
    assert not nc.uncoded and nc.hop_count == 3
    assert nc.relay_modes == ("forward", "forward")
    assert resolve_mode("NC3-E2E", base).relay_modes == ("forward", "forward")

    hbh = resolve_mode("NC3-HBH", base)
    assert hbh.relay_modes == ("nc", "nc")
    assert resolve_mode("NC3-HBH1", base).relay_modes == ("nc", "forward")

    heur = resolve_mode("heuristic-1", base)
    assert heur.selection == "heuristic" and heur.heuristic_set == 1
    assert heur.hop_count == 2
    assert heur.relay_modes == ("nc",)

    spt = resolve_mode("spt", base)
    assert spt.selection == "spt" and spt.hop_count == 2


def test_resolve_mode_rejects_nonsense():
    base = ChainConfig()
    for bad in ("NC2-HBH5", "warp3", "NC0", "NoNC0", "heuristic-x"):
        with pytest.raises(ValueError):
            resolve_mode(bad, base)


def test_sweep_rows_are_ordered_and_deterministic():
    base = ChainConfig(gop_count=10)
    grid = (0.5, 1.0)
    modes = ["NC1", "NoNC1", "heuristic-3"]
    rows = sweep(base, grid, modes, reps=2, jobs=1)
    assert len(rows) == len(grid) * len(modes) * 2
    # (pdr, mode, rep) nesting, pdr slowest
    assert [r["link_pdr"] for r in rows[:6]] == [0.5] * 6
    assert [r["mode"] for r in rows[:6]] == ["NC1", "NC1", "NoNC1", "NoNC1", "heuristic-3", "heuristic-3"]
    again = sweep(base, grid, modes, reps=2, jobs=3)
    assert [format_row(a) for a in rows] == [format_row(b) for b in again]


def test_sweep_validation():
    base = ChainConfig()
    with pytest.raises(ValueError):
        sweep(base, (), ["spt"])
    with pytest.raises(ValueError):
        sweep(base, (0.5,), [])
    with pytest.raises(ValueError):
        sweep(base, (1.5,), ["spt"])
    with pytest.raises(ValueError):
        sweep(base, (0.5,), ["spt"], reps=0)


def test_lossless_modes_all_reach_ceiling():
    rows = sweep(ChainConfig(gop_count=8), (1.0,), ["NC1", "NoNC1", "spt", "heuristic-3"])
    for row in rows:
        assert row["audl"] == 4.0, row["mode"]
        assert row["measured_pdr"] == 1.0


def test_csv_row_round_trips():
    base = ChainConfig(gop_count=5)
    rows = sweep(base, (0.8,), ["NC1"])
    text = CSV_HEADER + "\n" + "\n".join(format_row(r) for r in rows) + "\n"
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 1
    back = parsed[0]
    assert back["mode"] == rows[0]["mode"]
    assert int(back["hop_count"]) == rows[0]["hop_count"]
    assert float(back["link_pdr"]) == rows[0]["link_pdr"]
    assert int(back["npr"]) == rows[0]["npr"]
    assert int(back["seed"]) == rows[0]["seed"]
    assert math.isclose(float(back["audl"]), rows[0]["audl"], abs_tol=5e-7)


def test_write_and_append_rows(tmp_path):
    base = ChainConfig(gop_count=5)
    rows = sweep(base, (0.9,), ["NC1", "NoNC1"])
    path = tmp_path / "rows.csv"
    write_rows(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    append_row(rows[0], path)
    assert path.read_text().splitlines()[-1] == format_row(rows[0])
    fresh = tmp_path / "fresh.csv"
    append_row(rows[0], fresh)
    assert fresh.read_text().splitlines()[0] == CSV_HEADER


def test_metrics_row_schema(default_table):
    metrics = run(ChainConfig(link_pdrs=(0.9, 0.8), relay_modes=("forward",), gop_count=5), table=default_table)
    row = metrics_row(metrics)
    assert row["hop_count"] == 2
    assert row["link_pdr"] == pytest.approx(0.85)
    assert set(row) == {"mode", "hop_count", "link_pdr", "measured_pdr", "npr", "audl", "delay", "seed"}
