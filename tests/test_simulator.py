import csv
import io
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

import nclayer.codec as codec
import nclayer.simulator as simulator
from nclayer.codec import PacketBlock
from nclayer.simulator import (
    CSV_HEADER,
    ChainConfig,
    append_row,
    format_row,
    metrics_row,
    resolve_mode,
    run,
    sweep,
    write_rows,
)
from nclayer.spt import build_table
from oracles import reference_run


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
    metrics = run(replace(ChainConfig(link_pdrs=(0.9,), gop_count=4000), scheme="repeat"))
    assert abs(metrics.audl - want) < 0.1
    assert metrics.sent_total == 4000 * 64


def test_uncoded_sender_spends_exactly_the_budget():
    # the uncoded sender repeats all L*P source packets a whole number of
    # times, so a budget that is not a multiple of L*P is refused rather
    # than rounded up (40 would send 64 packets per GOP)
    with pytest.raises(ValueError, match="^budget 40 "):
        ChainConfig(scheme="repeat", budget=40, gop_count=3)
    metrics = run(ChainConfig(scheme="repeat", budget=96, gop_count=3))
    assert metrics.sent_total == 3 * 96
    # a coded sender may spend any budget its table or policy allows
    assert ChainConfig(budget=40, granularity=4).budget == 40


def test_granularity_is_checked_wherever_a_table_is_built():
    for kwargs in (
        dict(granularity=0),
        dict(granularity=5),
        dict(granularity=0, selection="heuristic", link_pdrs=(0.9, 0.9), relay_modes=("nc",)),
    ):
        with pytest.raises(ValueError, match="^granularity "):
            ChainConfig(**kwargs)
    # runs that select without a table never read the granularity
    for kwargs in (dict(selection="heuristic"), dict(scheme="repeat")):
        assert ChainConfig(granularity=0, **kwargs).granularity == 0


def test_uncoded_baseline_lossless():
    metrics = run(replace(ChainConfig(link_pdrs=(1.0,), gop_count=5), scheme="repeat"))
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
    with pytest.raises(ValueError, match=r"link pdr values must lie in \[0, 1\]"):
        ChainConfig(link_pdrs=(0.9, 1.5))
    with pytest.raises(ValueError, match="selection"):
        ChainConfig(selection="oracle")


def test_run_rejects_table_built_for_other_parameters(default_table):
    # a table handed in from outside is checked against the config field by
    # field; the config is one the table would suit but for that field
    params = {"budget": 8, "layer_count": 2, "packets_per_layer": 2, "granularity": 2}
    base = ChainConfig(link_pdrs=(0.9,), gop_count=2, **params)
    for field, value in (
        ("budget", 16),
        ("layer_count", 3),
        ("packets_per_layer", 3),
        ("granularity", 4),
    ):
        table = build_table(**dict(params, **{field: value}))
        message = (
            f"^strategy table does not match the config: "
            f"{field}={value} \\(config has {params[field]}\\)$"
        )
        with pytest.raises(ValueError, match=message):
            run(base, table=table)
    # the heuristic selector never reads the table, but a mismatch still fails
    heuristic = ChainConfig(link_pdrs=(0.9,), gop_count=2, selection="heuristic")
    run(heuristic, table=default_table)
    with pytest.raises(ValueError, match=r"granularity=8 \(config has 4\)"):
        run(heuristic, table=build_table(granularity=8))


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
    # the table build is charged once per run however many relays re-encode,
    # and not at all when none does
    def charge(modes):
        config = ChainConfig(link_pdrs=(1.0,) * 3, relay_modes=modes, gop_count=1)
        metrics = run(config, table=default_table)
        return metrics.total_delay - sum(metrics.per_gop_delay)

    for modes in (("nc", "forward"), ("forward", "nc"), ("nc", "nc")):
        assert abs(charge(modes) - simulator.TABLE_BUILD_CHARGE) < 1e-9
    assert charge(("forward", "forward")) == 0.0


def test_resolve_mode_grammar():
    base = ChainConfig(link_pdrs=(0.9, 0.9), relay_modes=("nc",), heuristic_set=2)
    nonc = resolve_mode("NoNC2", base)
    assert nonc.scheme == "repeat" and nonc.hop_count == 2
    assert nonc.relay_modes == ("forward",)

    nc = resolve_mode("NC3", base)
    assert nc.scheme == base.scheme and nc.hop_count == 3
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
    # only -HBH takes a relay count: NC3-E2E9 would run a plain NC3-E2E
    # chain under its own label
    for bad in ("NC2-HBH5", "warp3", "NC0", "NoNC0", "heuristic-x", "NC3-E2E9", "NC2-E2E1"):
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
    with pytest.raises(ValueError, match="empty"):
        sweep(base, np.array([]), ["spt"])


@pytest.mark.parametrize("setting", [
    {"pdr_schedule": ((0, 0, 0.2),)},
    {"pdr_schedule": ((0, 2, 0.2),)},
])
def test_sweep_refuses_a_base_its_rows_would_not_run_with(setting, monkeypatch):
    # every row runs each link at the grid delivery, so a base schedule
    # would be reported but not run; the schedule on link 2 would also
    # leave NC2 naming a link it lacks
    built = []
    monkeypatch.setattr(simulator, "build_table", lambda **kwargs: built.append(kwargs))
    base = ChainConfig(link_pdrs=(0.9,) * 3, gop_count=5, **setting)
    (name,) = setting
    with pytest.raises(ValueError, match=rf"base {name} \("):
        sweep(base, (0.9,), ("NC3-E2E", "NC2"))
    assert built == []


def test_sweep_resolves_every_mode_before_building_a_table(monkeypatch):
    built = []
    monkeypatch.setattr(simulator, "build_table", lambda **kwargs: built.append(kwargs))
    base = ChainConfig(gop_count=5)
    with pytest.raises(ValueError, match="unknown sweep mode"):
        sweep(base, (0.9,), ("NC3-HBH", "warp3"))
    with pytest.raises(ValueError, match="differs from the 64 packets"):
        sweep(replace(base, budget=48), (0.9,), ("NC3", "heuristic-3"))
    assert built == []
    # uncoded and threshold modes over forwarding relays read no table
    rows = sweep(base, (0.9,), ("heuristic-3", "NoNC2"))
    assert built == [] and [row["mode"] for row in rows] == ["heuristic-3", "NoNC2"]


def test_resolve_mode_gives_the_config_a_sweep_runs():
    base = ChainConfig(link_pdrs=(0.8, 0.6), transmit_delay=0.002, seed=4)
    same = resolve_mode("NC2-HBH", base)
    assert same.link_pdrs == base.link_pdrs
    assert (same.label, same.relay_modes, same.seed) == ("NC2-HBH", ("nc",), 4)
    longer = resolve_mode(" NoNC3 ", base)
    assert longer.link_pdrs == (0.8,) * 3 and longer.transmit_delay == 0.002
    assert longer.label == "NoNC3" and longer.needs_table is False


def test_sweep_takes_an_array_grid():
    base = ChainConfig(gop_count=4)
    rows = sweep(base, np.array([0.5, 0.7]), np.array(["NC1"]))
    assert [format_row(r) for r in rows] == [
        format_row(r) for r in sweep(base, (0.5, 0.7), ["NC1"])
    ]


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


def test_verified_runs_report_decoder_counters(default_table):
    base = ChainConfig(link_pdrs=(0.7,), gop_count=100, seed=1, verify_payloads=True)
    rlc = run(base, table=default_table)
    assert rlc.payload_errors == 0
    # a random GF(2^8) system is singular with probability of order 1/256
    assert rlc.prediction_gaps <= 2
    # XOR is scored by the (depth, column) cells that arrived, which is
    # exactly what its decoder recovers
    xor = run(replace(base, scheme="xor"), table=default_table)
    assert xor.prediction_gaps == 0
    assert xor.payload_errors == 0
    unverified = run(replace(base, scheme="xor", verify_payloads=False), table=default_table)
    assert (unverified.prediction_gaps, unverified.payload_errors) == (0, 0)
    assert unverified.per_gop_decoded == xor.per_gop_decoded


def test_verified_forward_chain_gap_rate_is_of_order_one_over_q(default_table):
    # The count rule overstates a GOP only when its random GF(2^8) system is
    # singular. A k x k system is singular with probability below 1/(q - 1),
    # so a union bound over the L depths a GOP can score bounds the gaps.
    config = ChainConfig(
        link_pdrs=(0.7, 0.7, 0.7), gop_count=1000, seed=21, verify_payloads=True
    )
    metrics = run(config, table=default_table)
    assert metrics.payload_errors == 0
    assert metrics.prediction_gaps <= config.gop_count * config.layer_count / 255
    assert metrics.audl > 0


@pytest.mark.parametrize(
    "relay_modes, verify, decoders",
    [
        (("forward", "forward"), False, ()),
        (("nc", "forward"), False, ()),
        (("nc", "nc"), False, ()),
        (("forward", "nc"), True, (1, 2)),
        (("nc", "nc"), True, (0, 1, 2)),
    ],
)
def test_coefficients_reach_every_decoder_and_no_further(
    relay_modes, verify, decoders, default_table, monkeypatch
):
    # decoders names the positions that read coefficients: relay i at i, the
    # verifying receiver at 2; each encoder sends them only if one is later.
    # Only a verified run decodes: an unverified relay samples its depths
    # from the classes that reached it, so that run makes no packet rows and
    # no encoder of it draws any coefficients
    config = ChainConfig(
        link_pdrs=(0.9,) * 3, relay_modes=relay_modes, gop_count=10, seed=4,
        verify_payloads=verify,
    )
    widths: dict[int, set] = {}

    # the run's 10 GOPs are one block, which the sender picks for first and
    # then each re-encoding relay in hop order, so each pick is numbered
    # with its position by call order; the rows an encode makes belong to
    # the latest pick's encoder
    picked: list[int] = []
    encoders = [-1] + [i for i, m in enumerate(relay_modes) if m == "nc"]
    pick, encode = simulator.pick_strategies, simulator.encode_block

    def picking(*args):
        picked.append(encoders[len(picked)])
        return pick(*args)

    def encoding(*args):
        block = encode(*args)
        if len(block):
            widths.setdefault(picked[-1], set()).add(block.coeffs.shape[1])
        return block

    monkeypatch.setattr(simulator, "pick_strategies", picking)
    monkeypatch.setattr(simulator, "encode_block", encoding)
    metrics = run(config, table=default_table)
    assert metrics.payload_errors == 0
    assert picked == encoders
    if not verify:
        assert widths == {}
        return
    full = config.layer_count * config.packets_per_layer
    assert sorted(widths) == encoders
    for position in encoders:
        wanted = full if any(d > position for d in decoders) else 0
        assert widths[position] == {wanted}, position


TWIN_CONFIGS = {
    "rlc-forward": ChainConfig(
        link_pdrs=(0.7, 0.7, 0.7), relay_modes=("forward", "forward"), gop_count=30, seed=11
    ),
    "rlc-recode": ChainConfig(
        link_pdrs=(0.7, 0.7, 0.7), relay_modes=("nc", "nc"), gop_count=30, seed=12
    ),
    "rlc-recode-then-forward": ChainConfig(
        link_pdrs=(0.7, 0.7, 0.7), relay_modes=("nc", "forward"), gop_count=30, seed=18
    ),
    "rlc-heuristic-mixed": ChainConfig(
        link_pdrs=(0.8, 0.6, 0.9),
        relay_modes=("nc", "forward"),
        selection="heuristic",
        gop_count=30,
        seed=13,
    ),
    "rlc-schedule": ChainConfig(
        link_pdrs=(0.9, 0.8),
        relay_modes=("nc",),
        gop_count=30,
        seed=14,
        update_period=3,
        pdr_schedule=((10, 1, 0.4), (20, 0, 1.0)),
    ),
    "xor-recode": ChainConfig(
        link_pdrs=(0.8, 0.8, 0.8), relay_modes=("nc", "forward"), scheme="xor", gop_count=30, seed=15
    ),
    "xor-heuristic": ChainConfig(
        link_pdrs=(0.9,), scheme="xor", selection="heuristic", gop_count=30, seed=16
    ),
    "repeat-forward": ChainConfig(
        link_pdrs=(0.9, 0.9), relay_modes=("forward",), scheme="repeat", gop_count=30, seed=17
    ),
}


@pytest.mark.parametrize("name", sorted(TWIN_CONFIGS))
def test_unverified_run_matches_verified_twin(name, default_table, monkeypatch):
    # an unverified run carries class counts (RLC) or zero-width payloads
    # (xor, repeat). Where no RLC relay decodes, depth depends only on which
    # classes or cells arrived, so the scores equal those of the byte path
    # as they stand. An unverified RLC relay samples its depths instead of
    # eliminating, so it is handed, in order, the depths its verified
    # twin's relays decoded;
    # then nothing else may differ (test_sampled_chain_matches_verified_audl
    # checks the sampled depths themselves)
    config = TWIN_CONFIGS[name]
    relays = config.relay_modes.count("nc")
    decoded = []
    decode = simulator.decode_block

    def recording(*args):
        depths, cells = decode(*args)
        decoded.append(depths)
        return depths, cells

    monkeypatch.setattr(simulator, "decode_block", recording)
    verified = run(replace(config, verify_payloads=True), table=default_table)
    # each block's relays decode in hop order, then the receiver
    replay = (depths for k, depths in enumerate(decoded) if k % (relays + 1) < relays)
    monkeypatch.setattr(simulator, "decode_block", decode)
    monkeypatch.setattr(simulator, "sample_depths", lambda *args: next(replay))
    bare = run(config, table=default_table)
    if config.scheme == "rlc":
        assert next(replay, None) is None
    for attr in ("npr", "sent_total", "per_gop_decoded", "total_delay"):
        assert getattr(bare, attr) == getattr(verified, attr), attr
    assert verified.payload_errors == 0


@pytest.mark.parametrize(
    "scheme, relay_modes, verify, rows",
    [
        ("rlc", ("forward", "forward"), False, False),
        ("rlc", ("nc", "forward"), False, False),
        ("rlc", ("nc", "forward"), True, True),
        ("xor", ("nc", "forward"), False, True),
        ("repeat", ("forward", "forward"), False, True),
    ],
)
def test_only_runs_that_read_more_than_classes_make_packet_rows(
    scheme, relay_modes, verify, rows, default_table, monkeypatch
):
    # an unverified RLC run reads nothing of a packet but its class, so it
    # carries class counts and builds no PacketBlock; a verified run
    # decodes coefficients and payloads, and xor and repeat read columns
    made = []
    check = PacketBlock.__post_init__

    def counted(block):
        made.append(block.scheme)
        check(block)

    monkeypatch.setattr(PacketBlock, "__post_init__", counted)
    config = ChainConfig(
        link_pdrs=(0.8,) * 3, relay_modes=relay_modes, scheme=scheme, gop_count=20,
        verify_payloads=verify, seed=6,
    )
    metrics = run(config, table=default_table)
    assert metrics.npr > 0
    assert bool(made) == rows
    assert set(made) <= {scheme}


@pytest.mark.parametrize("pdr", [0.5, 0.7, 0.9, 1.0])
def test_sampled_chain_matches_verified_audl(pdr, default_table):
    # NC3-HBH with relays that sample their depths lies within 4 SE of the
    # same chain whose relays eliminate real coefficients. At 1.0 every
    # relay gets the lossless pick (40, 8, 8, 8), whose classes 2-4 have
    # no slack, so a singular 8x8 block costs real relays a layer now and
    # then; a sampler that followed the count rule would read 4.0 there,
    # about 6 SE above the real chain
    config = ChainConfig(
        link_pdrs=(pdr,) * 3, relay_modes=("nc", "nc"), payload_size=1, gop_count=2000,
        seed=71,
    )
    sampled = np.array(run(config, table=default_table).per_gop_decoded)
    verified = run(replace(config, verify_payloads=True), table=default_table)
    decoded = np.array(verified.per_gop_decoded)
    se = np.sqrt((sampled.var(ddof=1) + decoded.var(ddof=1)) / config.gop_count)
    assert abs(sampled.mean() - decoded.mean()) <= 4 * se, (sampled.mean(), decoded.mean(), se)
    assert verified.payload_errors == 0
    if pdr == 1.0:
        assert sampled.mean() < config.layer_count


BLOCK_CONFIGS = {
    "rlc-recode": ChainConfig(
        link_pdrs=(0.7, 0.7, 0.7), relay_modes=("nc", "nc"), gop_count=40, seed=31,
        update_period=2,
    ),
    "xor-recode": ChainConfig(
        link_pdrs=(0.9, 0.9, 0.9), relay_modes=("forward", "nc"), scheme="xor",
        gop_count=40, seed=32,
    ),
    "rlc-verified": ChainConfig(
        link_pdrs=(0.8, 0.7, 0.8), relay_modes=("nc", "forward"), gop_count=40, seed=33,
        verify_payloads=True,
    ),
    "heuristic-schedule": ChainConfig(
        link_pdrs=(0.9, 0.8, 0.7),
        relay_modes=("forward", "nc"),
        selection="heuristic",
        gop_count=40,
        seed=34,
        update_period=3,
        pdr_schedule=((5, 0, 0.5), (23, 2, 0.95), (23, 1, 0.6)),
    ),
    # longer than one default block, so runs cross block boundaries too
    "rlc-recode-long": ChainConfig(
        link_pdrs=(0.7, 0.8, 0.7), relay_modes=("nc", "nc"), gop_count=300, seed=35,
        pdr_schedule=((255, 1, 0.6), (256, 2, 0.9)),
    ),
}


@pytest.mark.parametrize("block", [1, 7, pytest.param(None, id="small-stacks")])
@pytest.mark.parametrize("name", sorted(BLOCK_CONFIGS))
def test_block_size_leaves_every_metric_unchanged(name, block, default_table, monkeypatch):
    # run() carries GOPs through the chain in blocks, segment by segment;
    # every random stream is drawn in the same order whatever the block, so
    # a block of one GOP (the GOP-by-GOP loop) and a ragged block of 7 must
    # give the default block's metrics field for field. So must the default
    # block with each relay and verifying decode split into stacks of a few
    # systems (about 6 unverified, 2 verified)
    config = BLOCK_CONFIGS[name]
    default = run(config, table=default_table)
    if block is None:
        monkeypatch.setattr(codec, "DECODE_STACK_BYTES", 12 * 1024)
    else:
        monkeypatch.setattr(simulator, "GOP_BLOCK", block)
    blocked = run(config, table=default_table)
    assert asdict(blocked) == asdict(default)
    assert len(default.per_gop_delay) == config.gop_count


def _random_config(rng, index):
    scheme = str(rng.choice(["rlc", "xor", "repeat"]))
    hops = int(rng.integers(1, 5))
    if scheme == "repeat":
        relay_modes = ("forward",) * (hops - 1)
    else:
        relay_modes = tuple(str(m) for m in rng.choice(["forward", "nc"], size=hops - 1))
    schedule = tuple(
        (int(rng.integers(0, 70)), int(rng.integers(0, hops)), float(rng.choice([0.0, 0.4, 0.95])))
        for _ in range(int(rng.integers(0, 4)))
    )
    return ChainConfig(
        link_pdrs=tuple(float(p) for p in rng.choice([0.5, 0.7, 0.9, 1.0], size=hops)),
        relay_modes=relay_modes,
        transmit_delay=float(rng.choice([0.001, 0.002])),
        payload_size=16,
        scheme=scheme,
        selection=str(rng.choice(["spt", "heuristic"])),
        heuristic_set=int(rng.integers(1, 4)),
        gop_count=int(rng.choice([1, 31, 33, 45, 70])),
        probe_count=int(rng.choice([20, 100])),
        update_period=int(rng.integers(1, 4)),
        verify_payloads=bool(rng.integers(0, 2)),
        pdr_schedule=schedule,
        seed=1000 + index,
    )


def test_block_pass_matches_the_gop_by_gop_reference(default_table, monkeypatch):
    # run() draws once per link per block and picks, encodes, samples,
    # selects and scores a block at a time; the GOP-by-GOP loop in
    # oracles.py is the reference for every metric and for where each link's
    # generator, and each node's, ends. An encoder that drew other coefficients, or a relay
    # that sampled other depths, or either in another order, ends elsewhere
    rng = np.random.default_rng(2013)
    links, nodes = [], []
    send, encode, sample = simulator.send_block, simulator.encode_block, simulator.sample_depths

    def recorded_send(rngs, *args):
        # every link sends in each block, each segment's in hop order, so
        # the generators are met in hop order
        links.extend(r for r in rngs if all(r is not m for m in links))
        return send(rngs, *args)

    def met(node_rng):
        # each block meets the sender first and then the re-encoding relays
        # in hop order, so the nodes' generators are met in hop order
        if node_rng is not None and all(node_rng is not m for m in nodes):
            nodes.append(node_rng)

    def recorded_encode(cells, counts, scheme, node_rng):
        met(node_rng)
        return encode(cells, counts, scheme, node_rng)

    def recorded_sample(counts, packets_per_layer, node_rng):
        met(node_rng)
        return sample(counts, packets_per_layer, node_rng)

    monkeypatch.setattr(simulator, "send_block", recorded_send)
    monkeypatch.setattr(simulator, "encode_block", recorded_encode)
    monkeypatch.setattr(simulator, "sample_depths", recorded_sample)
    seen = set()
    for index in range(30):
        config = _random_config(rng, index)
        seen.add((config.scheme, config.selection, config.verify_payloads))
        links.clear()
        nodes.clear()
        got = run(config, table=default_table)
        want, link_rngs, node_rngs = reference_run(config, default_table)
        assert asdict(got) == asdict(want), config
        assert len(links) == len(link_rngs) == config.hop_count
        relays = config.relay_modes.count("nc")
        if config.verify_payloads:
            assert len(nodes) == len(node_rngs) == 1 + relays
        else:
            assert len(nodes) == len(node_rngs) == (relays if config.scheme == "rlc" else 0)
        for a, b in zip(links + nodes, link_rngs + node_rngs):
            assert a.bit_generator.state == b.bit_generator.state, config
    assert len(seen) >= 8


def test_grouped_rows_match_their_own_runs(default_table, monkeypatch):
    # a sweep carries rows that differ only in their links' delivery and
    # seed through one pass, a block holding each row's next GOPs in turn;
    # each row must get run()'s metrics field for field, with blocks of
    # one and of 7 GOPs splitting every row mid-run, and leave each of its
    # link, relay and sender generators where the GOP-by-GOP reference does
    rng = np.random.default_rng(2014)
    links, nodes = [], []
    send, encode, sample = simulator.send_block, simulator.encode_block, simulator.sample_depths

    def sources(node_rng):
        return node_rng.sources if isinstance(node_rng, codec._Rows) else [node_rng]

    def recorded_send(rngs, *args):
        links.extend(sources(r) for r in rngs if all(sources(r) is not m for m in links))
        return send(rngs, *args)

    def met(node_rng):
        if node_rng is not None and all(sources(node_rng) is not m for m in nodes):
            nodes.append(sources(node_rng))

    def recorded_encode(cells, counts, scheme, node_rng):
        met(node_rng)
        return encode(cells, counts, scheme, node_rng)

    def recorded_sample(counts, packets_per_layer, node_rng):
        met(node_rng)
        return sample(counts, packets_per_layer, node_rng)

    monkeypatch.setattr(simulator, "send_block", recorded_send)
    monkeypatch.setattr(simulator, "encode_block", recorded_encode)
    monkeypatch.setattr(simulator, "sample_depths", recorded_sample)
    seen, periods, scheduled = set(), set(), False
    for index in range(10):
        # short runs keep the GOP-by-GOP reference quick; blocks of 7 still
        # split each of them, some schedule changes fall inside, and a probe
        # round every 2 or 3 GOPs has blocks start between rounds, on the
        # estimates each row holds
        shape = replace(
            _random_config(rng, index),
            gop_count=int(rng.choice([9, 16, 23])),
            update_period=int(rng.integers(2, 4)),
        )
        hops = shape.hop_count
        rows = [
            replace(
                shape,
                link_pdrs=tuple(float(p) for p in rng.choice([0.5, 0.7, 0.9, 1.0], size=hops)),
                seed=int(rng.integers(0, 2**32)),
                label=f"row{k}" if k % 2 else "",
            )
            for k in range(int(rng.integers(2, 6)))
        ]
        seen.add((shape.scheme, shape.verify_payloads))
        periods.add(shape.update_period)
        scheduled |= any(gop < shape.gop_count for gop, _, _ in shape.pdr_schedule)
        wanted = [asdict(run(row, table=default_table)) for row in rows]
        references = [reference_run(row, default_table) for row in rows]
        for block in (1, 7):
            monkeypatch.setattr(simulator, "GOP_BLOCK", block)
            links.clear()
            nodes.clear()
            got = simulator._run_rows(rows, table=default_table)
            assert [asdict(m) for m in got] == wanted, (shape, block)
            assert len(links) == hops
            assert len(nodes) == max(len(node_rngs) for _, _, node_rngs in references)
            for k, (_, link_rngs, node_rngs) in enumerate(references):
                for a, b in zip([m[k] for m in links + nodes], link_rngs + node_rngs):
                    assert a.bit_generator.state == b.bit_generator.state, (shape, block, k)
    assert {scheme for scheme, _ in seen} == {"rlc", "xor", "repeat"}
    assert {verify for _, verify in seen} == {False, True}
    assert {2, 3} <= periods and scheduled


def test_grouped_rows_must_share_all_but_delivery_seed_and_label(default_table):
    config = ChainConfig(link_pdrs=(0.7, 0.7), gop_count=3)
    simulator._run_rows(
        [config, replace(config, link_pdrs=(0.9, 0.5), seed=3, label="x")], table=default_table
    )
    with pytest.raises(ValueError, match="differ only in"):
        simulator._run_rows([config, replace(config, gop_count=4)], table=default_table)


@pytest.mark.parametrize("modes", [("forward", "forward"), ("nc", "nc"), ("nc", "forward")])
def test_lossless_runs_put_every_probe_on_every_link(modes, default_table):
    # each encoder probes its segment every update_period GOPs; with no
    # loss every probe crosses every link, so each link carries probe_count
    # per round, over every link of the chain
    config = ChainConfig(link_pdrs=(1.0,) * 3, relay_modes=modes, gop_count=9, probe_count=20)
    assert run(config, table=default_table).probe_packets == 20 * 9 * 3
    sparse = replace(config, update_period=4)
    assert run(sparse, table=default_table).probe_packets == 20 * 3 * 3


def test_probes_on_air_count_each_link_a_probe_reaches(default_table):
    # a lost probe is on air on the links up to the one that drops it, and
    # the uncoded baseline sends none
    config = ChainConfig(link_pdrs=(0.8, 0.5, 0.9), gop_count=40, seed=3)
    metrics = run(config, table=default_table)
    assert 40 * 100 < metrics.probe_packets < 40 * 100 * 3
    assert metrics.probe_packets == reference_run(config, default_table)[0].probe_packets
    uncoded = run(replace(config, scheme="repeat", link_pdrs=(0.8, 0.8, 0.8)))
    assert uncoded.probe_packets == 0


@pytest.mark.parametrize("budget", [32, 0, -5])
def test_heuristic_run_spends_the_configured_budget(budget):
    # every builtin threshold set spends 64 packets per GOP, so any other
    # budget is refused rather than silently sending 64
    with pytest.raises(ValueError, match="budget"):
        ChainConfig(
            link_pdrs=(0.9,), budget=budget, selection="heuristic", heuristic_set=3,
            gop_count=10,
        )
    config = ChainConfig(
        link_pdrs=(0.9,), budget=64, selection="heuristic", heuristic_set=3, gop_count=10,
    )
    assert run(config).sent_total == 64 * config.gop_count
    with pytest.raises(ValueError, match="budget"):
        replace(config, budget=budget)


def test_verified_run_counts_short_and_wrong_decodes(monkeypatch):
    # a GOP whose receiver decode falls short of its score is a prediction
    # gap, and one whose recovered bytes differ from the source a payload
    # error
    config = ChainConfig(link_pdrs=(1.0, 1.0), gop_count=5, verify_payloads=True)
    decode = simulator.decode_block

    def shallow(*args):
        depths, cells = decode(*args)
        return depths - 1, cells

    def corrupt(*args):
        depths, cells = decode(*args)
        cells[:, 0, 0, 0] ^= 1
        return depths, cells

    for fault, want in ((shallow, (5, 0)), (corrupt, (0, 5))):
        monkeypatch.setattr(simulator, "decode_block", fault)
        metrics = run(config)
        assert (metrics.prediction_gaps, metrics.payload_errors) == want


def test_negative_delays_are_refused():
    for name in ("transmit_delay", "forward_delay", "recode_delay"):
        with pytest.raises(ValueError, match=name):
            ChainConfig(**{name: -1.0})
    assert ChainConfig(forward_delay=0.0, recode_delay=0.0).forward_delay == 0.0
