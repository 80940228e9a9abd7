"""Seeded outputs pinned as literals.

Every value here is what the simulator produced for a fixed seed. A change
to how packets are held, sent or scored must leave the random streams and
the scoring untouched, so these stay bit-identical; a change that means to
alter a stream has to update them and say so.
"""

import hashlib

import numpy as np
import pytest

from nclayer.codec import SCHEME_RLC, encode_block
from nclayer.media import make_synthetic_cells
from nclayer.simulator import CSV_HEADER, ChainConfig, format_row, run, sweep
from oracles import plain_metrics

GOLDEN_RUNS = {
    "forward-rlc": (
        ChainConfig(
            link_pdrs=(0.7, 0.7, 0.7),
            relay_modes=("forward", "forward"),
            gop_count=24,
            seed=101,
            pdr_schedule=((12, 1, 0.5),),
        ),
        434,
        1536,
        [2, 2, 2, 0, 2, 0, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 0, 1, 1, 2, 0, 2, 2, 1],
        3.4880000000000004,
    ),
    "recode-rlc": (
        ChainConfig(
            link_pdrs=(0.7, 0.7, 0.7),
            relay_modes=("nc", "nc"),
            gop_count=24,
            seed=102,
            update_period=2,
        ),
        1074,
        1536,
        [4] * 24,
        2944.848000000001,
    ),
    "xor-chain": (
        ChainConfig(
            link_pdrs=(0.8, 0.8, 0.8),
            relay_modes=("nc", "forward"),
            scheme="xor",
            gop_count=24,
            seed=103,
        ),
        238,
        1536,
        [0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
        1502.4660000000001,
    ),
    "verified-rlc": (
        ChainConfig(
            link_pdrs=(0.7, 0.8),
            relay_modes=("forward",),
            gop_count=24,
            seed=104,
            verify_payloads=True,
        ),
        864,
        1536,
        [4, 0, 4, 4, 4, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 3, 4, 4, 4, 4, 4, 4, 4],
        2.7120000000000015,
    ),
    # a forwarding relay inside the first re-encoding relay's segment, a
    # schedule that changes a link in each relay's segment, and enough GOPs
    # to span several blocks of any loop that groups them, with a ragged tail
    "verified-mixed-schedule": (
        ChainConfig(
            link_pdrs=(0.8, 0.7, 0.8, 0.75),
            relay_modes=("nc", "forward", "nc"),
            gop_count=75,
            seed=105,
            update_period=3,
            verify_payloads=True,
            pdr_schedule=((17, 1, 0.5), (40, 3, 0.9)),
        ),
        3247,
        4800,
        [3, 3, 3, 4, 4, 4, 4, 0, 0, 3, 3, 3, 3, 3, 3, 0, 4, 0, 3, 0, 0, 3, 3, 3, 2]
        + [2, 2, 3, 3, 3, 2, 2, 2, 3, 0, 3, 3, 3, 2, 3, 3, 0, 3, 3, 3, 2, 2, 2, 3, 3]
        + [3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 0, 0, 0, 1, 3, 0, 3, 3, 0, 3, 2, 2, 2],
        9077.286999999998,
    ),
    # 40 probes a round: every odd k/40 lies on a bin midpoint, which the
    # bin lookup rounds down; rounding those up moves this run's outputs
    "recode-probes-40-period-3": (
        ChainConfig(
            link_pdrs=(0.6, 0.6, 0.6),
            relay_modes=("nc", "nc"),
            gop_count=30,
            seed=110,
            probe_count=40,
            update_period=3,
        ),
        1145,
        1920,
        [4, 4, 4, 3, 3, 3, 4, 4, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3]
        + [4, 4, 4, 4, 4, 4],
        3666.060000000002,
    ),
    # 10 probes a round: 3, 5 and 8 of 10 survive here, each exactly on a
    # breakpoint of set 3, which takes the upper interval
    "heuristic-3-probes-10": (
        ChainConfig(
            link_pdrs=(0.8, 0.8, 0.8),
            gop_count=30,
            seed=112,
            probe_count=10,
            selection="heuristic",
            heuristic_set=3,
        ),
        960,
        1920,
        [1, 1, 3, 3, 1, 1, 3, 1, 3, 3, 3, 3, 3, 3, 2, 3, 2, 1, 2, 3, 1, 2, 3, 1, 3]
        + [3, 1, 3, 1, 2],
        4.894,
    ),
    # README's config file: its schedule drops link 1 to 0.3 at GOP 500,
    # inside the second of the 256-GOP blocks a run carries; the depths of
    # GOPs 500-999 are the digits
    "readme-config": (
        ChainConfig(
            link_pdrs=(0.9, 0.8),
            relay_modes=("forward",),
            gop_count=1000,
            pdr_schedule=((500, 1, 0.3),),
        ),
        31671,
        64000,
        [4] * 500
        + [
            int(d)
            for d in "11221222022222222222012221020202222221122002122100"
            "02222201001021022201102102021200022212202120210220"
            "00211002222121021122011022122002221011212201202210"
            "22120222211221221122221212211021201212212200202201"
            "22111202222022022222221222011202012202020220011200"
            "21010210212111002012200212012012120112010010122122"
            "22022222102222201020222202002220222202020202221022"
            "22022001122120222212221221102020022222120202222221"
            "12022220212222010010102200202221222122202210122222"
            "02202222022110020211022202221022222212222002220201"
        ],
        126.63000000000008,
    ),
}

# (config, npr, total_delay, sha256 of per_gop_decoded as little-endian
# int64) of a lossless unverified chain of two re-encoding relays, one full
# block and a ragged tail: a relay decodes short only where its sampled
# rank falls short of the count rule, which the table's zero-slack pick
# (40, 8, 8, 8) leaves no room for
GOLDEN_SAMPLED_RUN = (
    ChainConfig(link_pdrs=(1.0, 1.0, 1.0), relay_modes=("nc", "nc"), gop_count=300, seed=109),
    19200,
    36120.60000000005,
    "90af572c1c9b3a31ba34f6672221aefe25f7e0860262125e72156efabe8282a3",
)

# sha256 of the standard B=64, L=4, P=8, g=4 table: every value in every bin
# as float64 bytes, the per-bin argmax and the (bin, depth) restricted argmax
# as int64 bytes; a kernel change that moves any value by one bit fails here
GOLDEN_TABLE_SHA256 = {
    "values": "c7c5f8df3dac272dce672ab6d40041b355785309722e0b1a3391733d4588a066",
    "best_index": "8dd11c097cf94d304c7a3a88a4f6441a351f0c4be06b0f762feda6d9c25f9ee2",
    "restricted_index": "30d7572190cb576eb7319948b6c1e7ca27483bd38972fa19c0ab01446c733071",
}

# sha256 of the coefficient bytes of a fixed L=4, P=8 RLC block: seeded run
# outputs rarely depend on which coefficients were drawn, so this pins the
# stream every encoder draws them from
GOLDEN_COEFFS_SHA256 = "ded025ec9de3833053c35b15803f0b33f215d5faca07def1e0c381c9b3a300a8"

GOLDEN_SWEEP_CSV = (
    CSV_HEADER + "\n"
    "NoNC3,3,0.6000,0.208333,160,0.000000,1.620000,16823399\n"
    "NC3-HBH,3,0.6000,0.570312,438,3.250000,1502.360000,3598628658\n"
    "heuristic-3,3,0.6000,0.246094,189,1.000000,1.652000,2134324977\n"
    "NoNC3,3,0.9000,0.725260,557,0.916667,2.193000,3796490668\n"
    "NC3-HBH,3,0.9000,0.916667,704,4.000000,1502.424000,3269189123\n"
    "heuristic-3,3,0.9000,0.729167,560,3.000000,2.183000,4078058680\n"
)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_seeded_run_outputs_are_pinned(name, default_table):
    config, npr, sent_total, per_gop_decoded, total_delay = GOLDEN_RUNS[name]
    metrics = plain_metrics(run(config, table=default_table))
    assert metrics["npr"] == npr
    assert metrics["sent_total"] == sent_total
    assert metrics["per_gop_decoded"] == per_gop_decoded
    assert metrics["total_delay"] == total_delay


def test_sampled_relay_depths_are_pinned(default_table):
    config, npr, total_delay, decoded_sha256 = GOLDEN_SAMPLED_RUN
    metrics = run(config, table=default_table)
    decoded = np.asarray(metrics.per_gop_decoded, dtype="<i8")
    assert metrics.npr == npr
    assert metrics.total_delay == total_delay
    assert hashlib.sha256(decoded.tobytes()).hexdigest() == decoded_sha256
    # a sampler that kept the count rule would pass every GOP at depth 4
    assert decoded.min() < 4


def test_standard_table_is_pinned(default_table):
    arrays = {
        "values": default_table.values.astype("<f8"),
        "best_index": default_table.best_index.astype("<i8"),
        "restricted_index": default_table.restricted_index.astype("<i8"),
    }
    digests = {
        name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
        for name, a in arrays.items()
    }
    assert digests == GOLDEN_TABLE_SHA256


@pytest.mark.parametrize("jobs", [1, 2])
def test_seeded_sweep_csv_is_pinned(jobs):
    base = ChainConfig(
        link_pdrs=(0.8, 0.8, 0.8), relay_modes=("forward", "forward"), gop_count=12, seed=5
    )
    rows = sweep(base, (0.6, 0.9), ("NoNC3", "NC3-HBH", "heuristic-3"), jobs=jobs)
    text = CSV_HEADER + "\n" + "".join(format_row(r) + "\n" for r in rows)
    assert text == GOLDEN_SWEEP_CSV


def test_block_coefficients_are_pinned():
    cells = make_synthetic_cells(range(4), 4, 8, 0)
    strategies = [(40, 8, 8, 8), (0, 0, 0, 0), (3, 5, 0, 0), (1, 2, 3, 4)]
    block = encode_block(cells, strategies, SCHEME_RLC, np.random.default_rng(2013))
    assert block.coeffs.shape == (82, 32)
    assert hashlib.sha256(block.coeffs.tobytes()).hexdigest() == GOLDEN_COEFFS_SHA256
