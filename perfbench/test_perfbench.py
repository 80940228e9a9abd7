"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

import nclayer.nodes  # noqa: E402
from nclayer.media import make_synthetic_gop  # noqa: E402
from nclayer.simulator import ChainConfig  # noqa: E402
from nclayer.simulator import run as simulate  # noqa: E402


def test_missing_layer_is_reported_absent_and_others_still_traced():
    original = nclayer.nodes.encode_gop
    tracer = Tracer(layers={
        "codec.encode_gop": ((("nclayer.nodes", "encode_gop"),), None),
        "spt.removed_scan": ((("nclayer.spt", "no_such_function"),), None),
        "gone.module": ((("nclayer.no_such_module", "anything"),), None),
        "channel.send_one": ((("nclayer.channel", "LinkModel.no_such_method"),), None),
    })
    assert tracer.absent == ["channel.send_one", "gone.module", "spt.removed_scan"]
    grid = make_synthetic_gop(0, 4, 8, 16)
    with tracer.active():
        assert nclayer.nodes.encode_gop is not original
        nclayer.nodes.encode_gop(grid, (40, 8, 8, 8), "rlc", 1)
    assert nclayer.nodes.encode_gop is original
    totals = tracer.layer_totals()
    assert totals["codec.encode_gop"]["calls"] == 1
    assert totals["spt.removed_scan"] == {"calls": 0, "s": 0.0, "self_s": 0.0}


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer(layers={"a": ((), None), "b": ((), None)})
    tracer.spans = [
        (0, "a", 0.0, 10.0, None, 0),
        (1, "b", 1.0, 5.0, 0, 0),
        (2, "b", 3.0, 7.0, 0, 0),  # parallel with span 1
        (3, "b", 9.0, 12.0, 0, 0),  # runs past its parent's end
    ]
    totals = tracer.layer_totals()
    assert totals["a"]["self_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert totals["b"]["calls"] == 3
    assert totals["b"]["s"] == pytest.approx(11.0)


def _table(values, best_last):
    return SimpleNamespace(
        layer_count=4,
        strategies=[(64, 0, 0, 0), (40, 8, 8, 8)],
        values=np.asarray(values, dtype=float),
        best_index=np.asarray([0, best_last]),
        pdr_bins=(0.35, 1.0),
    )


def test_table_check_rejects_wrong_tables():
    assert checks.check_table(_table([[1.0, 1.0], [0.5, 4.0]], 1)) == []
    assert checks.check_table(_table([[1.0, 1.0], [0.5, 4.0]], 0))
    assert checks.check_table(_table([[1.0, 1.0], [0.5, 3.9]], 1))
    assert checks.check_table(_table([[4.5, 1.0], [0.5, 4.0]], 1))


def test_forward_check_rejects_a_chain_run_at_the_wrong_delivery():
    config = ChainConfig(
        link_pdrs=(0.9,) * 3, relay_modes=("forward",) * 2,
        selection="heuristic", gop_count=20, seed=5,
    )
    metrics = simulate(config)
    assert checks.check_forward_pdr(metrics, 0.9, 3) == []
    assert checks.check_forward_pdr(metrics, 0.7, 3)


def test_recode_check_needs_audl_above_the_forward_best():
    table = _table([[2.0, 1.0], [0.5, 4.0]], 1)
    assert checks.check_recode_audl(SimpleNamespace(audl=2.5), table) == []
    assert checks.check_recode_audl(SimpleNamespace(audl=2.0), table)
    regridded = SimpleNamespace(**dict(vars(table), pdr_bins=(0.25, 1.0)))
    assert checks.check_recode_audl(SimpleNamespace(audl=2.5), regridded)


def test_sweep_checks_reject_wrong_rows():
    base = ChainConfig(link_pdrs=(0.8,) * 3)
    mean, _ = checks.uncoded_depth_moments(0.8, 3, 4, 8, 2)
    row = {"mode": "NoNC3", "link_pdr": 0.8, "measured_pdr": 0.512, "audl": mean}
    assert checks.check_sweep_row(row, base, ("NoNC3",), "NoNC3") == []
    assert checks.check_sweep_row(dict(row, audl=mean + 0.3), base, ("NoNC3",), "NoNC3")
    assert checks.check_sweep_row(dict(row, measured_pdr=0.6), base, ("NoNC3",), "NoNC3")
    lossless = {"mode": "NoNC3", "link_pdr": 1.0, "measured_pdr": 1.0, "audl": 3.99}
    assert checks.check_sweep_row(lossless, base, ("NoNC3",), "NoNC3")
    assert checks.check_sweep_order([row], (0.8,), ("NoNC3",)) == []
    assert checks.check_sweep_order([row], (0.8,), ("NoNC3", "NC3-E2E"))


def test_probe_scale_uses_samples_inside_the_operation_or_the_nearest():
    probes = run.SpeedProbes()
    slow, fast = 2 * run.PROBE_REF_S, run.PROBE_REF_S
    cpu0 = [(t, fast) for t in range(10)] + [(t, slow) for t in range(10, 20)]
    cpu1 = [(t, slow) for t in range(20)]
    probes._samples = [cpu0, cpu1]
    assert probes.scale(12.0, 18.0) == pytest.approx(0.5)
    assert probes.scale(2.0, 8.0) == pytest.approx(1 / 1.5)
    # A short operation between samples takes the nearest ones.
    assert probes.scale(4.4, 4.5) == pytest.approx(1 / 1.5)


def test_raising_operation_counts_as_failed():
    outcome = run.Outcome()

    def broken():
        raise ValueError("boom")

    assert outcome.call(broken) is None
    assert outcome.record([]) is True
    assert (outcome.attempted, outcome.failed) == (2, 1)


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
