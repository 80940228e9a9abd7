"""The paper's two claims, checked on the README's committed sweep
(tests/data/readme-sweep.csv: 20 bins x NoNC2, NC2-E2E, NC2-HBH and spt at
500 GOPs). Each row is rerun from its mode and seed, which must give its
audl, and the reruns' per-GOP depths give each audl's standard error; a
difference between two rows is measured against the hypot of theirs."""

import csv
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nclayer.simulator import ChainConfig, resolve_mode, run
from nclayer.spt import PDR_BINS

CSV_PATH = Path(__file__).parent / "data" / "readme-sweep.csv"
# standard errors a row may fall below another before a claim fails
SE_MARGIN = 4.0


@pytest.fixture(scope="module")
def reruns(default_table):
    """(mode, link_pdr) -> (CSV audl, rerun audl, standard error of the
    rerun's audl) for every row of the committed sweep."""
    base = ChainConfig(gop_count=500)
    out = {}
    with open(CSV_PATH, newline="", encoding="ascii") as fh:
        for row in csv.DictReader(fh):
            config = resolve_mode(row["mode"], base)
            pdr = float(row["link_pdr"])
            config = replace(config, link_pdrs=(pdr,) * config.hop_count, seed=int(row["seed"]))
            depths = np.array(run(config, table=default_table).per_gop_decoded, dtype=float)
            se = depths.std(ddof=1) / math.sqrt(depths.size)
            out[row["mode"], pdr] = (float(row["audl"]), float(depths.mean()), se)
    return out


def _not_below(reruns, mode, rival, pdr) -> bool:
    """Whether mode's audl at one bin is below rival's by no more than
    SE_MARGIN standard errors of their difference."""
    _, audl, se = reruns[mode, pdr]
    _, rival_audl, rival_se = reruns[rival, pdr]
    return audl - rival_audl >= -SE_MARGIN * math.hypot(se, rival_se)


def test_every_row_reruns_to_its_audl(reruns):
    assert len(reruns) == 4 * len(PDR_BINS)
    moved = {
        key: (want, got) for key, (want, got, _) in reruns.items() if f"{got:.6f}" != f"{want:.6f}"
    }
    assert not moved


@pytest.mark.parametrize("pdr", PDR_BINS)
def test_coding_is_not_below_no_coding(reruns, pdr):
    for mode in ("NC2-E2E", "NC2-HBH"):
        assert _not_below(reruns, mode, "NoNC2", pdr), mode


@pytest.mark.parametrize(
    "pdr",
    [
        pytest.param(
            p,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 1: at 0.95 the one-hop pick is zero-slack and spt "
                "reads 3.806 against NC2-E2E's 3.998",
            ),
        )
        if p == 0.95
        else p
        for p in PDR_BINS
    ],
)
def test_one_hop_gains_more_than_two_hops(reruns, pdr):
    for rival in ("NC2-HBH", "NC2-E2E"):
        assert _not_below(reruns, "spt", rival, pdr), rival
