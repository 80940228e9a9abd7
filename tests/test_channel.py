import numpy as np
import pytest

from nclayer.channel import LinkModel, chain_e2e_pdr
from oracles import probe_walk_pdr


def test_extreme_probabilities():
    perfect = LinkModel(1.0, seed=0)
    dead = LinkModel(0.0, seed=0)
    packets = np.arange(10)
    assert np.array_equal(perfect.transmit(packets), packets)
    assert len(dead.transmit(packets)) == 0


def test_same_seed_same_outcome():
    a = LinkModel(0.5, seed=7)
    b = LinkModel(0.5, seed=7)
    c = LinkModel(0.5, seed=8)
    packets = np.arange(200)
    survivors_a = a.transmit(packets)
    assert np.array_equal(survivors_a, b.transmit(packets))
    assert not np.array_equal(survivors_a, c.transmit(packets))


def test_delivery_order_preserved():
    link = LinkModel(0.4, seed=1)
    out = link.transmit(np.arange(100))
    assert (np.diff(out) > 0).all()


def test_draw_counter_tracks_consumption():
    link = LinkModel(0.5, seed=0)
    link.transmit(np.arange(10))
    link.transmit(np.arange(0))
    chain_e2e_pdr([link], 26)
    assert link.draws == 36


def test_estimate_pdr_is_sane():
    link = LinkModel(0.7, seed=3)
    estimate = chain_e2e_pdr([link], 10_000)
    assert 0.65 < estimate < 0.75


def test_chain_e2e_pdr_matches_product():
    links = [LinkModel(0.9, seed=i) for i in range(3)]
    estimate = chain_e2e_pdr(links, 20_000)
    assert abs(estimate - 0.9**3) < 0.02


def test_single_link_chain_probe():
    link = LinkModel(1.0, seed=0)
    assert chain_e2e_pdr([link], 10) == 1.0
    assert link.draws == 10


def test_validation_errors():
    with pytest.raises(ValueError):
        LinkModel(1.5)
    with pytest.raises(ValueError):
        LinkModel(0.5, transmit_delay=-1.0)
    with pytest.raises(ValueError):
        chain_e2e_pdr([LinkModel(0.5)], 0)
    with pytest.raises(ValueError):
        chain_e2e_pdr([], 10)


def test_chain_probe_matches_probe_walk():
    rng = np.random.default_rng(2013)
    for trial in range(60):
        hops = int(rng.integers(1, 5))
        pdrs = [float(rng.choice([0.0, 1.0, rng.random()])) for _ in range(hops)]
        seeds = [int(s) for s in rng.integers(0, 2**32, size=hops)]
        fast = [LinkModel(p, seed=s) for p, s in zip(pdrs, seeds)]
        walk = [LinkModel(p, seed=s) for p, s in zip(pdrs, seeds)]
        for n_probes in (1, int(rng.integers(2, 50)), 100):
            assert chain_e2e_pdr(fast, n_probes) == probe_walk_pdr(walk, n_probes), (
                trial, pdrs, n_probes,
            )
            for a, b in zip(fast, walk):
                assert a.draws == b.draws
                assert a._rng.bit_generator.state == b._rng.bit_generator.state
