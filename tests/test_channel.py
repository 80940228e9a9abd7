import numpy as np
import pytest

from nclayer.channel import LinkModel, send_block
from oracles import probe_walk_pdr


def _transmit(link, packets):
    """The packets of one GOP that cross one link."""
    _, (mask,) = send_block([link], [0], [len(packets)], [[link.delivery_prob]])
    return packets[mask]


def _probe(links, n_probes):
    """Survivor share of one GOP's probes across the links."""
    alive, _ = send_block(links, [n_probes], [0], [[link.delivery_prob] for link in links])
    return alive[0] / n_probes


def test_extreme_probabilities():
    perfect = LinkModel(1.0, seed=0)
    dead = LinkModel(0.0, seed=0)
    packets = np.arange(10)
    assert np.array_equal(_transmit(perfect, packets), packets)
    assert len(_transmit(dead, packets)) == 0


def test_same_seed_same_outcome():
    a = LinkModel(0.5, seed=7)
    b = LinkModel(0.5, seed=7)
    c = LinkModel(0.5, seed=8)
    packets = np.arange(200)
    survivors_a = _transmit(a, packets)
    assert np.array_equal(survivors_a, _transmit(b, packets))
    assert not np.array_equal(survivors_a, _transmit(c, packets))


def test_delivery_order_preserved():
    link = LinkModel(0.4, seed=1)
    out = _transmit(link, np.arange(100))
    assert (np.diff(out) > 0).all()


def test_draw_counter_tracks_consumption():
    link = LinkModel(0.5, seed=0)
    _transmit(link, np.arange(10))
    _transmit(link, np.arange(0))
    _probe([link], 26)
    assert link.draws == 36


def test_estimate_pdr_is_sane():
    link = LinkModel(0.7, seed=3)
    estimate = _probe([link], 10_000)
    assert 0.65 < estimate < 0.75


def test_chain_e2e_pdr_matches_product():
    links = [LinkModel(0.9, seed=i) for i in range(3)]
    estimate = _probe(links, 20_000)
    assert abs(estimate - 0.9**3) < 0.02


def test_single_link_chain_probe():
    link = LinkModel(1.0, seed=0)
    assert _probe([link], 10) == 1.0
    assert link.draws == 10


def test_validation_errors():
    with pytest.raises(ValueError):
        LinkModel(1.5)
    with pytest.raises(ValueError):
        LinkModel(0.5, transmit_delay=-1.0)
    with pytest.raises(ValueError):
        send_block([LinkModel(0.5)], [-1], [0], [[0.5]])
    with pytest.raises(ValueError):
        send_block([], [10], [0], [])


def test_chain_probe_matches_probe_walk():
    rng = np.random.default_rng(2013)
    for trial in range(60):
        hops = int(rng.integers(1, 5))
        pdrs = [float(rng.choice([0.0, 1.0, rng.random()])) for _ in range(hops)]
        seeds = [int(s) for s in rng.integers(0, 2**32, size=hops)]
        fast = [LinkModel(p, seed=s) for p, s in zip(pdrs, seeds)]
        walk = [LinkModel(p, seed=s) for p, s in zip(pdrs, seeds)]
        for n_probes in (1, int(rng.integers(2, 50)), 100):
            assert _probe(fast, n_probes) == probe_walk_pdr(walk, n_probes), (
                trial, pdrs, n_probes,
            )
            for a, b in zip(fast, walk):
                assert a.draws == b.draws
                assert a._rng.bit_generator.state == b._rng.bit_generator.state


def test_block_draws_as_gops_sent_one_by_one():
    # a block of GOPs, each sending probes and then packets under its own
    # delivery odds, leaves every link where sending GOP by GOP leaves it
    rng = np.random.default_rng(7)
    for trial in range(40):
        hops = int(rng.integers(1, 4))
        gops = int(rng.integers(1, 9))
        seeds = [int(s) for s in rng.integers(0, 2**32, size=hops)]
        pdrs = rng.choice([0.0, 0.3, 0.7, 1.0], size=(hops, gops))
        probes = rng.choice([0, 5, 100], size=gops)
        packets = rng.integers(0, 70, size=gops)
        block = [LinkModel(0.5, seed=s) for s in seeds]
        alive, masks = send_block(block, probes, packets, pdrs)
        single = [LinkModel(0.5, seed=s) for s in seeds]
        per_gop = []
        for k in range(gops):
            one_alive, one_masks = send_block(single, [probes[k]], [packets[k]], pdrs[:, [k]])
            assert alive[k] == one_alive[0]
            per_gop.append(one_masks)
        for j in range(hops):
            assert np.array_equal(masks[j], np.concatenate([m[j] for m in per_gop]))
        for a, b in zip(block, single):
            assert a.draws == b.draws
            assert a._rng.bit_generator.state == b._rng.bit_generator.state
