import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclayer.channel import send_block
from nclayer.codec import surviving_counts
from oracles import mask_counts, probe_walk_pdr, send_block_masks


def _survived(kept):
    """Which of a link's draws survived, from its running survivor count."""
    return np.diff(kept) > 0


def _transmit(rng, pdr, packets):
    """The packets of one GOP that cross one link."""
    _, (kept,) = send_block([rng], [0], [len(packets)], [[pdr]])
    return packets[_survived(kept)]


def _probe(rngs, pdrs, n_probes):
    """Survivor share of one GOP's probes across the links."""
    alive, _ = send_block(rngs, [n_probes], [0], [[p] for p in pdrs])
    return alive[0] / n_probes


def _after(seed, draws):
    """The state of a link's generator after that many uniforms."""
    rng = np.random.default_rng(seed)
    rng.random(draws)
    return rng.bit_generator.state


def test_extreme_probabilities():
    packets = np.arange(10)
    assert np.array_equal(_transmit(np.random.default_rng(0), 1.0, packets), packets)
    assert len(_transmit(np.random.default_rng(0), 0.0, packets)) == 0


def test_same_seed_same_outcome():
    packets = np.arange(200)
    survivors_a = _transmit(np.random.default_rng(7), 0.5, packets)
    assert np.array_equal(survivors_a, _transmit(np.random.default_rng(7), 0.5, packets))
    assert not np.array_equal(survivors_a, _transmit(np.random.default_rng(8), 0.5, packets))


def test_delivery_order_preserved():
    out = _transmit(np.random.default_rng(1), 0.4, np.arange(100))
    assert (np.diff(out) > 0).all()


def test_draw_counter_tracks_consumption():
    # a link draws one uniform per probe and packet that reaches it, and
    # nothing else
    rng = np.random.default_rng(0)
    _transmit(rng, 0.5, np.arange(10))
    _transmit(rng, 0.5, np.arange(0))
    _probe([rng], [0.5], 26)
    assert rng.bit_generator.state == _after(0, 36)


def test_estimate_pdr_is_sane():
    estimate = _probe([np.random.default_rng(3)], [0.7], 10_000)
    assert 0.65 < estimate < 0.75


def test_chain_e2e_pdr_matches_product():
    rngs = [np.random.default_rng(i) for i in range(3)]
    estimate = _probe(rngs, [0.9] * 3, 20_000)
    assert abs(estimate - 0.9**3) < 0.02


def test_single_link_chain_probe():
    rng = np.random.default_rng(0)
    assert _probe([rng], [1.0], 10) == 1.0
    assert rng.bit_generator.state == _after(0, 10)


def test_validation_errors():
    with pytest.raises(ValueError):
        send_block([np.random.default_rng(0)], [-1], [0], [[0.5]])
    with pytest.raises(ValueError):
        send_block([], [10], [0], [])


def test_send_block_refuses_inputs_that_disagree():
    # a pdrs row per link, a per-GOP row per GOP and probabilities in [0, 1]:
    # anything else would cross fewer links than generators, drop a link's
    # odds or compare uniforms with no probability at all
    rngs = [np.random.default_rng(i) for i in range(3)]
    probes, packets = [5, 0], [10, 4]
    for pdrs, match in (
        ([[0.5, 0.5]], "one delivery probability row per link"),
        ([0.5], "one delivery probability row per link"),
        (np.full((4, 2), 0.5), "one delivery probability row per link"),
        (np.full((3, 2, 1), 0.5), "one delivery probability row per link"),
        (np.full((3, 1), 0.5), "one probability per GOP"),
        (np.full((3, 3), 0.5), "one probability per GOP"),
        ([0.5, 1.5, 0.5], r"lie in \[0, 1\]"),
        ([0.5, -0.5, 0.5], r"lie in \[0, 1\]"),
        ([[0.5, 0.5], [0.5, np.nan], [0.5, 0.5]], r"lie in \[0, 1\]"),
    ):
        with pytest.raises(ValueError, match=match):
            send_block(rngs, probes, packets, pdrs)
    # nothing was drawn before the refusals
    assert all(r.bit_generator.state == _after(i, 0) for i, r in enumerate(rngs))
    alive, kept = send_block(rngs, probes, packets, [0.0, 1.0, 1.0])
    assert alive.tolist() == [0, 0] and [k.size for k in kept] == [20, 1, 1]


def test_chain_probe_matches_probe_walk():
    rng = np.random.default_rng(2013)
    for trial in range(60):
        hops = int(rng.integers(1, 5))
        pdrs = [float(rng.choice([0.0, 1.0, rng.random()])) for _ in range(hops)]
        seeds = [int(s) for s in rng.integers(0, 2**32, size=hops)]
        fast = [np.random.default_rng(s) for s in seeds]
        walk = [np.random.default_rng(s) for s in seeds]
        for n_probes in (1, int(rng.integers(2, 50)), 100):
            assert _probe(fast, pdrs, n_probes) == probe_walk_pdr(walk, pdrs, n_probes), (
                trial, pdrs, n_probes,
            )
            for a, b in zip(fast, walk):
                assert a.bit_generator.state == b.bit_generator.state


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
        block = [np.random.default_rng(s) for s in seeds]
        alive, kept = send_block(block, probes, packets, pdrs)
        single = [np.random.default_rng(s) for s in seeds]
        per_gop = []
        for k in range(gops):
            one_alive, one_kept = send_block(single, [probes[k]], [packets[k]], pdrs[:, [k]])
            assert alive[k] == one_alive[0]
            per_gop.append(one_kept)
        for j in range(hops):
            # the block's draws on link j are the GOPs' draws one after another
            assert kept[j][0] == 0
            want = np.concatenate([_survived(one[j]) for one in per_gop])
            assert np.array_equal(_survived(kept[j]), want)
        for a, b in zip(block, single):
            assert a.bit_generator.state == b.bit_generator.state


def test_one_delivery_per_link_is_that_delivery_in_every_gop():
    # a link whose delivery holds over the block may pass one value, which
    # compares each uniform with the same number as the per-GOP row does
    rng = np.random.default_rng(8)
    for trial in range(20):
        hops, gops = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        seeds = [int(s) for s in rng.integers(0, 2**32, size=hops)]
        pdrs = rng.choice([0.0, 0.3, 0.7, 1.0], size=hops)
        probes = rng.choice([0, 5, 100], size=gops)
        packets = rng.integers(0, 70, size=gops)
        fixed = [np.random.default_rng(s) for s in seeds]
        rows = [np.random.default_rng(s) for s in seeds]
        alive, kept = send_block(fixed, probes, packets, pdrs)
        want_alive, want_kept = send_block(
            rows, probes, packets, np.repeat(pdrs[:, None], gops, axis=1)
        )
        assert np.array_equal(alive, want_alive)
        assert all(np.array_equal(a, b) for a, b in zip(kept, want_kept))
        for a, b in zip(fixed, rows):
            assert a.bit_generator.state == b.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    hops=st.integers(min_value=1, max_value=4),
    gops=st.integers(min_value=1, max_value=9),
    layers=st.integers(min_value=1, max_value=4),
    sends=st.sampled_from(["both", "no probes", "no packets"]),
    per_gop=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_running_counts_give_each_hop_the_counts_of_the_packet_masks(
    hops, gops, layers, sends, per_gop, seed
):
    # each hop's class counts, read from the link's running count over a
    # layout of each GOP's probes and then its classes, are the counts the
    # link's packet mask keeps in the mask oracle; the probes that reach the
    # last hop's far end are those the oracle's probes say, and every link
    # ends where the oracle leaves it. Empty classes, GOPs sending nothing
    # and links that deliver always or never included
    rng = np.random.default_rng(seed)
    probes = rng.choice([0, 1, 5, 100], size=gops)
    counts = rng.choice([0, 0, 1, 3, 8, 20], size=(gops, layers))
    if sends == "no probes":
        probes[:] = 0
    elif sends == "no packets":
        counts[:] = 0
    shape = (hops, gops) if per_gop else (hops,)
    pdrs = np.where(
        rng.random(shape) < 0.4, rng.choice([0.0, 1.0], size=shape), rng.random(shape)
    )
    seeds = [int(s) for s in rng.integers(0, 2**32, size=hops)]
    links = [np.random.default_rng(s) for s in seeds]
    oracle = [np.random.default_rng(s) for s in seeds]
    alive, kept = send_block(links, probes, counts.sum(axis=1), pdrs)
    want_alive, masks = send_block_masks(oracle, probes, counts.sum(axis=1), pdrs)
    reached = probes
    for link_kept, mask in zip(kept, masks):
        assert link_kept.dtype.itemsize <= 4
        arrived = surviving_counts(np.concatenate([reached[:, None], counts], axis=1), link_kept)
        want = mask_counts(counts, mask)
        assert np.array_equal(arrived[:, 1:], want), (arrived, want)
        reached, counts = arrived[:, 0], want
    assert np.array_equal(reached, want_alive)
    assert np.array_equal(alive, want_alive)
    for a, b in zip(links, oracle):
        assert a.bit_generator.state == b.bit_generator.state
