import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclayer.channel import send_block
from nclayer.codec import _Rows, surviving_counts
from oracles import mask_counts, probe_walk_pdr, running_count_read, send_block_masks


def _survived(kept):
    """Which of a link's draws survived, from its survival mask: every entry
    but the closing one."""
    return kept[:-1]


def _transmit(rng, pdr, packets):
    """The packets of one GOP that cross one link."""
    _, (kept,) = send_block(rng, [0], [len(packets)], [pdr])
    return packets[_survived(kept)]


def _probe(rng, pdrs, n_probes):
    """Survivor share of one GOP's probes across a segment's links."""
    alive, _ = send_block(rng, [n_probes], [0], pdrs)
    return alive[0] / n_probes


def _after(seed, draws):
    """The state of a segment's generator after that many uniforms."""
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
    # a segment draws one uniform per probe and packet it sends, at its
    # head, whatever its links, and nothing else
    rng = np.random.default_rng(0)
    _transmit(rng, 0.5, np.arange(10))
    _transmit(rng, 0.5, np.arange(0))
    _probe(rng, [0.5], 26)
    assert rng.bit_generator.state == _after(0, 36)
    _probe(rng, [0.5, 0.0, 0.9], 26)
    assert rng.bit_generator.state == _after(0, 62)


def test_estimate_pdr_is_sane():
    estimate = _probe(np.random.default_rng(3), [0.7], 10_000)
    assert 0.65 < estimate < 0.75


def test_chain_e2e_pdr_matches_product():
    estimate = _probe(np.random.default_rng(0), [0.9] * 3, 20_000)
    assert abs(estimate - 0.9**3) < 0.02


def test_single_link_chain_probe():
    rng = np.random.default_rng(0)
    assert _probe(rng, [1.0], 10) == 1.0
    assert rng.bit_generator.state == _after(0, 10)


@pytest.mark.parametrize(
    "pdrs",
    [(0.7, 0.7), (0.9, 0.5, 0.8), (0.6, 1.0, 0.7), (0.8, 0.0, 0.9), (0.5, 0.9, 1.0, 0.3)],
)
def test_each_link_passes_what_reached_it_with_its_own_odds(pdrs):
    # one uniform per packet against the running product of the deliveries
    # is the law of independent links: at each hop the share of what
    # reached it that crosses is that link's delivery, and the end-to-end
    # count is Binomial(n, product), each within 5 standard errors; a
    # delivery of 0 or 1 inside the segment is exact. The same holds for
    # each row of a codec._Rows, each at its own deliveries
    n = 200_000
    rows = [np.random.default_rng(s) for s in (11, 12)]
    other = [1.0 - p / 2 for p in pdrs]
    for rng, per_row in ((np.random.default_rng(10), [pdrs]), (_Rows(rows), [pdrs, other])):
        r = len(per_row)
        alive, kept = send_block(rng, [n // 2, 0] * r, [0, n - n // 2] * r, np.array(per_row).T)
        assert kept.shape == (len(pdrs), r * n + 1) and not kept[:, -1].any()
        for row, row_pdrs in enumerate(per_row):
            crossed = kept[:, row * n : (row + 1) * n].sum(axis=1)
            reached = np.concatenate([[n], crossed[:-1]])
            for p, got, tried in zip(row_pdrs, crossed, reached):
                se = np.sqrt(p * (1 - p) / tried) if tried else 0.0
                assert abs(got / max(tried, 1) - p * (tried > 0)) <= 5 * se, (row_pdrs, p)
            end = np.prod(row_pdrs)
            assert abs(crossed[-1] - n * end) <= 5 * np.sqrt(n * end * (1 - end)), row_pdrs
            # the probes that cross every link are the first half's survivors
            assert alive[2 * row] == kept[-1, row * n : row * n + n // 2].sum()


def test_validation_errors():
    with pytest.raises(ValueError, match="^probes"):
        send_block(np.random.default_rng(0), [-1], [0], [[0.5]])
    with pytest.raises(ValueError, match="^pdrs"):
        send_block(np.random.default_rng(0), [10], [0], [])
    # one generator per segment: a list of one per link is refused
    with pytest.raises(ValueError, match="^rng"):
        send_block([np.random.default_rng(0)], [10], [0], [0.5])


def test_send_block_refuses_inputs_that_disagree():
    # a pdrs row per link, one probability per row the segment's generator
    # draws for and probabilities in [0, 1]: anything else would drop a
    # link's odds or compare uniforms with no probability at all. A per-GOP
    # row, (links, GOPs), of a plain generator would run every GOP at GOP
    # 0's delivery, so it is refused too
    rng = np.random.default_rng(0)
    probes, packets = [5, 0], [10, 4]
    per_row = "^pdrs must hold for each link one delivery per row rng draws for"
    for pdrs, match in (
        ([], per_row),
        (0.5, per_row),
        ([[0.5, 0.5]], per_row),
        (np.full((3, 2, 1), 0.5), per_row),
        (np.full((3, 2), 0.5), per_row),
        (np.full((3, 3), 0.5), per_row),
        (np.full((3, 0), 0.5), per_row),
        ([0.5, 1.5, 0.5], r"^pdrs must lie in \[0, 1\]"),
        ([0.5, -0.5, 0.5], r"^pdrs must lie in \[0, 1\]"),
        ([0.5, np.nan, 0.5], r"^pdrs must lie in \[0, 1\]"),
        ([0.5, "0.5"], r"^pdrs must lie in \[0, 1\]"),
        ([True, True], r"^pdrs must lie in \[0, 1\]"),
    ):
        with pytest.raises(ValueError, match=match):
            send_block(rng, probes, packets, pdrs)
    # a codec._Rows of two runs' generators takes one probability per run
    # on each link, and no other count, and as many GOPs per run
    rows = _Rows([np.random.default_rng(10 + k) for k in range(2)])
    for pdrs in ([0.5, 0.5, 0.5], np.full((3, 1), 0.5), np.full((3, 4), 0.5)):
        with pytest.raises(ValueError, match=per_row):
            send_block(rows, probes * 2, packets * 2, pdrs)
    with pytest.raises(ValueError, match="^probes must hold as many GOPs for each"):
        send_block(rows, probes + [1], packets + [1], np.full((3, 2), 0.5))
    # nothing was drawn before the refusals
    assert rng.bit_generator.state == _after(0, 0)
    assert all(g.bit_generator.state == _after(10 + k, 0) for k, g in enumerate(rows.sources))
    alive, kept = send_block(rng, probes, packets, [0.0, 1.0, 1.0])
    assert alive.tolist() == [0, 0] and kept.shape == (3, 20) and not kept.any()
    alive, kept = send_block(rng, probes, packets, [[1.0], [1.0], [1.0]])
    assert alive.tolist() == [5, 0] and kept.shape == (3, 20)
    assert all(k[:-1].all() and not k[-1] for k in kept)


def test_send_block_refuses_counts_that_are_not_one_whole_number_per_gop():
    # counts of two lengths, a 2-D block, a fraction or a scalar would cross
    # the wrong number of GOPs or silently round, so each is refused by
    # name before any draw; integer counts of any width, and an empty
    # block, still pass
    rng = np.random.default_rng(0)
    for probes, packets, match in (
        ([5, 0], [10], "^packets must hold one count per GOP of probes"),
        ([[5]], [[10]], "^probes must be a 1-D array of whole numbers"),
        (5, 10, "^probes must be a 1-D array of whole numbers"),
        ([5.5], [10], "^probes must be a 1-D array of whole numbers"),
        ([5], [True], "^packets must be a 1-D array of whole numbers"),
        ([5], [-1], "^packets must be non-negative"),
    ):
        with pytest.raises(ValueError, match=match):
            send_block(rng, probes, packets, [0.5])
    assert rng.bit_generator.state == _after(0, 0)
    alive, (kept,) = send_block(rng, np.array([5], np.uint8), np.array([10], np.int32), [1.0])
    assert alive.tolist() == [5] and kept.tolist() == [True] * 15 + [False]
    alive, (kept,) = send_block(rng, [], [], [0.5])
    assert alive.size == 0 and kept.tolist() == [False]


def test_chain_probe_matches_probe_walk():
    # the segment's generator is its first link's, seeds[0]
    rng = np.random.default_rng(2013)
    for trial in range(60):
        hops = int(rng.integers(1, 5))
        pdrs = [float(rng.choice([0.0, 1.0, rng.random()])) for _ in range(hops)]
        seeds = [int(s) for s in rng.integers(0, 2**32, size=hops)]
        fast = np.random.default_rng(seeds[0])
        walk = np.random.default_rng(seeds[0])
        for n_probes in (1, int(rng.integers(2, 50)), 100):
            assert _probe(fast, pdrs, n_probes) == probe_walk_pdr(walk, pdrs, n_probes), (
                trial, pdrs, n_probes,
            )
            assert fast.bit_generator.state == walk.bit_generator.state


def test_block_draws_as_gops_sent_one_by_one():
    # a block of GOPs, each sending probes and then packets under each
    # link's delivery odds, leaves the segment's generator where sending
    # GOP by GOP leaves it, with the same masks
    rng = np.random.default_rng(7)
    for trial in range(40):
        hops = int(rng.integers(1, 4))
        gops = int(rng.integers(1, 9))
        seeds = [int(s) for s in rng.integers(0, 2**32, size=hops)]
        pdrs = rng.choice([0.0, 0.3, 0.7, 1.0], size=hops)
        probes = rng.choice([0, 5, 100], size=gops)
        packets = rng.integers(0, 70, size=gops)
        block = np.random.default_rng(seeds[0])
        alive, kept = send_block(block, probes, packets, pdrs)
        single = np.random.default_rng(seeds[0])
        per_gop = []
        for k in range(gops):
            one_alive, one_kept = send_block(single, [probes[k]], [packets[k]], pdrs)
            assert alive[k] == one_alive[0]
            per_gop.append(one_kept)
        for j in range(hops):
            # the block's draws for link j are the GOPs' draws one after
            # another, and its mask closes on one False
            assert not kept[j][-1]
            want = np.concatenate([_survived(one[j]) for one in per_gop])
            assert np.array_equal(_survived(kept[j]), want)
        assert block.bit_generator.state == single.bit_generator.state


def test_one_row_rows_draw_as_their_plain_generators():
    # a codec._Rows of one run's generator, with that run's one delivery
    # per link as its row, draws and keeps what the plain generator does
    rng = np.random.default_rng(8)
    for trial in range(20):
        hops, gops = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        seeds = [int(s) for s in rng.integers(0, 2**32, size=hops)]
        pdrs = rng.choice([0.0, 0.3, 0.7, 1.0], size=hops)
        probes = rng.choice([0, 5, 100], size=gops)
        packets = rng.integers(0, 70, size=gops)
        fixed = np.random.default_rng(seeds[0])
        rows = _Rows([np.random.default_rng(seeds[0])])
        alive, kept = send_block(fixed, probes, packets, pdrs)
        want_alive, want_kept = send_block(rows, probes, packets, pdrs[:, None])
        assert np.array_equal(alive, want_alive)
        assert np.array_equal(kept, want_kept)
        assert fixed.bit_generator.state == rows.sources[0].bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    hops=st.integers(min_value=1, max_value=4),
    gops=st.integers(min_value=1, max_value=9),
    layers=st.integers(min_value=1, max_value=4),
    sends=st.sampled_from(["both", "no probes", "no packets"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_running_counts_give_each_hop_the_counts_of_the_packet_masks(
    hops, gops, layers, sends, seed
):
    # each hop's class counts, read from the link's survival mask over the
    # head's layout of each GOP's probes and then its classes, are the
    # counts the packet-by-packet walk's mask for that link keeps; the
    # probes that cross every link are those the walk's probes say, and
    # the segment's generator ends where the walk leaves it. Empty classes,
    # GOPs sending nothing and links that deliver always or never included
    rng = np.random.default_rng(seed)
    probes = rng.choice([0, 1, 5, 100], size=gops)
    counts = rng.choice([0, 0, 1, 3, 8, 20], size=(gops, layers))
    if sends == "no probes":
        probes[:] = 0
    elif sends == "no packets":
        counts[:] = 0
    pdrs = np.where(
        rng.random(hops) < 0.4, rng.choice([0.0, 1.0], size=hops), rng.random(hops)
    )
    seeds = [int(s) for s in rng.integers(0, 2**32, size=hops)]
    link = np.random.default_rng(seeds[0])
    oracle = np.random.default_rng(seeds[0])
    alive, kept = send_block(link, probes, counts.sum(axis=1), pdrs)
    want_alive, masks = send_block_masks(oracle, probes, counts.sum(axis=1), pdrs)
    head = np.concatenate([probes[:, None], counts], axis=1)
    assert kept.dtype == bool and kept.shape == (hops, int(head.sum()) + 1)
    reached = probes
    for link_kept, mask in zip(kept, masks):
        # one byte a draw, and one closing entry
        assert not link_kept[-1]
        arrived = surviving_counts(head, link_kept)
        want = mask_counts(counts, mask)
        assert np.array_equal(arrived[:, 1:], want), (arrived, want)
        # what crosses a link crossed every link before it
        assert (arrived[:, 0] <= reached).all()
        reached = arrived[:, 0]
    assert np.array_equal(reached, want_alive)
    assert np.array_equal(alive, want_alive)
    assert link.bit_generator.state == oracle.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(
    gops=st.integers(min_value=0, max_value=8),
    layers=st.integers(min_value=1, max_value=4),
    empty=st.sets(st.sampled_from(["first", "middle", "last"])),
    delivery=st.sampled_from(["always", "never", "random"]),
    rows=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_surviving_counts_read_what_a_running_count_reads(
    gops, layers, empty, delivery, rows, seed
):
    # the counts of each run of a link's draws, over a layout of each GOP's
    # probes and then its classes, are those a running survivor count of
    # the link's mask gives. Empty runs first, in the middle and last, a
    # block of no GOPs whose link draws nothing, masks all True and all
    # False, and two runs' GOPs drawn by their own generators as one
    # codec._Rows included
    rng = np.random.default_rng(seed)
    counts = rng.choice([0, 1, 3, 8], size=(rows * gops, 1 + layers))
    runs = counts.reshape(-1)
    if runs.size:
        for place in empty:
            runs[{"first": 0, "middle": runs.size // 2, "last": -1}[place]] = 0
    pdrs = {"always": [1.0] * rows, "never": [0.0] * rows, "random": rng.random(rows)}[delivery]
    links = [np.random.default_rng(s) for s in rng.integers(0, 2**32, size=rows)]
    link = links[0] if rows == 1 else _Rows(links)
    alive, (kept,) = send_block(link, counts[:, 0], counts[:, 1:].sum(axis=1), [pdrs])
    want = running_count_read(counts, kept)
    assert np.array_equal(surviving_counts(counts, kept), want), (counts, kept)
    assert np.array_equal(alive, want[:, 0])
