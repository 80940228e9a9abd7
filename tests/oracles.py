"""Independent reference implementations used by the test suite.

Except for reference_run and class_block, nothing here imports from the
package's arithmetic or decode logic; each oracle recomputes its answer by
a structurally different method so that agreement is evidence rather than
tautology. class_block is no oracle: it builds the RLC blocks of which
tests read only the classes, and plain_metrics only restates a run's
metrics as values that compare exactly. reference_run drives the
package's codec one GOP at a time, with the scalar count rule, table and
policy lookups below, through the GOP-by-GOP loop, so it checks how run()
carries GOPs, not the codec; each of its encoders hands its own generator
to encode_block GOP by GOP, so the block pass must draw the same
coefficients in the same order.
Its relays sample with reference_sample_depths, which steps every draw as
the sampler first did.
"""

import math
from dataclasses import asdict
from functools import lru_cache
from itertools import product

import numpy as np


def reference_gf_tables():
    """Powers of the generator 0x03 built from doubling alone.

    3*x = (2*x) xor x, and 2*x is one shift with conditional reduction, so
    this never runs the package's shift-and-add multiply loop.
    """
    def double(a):
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        return a

    exp = [1]
    for _ in range(254):
        prev = exp[-1]
        exp.append(double(prev) ^ prev)
    log = {value: i for i, value in enumerate(exp)}
    return exp, log


def reference_gf_mul(a, b, exp, log):
    if a == 0 or b == 0:
        return 0
    return exp[(log[a] + log[b]) % 255]


@lru_cache(maxsize=None)
def _reference_gf_arrays():
    """(256, 256) product table and length-256 inverse table as uint8 arrays,
    filled from the doubling construction above."""
    exp, log = reference_gf_tables()
    mul = np.array(
        [[reference_gf_mul(a, b, exp, log) for b in range(256)] for a in range(256)],
        dtype=np.uint8,
    )
    inv = np.zeros(256, dtype=np.uint8)
    for a in range(1, 256):
        inv[a] = exp[(255 - log[a]) % 255]
    mul.flags.writeable = False
    inv.flags.writeable = False
    return mul, inv


def rref_reference(aug, n_unknowns):
    """Gauss-Jordan elimination over GF(2^8), in place, one row at a time.

    This is the row reduction as first written: the first nonzero entry at or
    below the rank row is the pivot, the pivot row is scaled to a unit pivot,
    then every other row holding the column has it cleared across the whole
    row. The kernel must leave ``aug`` and return ``owner`` byte for byte as
    this does, so that no seeded decode can move with the kernel.
    """
    MUL_TABLE, INV_TABLE = _reference_gf_arrays()
    n_rows = aug.shape[0]
    owner = np.full(n_unknowns, -1, dtype=np.int32)
    rank = 0
    for col in range(n_unknowns):
        if rank == n_rows:
            break
        pivot = -1
        for r in range(rank, n_rows):
            if aug[r, col]:
                pivot = r
                break
        if pivot < 0:
            continue
        if pivot != rank:
            aug[[pivot, rank]] = aug[[rank, pivot]]
        row = aug[rank]
        scale = INV_TABLE[row[col]]
        if scale != 1:
            row[:] = MUL_TABLE[scale, row]
        mask = aug[:, col] != 0
        mask[rank] = False
        if mask.any():
            factors = aug[mask, col]
            aug[mask] ^= MUL_TABLE[factors[:, None], row[None, :]]
        owner[col] = rank
        rank += 1
    return owner


def decode_gop_reference(
    scheme, depth, payload, layer_count, per_layer, payload_size, coeffs=None, column=None
):
    """(decoded depth, (L, P, s) cells) of one GOP's packet rows, one GOP
    and one packet at a time.

    RLC rows form one augmented system, reduced by rref_reference; an
    unknown is solved when its pivot row holds no other coefficient, and the
    depth is the longest run of layers whose unknowns are all solved. Under
    xor and repeat the first copy of each (depth, column) cell supplies it;
    the depth is the longest run of depths whose every column arrived, and
    xor peels layer d of a column as its depth d sum XOR its depth d-1 sum.
    Cells past the depth are zero.
    """
    n_unknowns = layer_count * per_layer
    cells = np.zeros((layer_count, per_layer, payload_size), dtype=np.uint8)
    solved = {}
    if scheme == "rlc":
        if len(depth):
            aug = np.zeros((len(depth), n_unknowns + payload_size), dtype=np.uint8)
            aug[:, :n_unknowns] = coeffs
            aug[:, n_unknowns:] = payload
            owner = rref_reference(aug, n_unknowns)
            for unknown, row in enumerate(owner):
                if row >= 0 and np.count_nonzero(aug[row, :n_unknowns]) == 1:
                    solved[divmod(unknown, per_layer)] = aug[row, n_unknowns:]
    else:
        for d, c, row in zip(depth.tolist(), column.tolist(), payload):
            solved.setdefault((d - 1, c), row)
    decoded = 0
    while decoded < layer_count and all((decoded, c) in solved for c in range(per_layer)):
        decoded += 1
    for layer in range(decoded):
        for c in range(per_layer):
            cells[layer, c] = solved[layer, c]
            if scheme == "xor" and layer:
                cells[layer, c] ^= solved[layer - 1, c]
    return decoded, cells


def max_cover(counts, per_layer, shallowest):
    """Generic rank of the mixing matrix restricted to the unknowns of
    layers >= shallowest, via greedy matching.

    A class-c packet's coefficient row touches only layers 1..c, so slots of
    layer l can only be matched to packets of class >= l. Deep slots are the
    scarcest; walking layers deepest-first and granting each layer at most
    per_layer packets from the accumulated pool realizes the maximum
    matching for this nested eligibility structure.
    """
    pool = 0
    covered = 0
    for layer in range(len(counts), 0, -1):
        pool += counts[layer - 1]
        if layer >= shallowest:
            take = min(per_layer, pool)
            covered += take
            pool -= take
    return covered


def rank_decodable_layers(counts, per_layer):
    """Deepest fully solvable prefix by the rank criterion: layers 1..d are
    recoverable iff eliminating the deeper unknowns leaves a full-rank
    system, i.e. rank(all columns) - rank(columns past d) == d * per_layer."""
    full = max_cover(counts, per_layer, 1)
    for depth in range(len(counts), 0, -1):
        if full - max_cover(counts, per_layer, depth + 1) == depth * per_layer:
            return depth
    return 0


def decodable_layers(counts, packets_per_layer):
    """Deepest prefix of layers covered by per-class reception counts.

    counts[j] is how many class j+1 packets arrived. Depth i qualifies when
    every trailing window of classes i-k..i holds at least (k+1) *
    packets_per_layer packets, i.e. enough material to cancel everything the
    deepest packets mixed in. Returns the largest qualifying i, or 0. This
    is the count rule one count vector at a time, window by window, the
    reference for codec.decodable_layers_batch's running-maximum form.
    """
    if packets_per_layer < 1:
        raise ValueError(f"packets_per_layer must be positive, got {packets_per_layer}")
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError(f"reception counts must be non-negative, got {counts}")
    for i in range(len(counts), 0, -1):
        if all(sum(counts[i - 1 - k : i]) >= (k + 1) * packets_per_layer for k in range(i)):
            return i
    return 0


BRUTE_FORCE_CAP = 20


def brute_force_decoded_layers(strategy, delivery_prob, packets_per_layer):
    """spt.expected_decoded_layers by enumerating all 2**budget delivery
    outcomes and scoring each with decodable_layers; capped at budgets of
    BRUTE_FORCE_CAP packets."""
    counts = tuple(int(x) for x in strategy)
    if any(x < 0 for x in counts) or not counts:
        raise ValueError(f"strategy must be non-empty and non-negative, got {counts}")
    if not 0.0 <= delivery_prob <= 1.0:
        raise ValueError(f"delivery_prob must lie in [0, 1], got {delivery_prob}")
    if packets_per_layer < 1:
        raise ValueError(f"packets_per_layer must be positive, got {packets_per_layer}")
    total_packets = sum(counts)
    if total_packets > BRUTE_FORCE_CAP:
        raise ValueError(
            f"brute-force enumerates 2**{total_packets} outcomes; "
            f"capped at budgets of {BRUTE_FORCE_CAP} packets"
        )
    owner = [j for j, x in enumerate(counts) for _ in range(x)]
    total = 0.0
    for mask in range(1 << total_packets):
        received = [0] * len(counts)
        m = mask
        k = 0
        for b in range(total_packets):
            if m & 1:
                received[owner[b]] += 1
                k += 1
            m >>= 1
        weight = delivery_prob**k * (1.0 - delivery_prob) ** (total_packets - k)
        total += weight * decodable_layers(received, packets_per_layer)
    return total


def count_vectors(layer_count, max_entry):
    return product(range(max_entry + 1), repeat=layer_count)


def expected_layers_reference(strategies, pmf_rows, per_layer):
    """Mean decodable depth per strategy, one strategy at a time.

    This is the expected-depth dynamic program as first written: a forward
    occupancy pass and a backward zero-avoidance pass per strategy, each
    binomial outcome r skipped when its weight is zero and accumulated in
    ascending r. The batched kernel must reproduce it bit for bit, so the
    order of every floating-point operation here is the contract. A forward
    state depends only on the counts before it and a backward state only on
    those after it, so each is stepped once per count prefix or suffix and
    looked up by it after that; the steps and the sums are those of
    walking every strategy afresh.

    Like the kernel it takes one bin's (n, n) pmf rows, giving values of
    shape (strategies,), or a (bins, n, n) stack, giving (strategies, bins).
    Each state is a C-contiguous (bins, states) array, stepped over every
    bin at once, so a spill is still numpy's sum of a contiguous run. An
    outcome is skipped only where its weight is zero in every bin; in any
    other bin a zero weight adds an exact +0.0, since every term is finite
    and non-negative, so each bin's values are those of walking it alone.
    """
    stack = pmf_rows if pmf_rows.ndim == 3 else pmf_rows[None]
    n_strategies, n_layers = strategies.shape
    n_bins = stack.shape[0]
    n_states = n_layers * per_layer + 1
    start = np.zeros((n_bins, n_states))
    start[:, 0] = 1.0
    forward = {(): start}
    backward = {(): np.ones((n_bins, n_states))}

    def forward_state(prefix):
        if prefix not in forward:
            c = prefix[-1]
            forward[prefix] = _forward_step(
                forward_state(prefix[:-1]), stack[:, c, : c + 1], per_layer
            )
        return forward[prefix]

    def backward_state(suffix):
        if suffix not in backward:
            c = suffix[0]
            backward[suffix] = _backward_step(
                backward_state(suffix[1:]), stack[:, c, : c + 1], per_layer
            )
        return backward[suffix]

    out = np.zeros((n_strategies, n_bins))
    for s in range(n_strategies):
        counts = tuple(int(x) for x in strategies[s])
        zero_occupancy = [forward_state(counts[:i])[:, 0] for i in range(n_layers + 1)]
        value = n_layers * zero_occupancy[n_layers]
        for i in range(n_layers - 1, 0, -1):
            value += i * zero_occupancy[i] * backward_state(counts[i:])[:, 0]
        out[s] = value
    return out if pmf_rows.ndim == 3 else out[:, 0]


def _forward_step(f, pmf, per_layer):
    n_states = f.shape[1]
    new = np.zeros_like(f)
    spill = np.zeros(f.shape[0])
    for r in range(pmf.shape[1]):
        pr = pmf[:, r, None]
        if not pr.any():
            continue
        shift = per_layer - r
        if shift > 0:
            new[:, shift:] += pr * f[:, : n_states - shift]
        elif shift == 0:
            new += pr * f
        else:
            drop = -shift
            spill += pr[:, 0] * f[:, : drop + 1].sum(axis=1)
            if drop + 1 < n_states:
                new[:, 1 : n_states - drop] += pr * f[:, drop + 1 :]
    new[:, 0] += spill
    return new


def _backward_step(bq, pmf, per_layer):
    n_states = bq.shape[1]
    new = np.zeros_like(bq)
    for r in range(pmf.shape[1]):
        pr = pmf[:, r, None]
        if not pr.any():
            continue
        shift = per_layer - r
        if shift > 0:
            new[:, : n_states - shift] += pr * bq[:, shift:]
        elif shift == 0:
            new[:, 1:] += pr * bq[:, 1:]
        else:
            drop = -shift
            if drop + 1 < n_states:
                new[:, drop + 1 :] += pr * bq[:, 1 : n_states - drop]
    return new


def pmf_rows_reference(max_count, p):
    """Binomial(n, p) pmf rows filled one cell at a time, zero-padded to a
    square array; the vectorised rows must equal it bit for bit."""
    rows = np.zeros((max_count + 1, max_count + 1))
    for n in range(max_count + 1):
        for r in range(n + 1):
            rows[n, r] = math.comb(n, r) * p**r * (1.0 - p) ** (n - r)
    return rows


def probe_walk_pdr(rngs, pdrs, n_probes):
    """End-to-end probe estimate, one probe at a time.

    Each probe crosses the links in order until its first loss, drawing one
    scalar uniform from the generator of each link it reaches, which
    delivers it with that link's probability in pdrs. A vectorised
    estimator must return the same fraction and leave every link's
    generator exactly where this walk leaves it.
    """
    survived = 0
    for _ in range(n_probes):
        for rng, pdr in zip(rngs, pdrs):
            if not rng.random() < pdr:
                break
        else:
            survived += 1
    return survived / n_probes


def mask_counts(counts, mask):
    """The survivors of each run of rows under a survival mask, run by run:
    counts holds each run's rows, the runs one after another in its
    row-major order, and mask one entry per row."""
    counts = np.asarray(counts)
    runs = counts.ravel()
    assert mask.shape == (int(runs.sum()),)
    parts = np.split(mask, np.cumsum(runs)[:-1]) if runs.size else []
    return np.array([int(part.sum()) for part in parts], dtype=np.int64).reshape(counts.shape)


def running_count_read(counts, kept):
    """The survivors of each run of rows, read from a survival mask kept
    (one entry per row and a closing one) as a link's running survivor
    count reads them: one cumulative sum over the rows' entries, and each
    run's count the difference of that sum at the run's end and its start.
    counts holds each run's rows, the runs one after another in its
    row-major order."""
    counts = np.asarray(counts)
    runs = counts.ravel()
    ends = np.cumsum(runs)
    running = np.concatenate([[0], np.cumsum(kept[:-1], dtype=np.int64)])
    return (running[ends] - running[ends - runs]).reshape(counts.shape)


def send_block_masks(rngs, probes, packets, pdrs):
    """A block's crossing of the links as per-link packet masks: the probes
    of each GOP that crossed every link, and per link the survival mask of
    the packets that reached it. Each link draws one uniform per probe and
    packet that reached it, GOP by GOP, probes first, in one call; pdrs[j]
    is link j's probability. The reference for channel.send_block's running
    counts."""
    runs = np.stack([np.asarray(probes), np.asarray(packets)], axis=1)
    is_packet = np.tile(np.array([False, True]), runs.shape[0])
    masks = []
    for rng, link_pdrs in zip(rngs, pdrs):
        alive = rng.random(int(runs.sum())) < link_pdrs
        masks.append(alive[np.repeat(is_packet, runs.ravel())])
        runs = mask_counts(runs, alive)
    return runs[:, 0], masks


def nearest_bin_reference(estimate):
    """Delivery bin of one estimate, in scalar arithmetic: the closest of
    0.05, 0.10, ..., 1.00, exact midpoints rounding down, as a 0-based
    index. The array form must give this for every estimate."""
    if not 0.0 <= estimate <= 1.0:
        raise ValueError(f"pdr estimate must lie in [0, 1], got {estimate}")
    scaled = estimate * 20.0
    k = int(math.floor(scaled))
    if scaled - k > 0.5 + 1e-9:
        k += 1
    return min(max(k, 1), 20) - 1


def select_best(table, pdr_estimate):
    """The table's best strategy for a delivery estimate, one estimate at a
    time: the best_index entry of the bin nearest_bin_reference finds."""
    return table.strategies[int(table.best_index[nearest_bin_reference(pdr_estimate)])]


def best_restricted(table, bin_index, max_depth):
    """Best strategy of bin bin_index among those that leave every class
    deeper than max_depth empty, by a scan over the table: the last strategy
    holding the maximum value wins exact ties. None when no strategy
    qualifies."""
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    values = table.values[:, bin_index].tolist()
    best = None
    for i, strategy in enumerate(table.strategies):
        if any(strategy[max_depth:]):
            continue
        if best is None or values[i] >= values[best]:
            best = i
    return None if best is None else table.strategies[best]


def reference_sample_depths(block, rng):
    """codec.sample_depths's depths on the class counts of an RLC block's
    packets, by stepping every draw, as the sampler first did: class by
    class, the GOPs' draws of e >= 1 of each rank at once, each after a
    water-fill of the zeros before it, then the rest. The same one
    rng.geometric call, so it leaves rng where sample_depths does."""
    layer_count, packets_per_layer = block.layer_count, block.packets_per_layer
    counts = block.counts
    ends = np.cumsum(counts)
    e = rng.geometric(1 - 1 / 256, counts.sum()) - 1
    # each e >= 1: its (GOP, class) group, its place among the group's
    # draws and its rank among the group's e >= 1
    at = np.flatnonzero(e)
    group = np.searchsorted(ends, at, side="right")
    place = at - np.r_[0, ends][group]
    rank = np.arange(at.size) - np.searchsorted(group, group)
    gop, cls = np.divmod(group, layer_count)
    fill = np.zeros(counts.shape, dtype=np.int64)
    for c in np.flatnonzero(counts.any(axis=0)):
        # layers c, c-1, ..., 1 take each GOP's e >= 1 in rank order, each
        # after the zeros before it (used counts draws applied), then the rest
        used = np.zeros(counts.shape[0], dtype=np.int64)
        mine = np.flatnonzero(cls == c)
        for j in range(int(rank[mine].max(initial=-1)) + 1):
            now = mine[rank[mine] == j]
            rows, step = gop[now], e[at[now]]
            down = fill[rows, c::-1]
            _water_fill(down, place[now] - used[rows], packets_per_layer)
            before = np.cumsum(packets_per_layer - down, axis=1)
            hit = step < before[:, -1]
            down[hit, (before[hit] <= step[hit, None]).sum(axis=1)] += 1
            fill[rows, c::-1] = down
            used[rows] = place[now] + 1
        _water_fill(fill[:, c::-1], counts[:, c] - used, packets_per_layer)
    return np.cumprod(fill == packets_per_layer, axis=1).sum(axis=1)


def _water_fill(down, units, packets_per_layer):
    """Adds units[k] count-rule fills to row k of down, layers listed downward."""
    missing = packets_per_layer - down
    down += np.minimum(np.maximum(units[:, None] - (missing.cumsum(axis=1) - missing), 0), missing)


def class_block(counts, packets_per_layer):
    """The RLC block of no payload bytes whose GOP k sends counts[k][c]
    packets of class c + 1, for a test that reads nothing but its classes.
    Every RLC packet carries coefficients, so they come from a throwaway
    generator, no generator a test or a run checks."""
    from nclayer.codec import SCHEME_RLC, encode_block

    counts = np.asarray(counts)
    cells = np.zeros(counts.shape + (packets_per_layer, 0), dtype=np.uint8)
    return encode_block(cells, counts, SCHEME_RLC, np.random.default_rng(0))


def sent_strategies(block):
    """The replica counts each GOP of a block went out under, its class
    counts as tuples."""
    return [tuple(row) for row in block.counts.tolist()]


def row_classes(block):
    """The class of each row of a block, read from its class counts as
    encode_block lays the rows out: GOP by GOP, classes shallow first."""
    n_gops, layer_count = block.counts.shape
    return np.repeat(np.tile(np.arange(1, layer_count + 1), n_gops), block.counts.ravel())


def gop_offsets(block):
    """Where each GOP's rows start in a block, then its row count: GOP k
    owns rows offsets[k] to offsets[k + 1]."""
    return np.concatenate([[0], np.cumsum(block.counts.sum(axis=1))])


def select_strategy(policy, pdr_estimate):
    """A threshold policy's strategy for an estimate, by walking its
    breakpoints in order; an estimate on a breakpoint takes the upper
    interval."""
    if not 0.0 <= pdr_estimate <= 1.0:
        raise ValueError(f"pdr estimate must lie in [0, 1], got {pdr_estimate}")
    index = 0
    for breakpoint in policy.breakpoints:
        if pdr_estimate < breakpoint:
            break
        index += 1
    return policy.strategies[index]


def plain_metrics(metrics):
    """Each field of a RunMetrics by name, its per-GOP arrays as lists: two
    runs' plain metrics are equal only where every value is, bit for bit."""
    return {
        name: value.tolist() if isinstance(value, np.ndarray) else value
        for name, value in asdict(metrics).items()
    }


def reference_run(config, table=None):
    """The chain simulation one GOP at a time, as run() first carried it.

    Each GOP goes through the sender's segment and then each re-encoding
    relay's, in hop order: probe the segment's links, select and encode,
    then send the packets across the segment link by link. A link draws once
    per GOP for the probes that reach it and once for the packets. In a
    verified run each encoder hands its own generator to encode_block for
    every GOP it encodes and relays decode; in an unverified RLC run no
    encoder draws from its own generator (class_block draws the packets'
    coefficients from a throwaway one) and each relay samples its depth
    from its own generator with reference_sample_depths, GOP by GOP. Its generators come from
    SeedSequence.spawn, where run() makes each child alone. The block pass
    of run() must return the same metrics and leave every generator in the
    same state; for that check the metrics come with the link generators,
    in hop order, and the generators the nodes draw from, in hop order: the
    sender's and every re-encoding relay's in a verified run, every
    re-encoding relay's in an unverified RLC run, and none otherwise.
    """
    from nclayer.codec import (
        SCHEME_REPEAT,
        SCHEME_RLC,
        covered_depth,
        decode_block,
        encode_block,
    )
    from nclayer.heuristic import builtin_policy
    from nclayer.media import make_synthetic_gop
    from nclayer.simulator import TABLE_BUILD_CHARGE, RunMetrics
    from nclayer.spt import build_table

    hops = config.hop_count
    n_relays = hops - 1
    children = np.random.SeedSequence(config.seed).spawn(hops + n_relays + 2)
    link_children = children[:hops]
    relay_children = children[hops : hops + n_relays]
    sender_child = children[hops + n_relays]
    grid_seed = int(children[hops + n_relays + 1].generate_state(1)[0])

    repeat = config.scheme == SCHEME_REPEAT
    width = config.payload_size if config.verify_payloads else 0
    L, P = config.layer_count, config.packets_per_layer
    nc = [i for i, m in enumerate(config.relay_modes) if m == "nc"]
    bounds = [0] + [i + 1 for i in nc] + [hops]
    segments = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    encoders = [-1] + nc
    sample = config.scheme == SCHEME_RLC and not config.verify_payloads

    # each encoder's generator, the sender's first
    node_rngs = {
        position: np.random.default_rng(child)
        for position, child in zip(encoders, [sender_child] + [relay_children[i] for i in nc])
    }

    def encode(cells, strategy, position):
        if sample:
            return class_block([strategy], P)
        rng = node_rngs[position] if config.verify_payloads else None
        return encode_block(cells[None], [strategy], config.scheme, rng)

    if table is None and (nc or (config.selection == "spt" and not repeat)):
        table = build_table(
            budget=config.budget, layer_count=L, packets_per_layer=P,
            granularity=config.granularity,
        )
    rngs = [np.random.default_rng(child) for child in link_children]
    pdrs = list(config.link_pdrs)
    policy = builtin_policy(config.heuristic_set)

    def draw(link, n):
        return rngs[link].random(n) < pdrs[link]

    # each probe once per link it is sent on
    aired = 0

    def probe(segment):
        nonlocal aired
        alive = config.probe_count
        for link in segment:
            if alive == 0:
                break
            aired += alive
            alive = int(np.count_nonzero(draw(link, alive)))
        return alive / config.probe_count

    schedule = {}
    for gop_index, link_index, new_pdr in config.pdr_schedule:
        schedule.setdefault(gop_index, []).append((link_index, new_pdr))

    sender_estimate = 1.0
    sender_strategy = None
    relay_estimates = {i: 1.0 for i in nc}
    sent_total = npr = gaps = errors = 0
    per_gop_decoded, per_gop_delay = [], []
    # the delays added GOP by GOP
    delay_sum = 0.0
    for gop_index in range(config.gop_count):
        grid = make_synthetic_gop(gop_index, L, P, width, grid_seed)
        current = None
        delay = 0.0
        for position, segment in zip(encoders, segments):
            for link_index, new_pdr in schedule.get(gop_index, ()):
                if link_index in segment:
                    pdrs[link_index] = new_pdr
            if not repeat and gop_index % config.update_period == 0:
                estimate = probe(segment)
                if position < 0:
                    delivered = round(estimate * config.probe_count)
                    sender_estimate = delivered / config.probe_count
                else:
                    relay_estimates[position] = estimate
            if position < 0:
                if repeat:
                    sender_strategy = (config.budget // L,) * L
                elif sender_strategy is None or gop_index % config.update_period == 0:
                    if config.selection == "spt":
                        sender_strategy = select_best(table, sender_estimate)
                    else:
                        sender_strategy = select_strategy(policy, sender_estimate)
                current = encode(grid, sender_strategy, position)
                sent_total += len(current)
            elif len(current):
                if sample:
                    # the relay re-encodes the zero-width grid
                    (depth,) = reference_sample_depths(current, node_rngs[position])
                    decoded = grid
                else:
                    (depth,), (decoded,) = decode_block(current)
                strategy = None
                if depth == L:
                    # a relay holding every layer picks as the sender does
                    strategy = select_best(table, relay_estimates[position])
                elif depth:
                    bin_index = nearest_bin_reference(relay_estimates[position])
                    strategy = best_restricted(table, bin_index, depth)
                if strategy is None:
                    current = current.select(np.arange(0))
                else:
                    current = encode(decoded, strategy, position)
            for hop in segment:
                delay += len(current) * config.transmit_delay
                if len(current):
                    current = current.select(draw(hop, len(current)))
                if hop < n_relays:
                    delay += config.forward_delay
                    if config.relay_modes[hop] == "nc":
                        delay += config.recode_delay
        npr += len(current)
        if config.scheme == SCHEME_RLC:
            score = decodable_layers(current.counts[0].tolist(), P)
        else:
            seen = np.zeros((L, P), dtype=bool)
            seen[row_classes(current) - 1, current.column] = True
            score = int(covered_depth(seen))
        if config.verify_payloads and len(current):
            (actual,), (decoded,) = decode_block(current)
            gaps += actual < score
            if actual and not np.array_equal(decoded[:actual], grid[:actual]):
                errors += 1
        per_gop_decoded.append(score)
        per_gop_delay.append(delay)
        delay_sum += delay

    build_charge = TABLE_BUILD_CHARGE if nc else 0.0
    default_label = "uncoded" if repeat else f"{config.selection}-{config.scheme}"
    metrics = RunMetrics(
        label=config.label or f"{default_label}-{hops}hop",
        hop_count=hops,
        link_pdrs=config.link_pdrs,
        npr=npr,
        sent_total=sent_total,
        measured_pdr=npr / sent_total if sent_total else 0.0,
        audl=float(np.mean(per_gop_decoded)) if per_gop_decoded else 0.0,
        total_delay=delay_sum + build_charge,
        per_gop_decoded=np.array(per_gop_decoded),
        per_gop_delay=np.array(per_gop_delay),
        seed=config.seed,
        prediction_gaps=gaps,
        payload_errors=errors,
        probe_packets=aired,
    )
    if config.verify_payloads:
        drawn = list(node_rngs.values())
    else:
        drawn = [node_rngs[i] for i in nc] if sample else []
    return metrics, rngs, drawn
