"""Independent reference implementations used by the test suite.

Nothing here imports from the package's arithmetic or decode logic; each
oracle recomputes its answer by a structurally different method so that
agreement is evidence rather than tautology.
"""

import math
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


def count_vectors(layer_count, max_entry):
    return product(range(max_entry + 1), repeat=layer_count)


def expected_layers_reference(strategies, pmf_rows, per_layer):
    """Mean decodable depth per strategy, one strategy at a time.

    This is the expected-depth dynamic program as first written: a forward
    occupancy pass and a backward zero-avoidance pass per strategy, each
    binomial outcome r skipped when its weight is zero and accumulated in
    ascending r. The batched kernel must reproduce it bit for bit, so the
    order of every floating-point operation here is the contract.
    """
    n_strategies, n_layers = strategies.shape
    n_states = n_layers * per_layer + 1
    out = np.zeros(n_strategies)
    for s in range(n_strategies):
        counts = [int(x) for x in strategies[s]]
        zero_occupancy = np.zeros(n_layers + 1)
        f = np.zeros(n_states)
        f[0] = 1.0
        for i in range(1, n_layers + 1):
            f = _forward_step(f, pmf_rows[counts[i - 1]][: counts[i - 1] + 1], per_layer)
            zero_occupancy[i] = f[0]
        value = n_layers * zero_occupancy[n_layers]
        bq = np.ones(n_states)
        for i in range(n_layers - 1, 0, -1):
            bq = _backward_step(bq, pmf_rows[counts[i]][: counts[i] + 1], per_layer)
            value += i * zero_occupancy[i] * bq[0]
        out[s] = value
    return out


def _forward_step(f, pmf, per_layer):
    n_states = f.size
    new = np.zeros(n_states)
    spill = 0.0
    for r in range(pmf.size):
        pr = pmf[r]
        if pr == 0.0:
            continue
        shift = per_layer - r
        if shift > 0:
            new[shift:] += pr * f[: n_states - shift]
        elif shift == 0:
            new += pr * f
        else:
            drop = -shift
            spill += pr * float(f[: drop + 1].sum())
            if drop + 1 < n_states:
                new[1 : n_states - drop] += pr * f[drop + 1 :]
    new[0] += spill
    return new


def _backward_step(bq, pmf, per_layer):
    n_states = bq.size
    new = np.zeros(n_states)
    for r in range(pmf.size):
        pr = pmf[r]
        if pr == 0.0:
            continue
        shift = per_layer - r
        if shift > 0:
            new[: n_states - shift] += pr * bq[shift:]
        elif shift == 0:
            new[1:] += pr * bq[1:]
        else:
            drop = -shift
            if drop + 1 < n_states:
                new[drop + 1 :] += pr * bq[1 : n_states - drop]
    return new


def pmf_rows_reference(max_count, p):
    """Binomial(n, p) pmf rows filled one cell at a time, zero-padded to a
    square array; the vectorised rows must equal it bit for bit."""
    rows = np.zeros((max_count + 1, max_count + 1))
    for n in range(max_count + 1):
        for r in range(n + 1):
            rows[n, r] = math.comb(n, r) * p**r * (1.0 - p) ** (n - r)
    return rows


def probe_walk_pdr(links, n_probes):
    """End-to-end probe estimate, one probe at a time.

    Each probe crosses the links in order until its first loss, drawing one
    scalar uniform from each link it reaches. A vectorised estimator must
    return the same fraction and leave every link's generator and draw
    counter exactly where this walk leaves them.
    """
    survived = 0
    for _ in range(n_probes):
        for link in links:
            link.draws += 1
            if not link._rng.random() < link.delivery_prob:
                break
        else:
            survived += 1
    return survived / n_probes
