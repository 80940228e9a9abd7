"""Independent reference implementations used by the test suite.

Nothing here imports from the package's arithmetic or decode logic; each
oracle recomputes its answer by a structurally different method so that
agreement is evidence rather than tautology.
"""

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
