import numpy as np
import pytest

from nclayer import codec, kernels, spt
from nclayer.codec import encode_gop
from nclayer.gf256 import MUL_TABLE
from nclayer.kernels import expected_layers_batch, gf_matmul, gf_rref
from nclayer.media import make_synthetic_gop
from nclayer.simulator import ChainConfig, run
from nclayer.spt import PDR_BINS, _pmf_rows, enumerate_strategies
from oracles import (
    expected_layers_reference,
    pmf_rows_reference,
    reference_gf_mul,
    reference_gf_tables,
    rref_reference,
)


def _scalar_matmul(coeffs, data):
    exp, log = reference_gf_tables()
    n, k = coeffs.shape
    s = data.shape[1]
    out = np.zeros((n, s), dtype=np.uint8)
    for i in range(n):
        for t in range(s):
            acc = 0
            for j in range(k):
                acc ^= reference_gf_mul(int(coeffs[i, j]), int(data[j, t]), exp, log)
            out[i, t] = acc
    return out


def test_matmul_matches_scalar_reference():
    rng = np.random.default_rng(1)
    # n * s a multiple of 8 or not (the numpy kernel XORs 8 bytes at a time
    # when it is), s itself not a multiple of 8, and no rows at all
    for n, k, s in ((5, 4, 7), (8, 3, 16), (4, 5, 6), (3, 2, 3), (0, 3, 8)):
        coeffs = rng.integers(0, 256, (n, k), dtype=np.uint8)
        data = rng.integers(0, 256, (k, s), dtype=np.uint8)
        want = _scalar_matmul(coeffs, data)
        assert np.array_equal(gf_matmul(coeffs, data), want), (n, k, s)


def test_matmul_matches_row_lookup_reduction():
    # at a codec-sized shape, against one MUL_TABLE row lookup per product
    # XOR-reduced over k, rather than the flat-index lookup the kernel uses
    rng = np.random.default_rng(2)
    coeffs = rng.integers(0, 256, (40, 32), dtype=np.uint8)
    data = rng.integers(0, 256, (32, 64), dtype=np.uint8)
    want = np.bitwise_xor.reduce(MUL_TABLE[coeffs[:, :, None], data[None, :, :]], axis=1)
    assert np.array_equal(gf_matmul(coeffs, data), want)


def test_matmul_empty_inner_dimension():
    coeffs = np.zeros((3, 0), dtype=np.uint8)
    data = np.zeros((0, 5), dtype=np.uint8)
    assert np.array_equal(gf_matmul(coeffs, data), np.zeros((3, 5), dtype=np.uint8))


def test_matmul_zero_width_payload():
    # an unverified run makes no rows and encode_block skips the multiply
    # when the payload is zero bytes wide, but a zero-width product is still
    # well formed
    rng = np.random.default_rng(9)
    coeffs = rng.integers(0, 256, (5, 4), dtype=np.uint8)
    data = rng.integers(0, 256, (4, 6), dtype=np.uint8)
    out = gf_matmul(coeffs, data[:, :0])
    assert out.shape == (5, 0) and out.dtype == np.uint8


def test_rref_form_is_unique_under_row_permutation():
    # the reduced row echelon form of a consistent system is unique, so any
    # row order of the same (sometimes rank-deficient) system must reduce to
    # the same pivots and rows, with every pivot column a unit vector
    rng = np.random.default_rng(3)
    for trial in range(10):
        n, u, extra = (int(rng.integers(lo, hi)) for lo, hi in ((2, 12), (2, 10), (1, 8)))
        coeffs = rng.integers(0, 256, (n, u), dtype=np.uint8)
        coeffs[:, rng.random(u) < 0.2] = 0
        unknowns = rng.integers(0, 256, (u, extra), dtype=np.uint8)
        aug = np.hstack([coeffs, gf_matmul(coeffs, unknowns)])
        a, b = aug.copy(), aug[rng.permutation(n)]
        owner = gf_rref(a, u)
        assert np.array_equal(owner, gf_rref(b, u)), trial
        assert np.array_equal(a, b), trial
        rank = int(np.count_nonzero(owner >= 0))
        assert np.array_equal(np.sort(owner[owner >= 0]), np.arange(rank)), trial
        for col in np.flatnonzero(owner >= 0):
            assert np.array_equal(np.flatnonzero(a[:, col]), [owner[col]]), trial
            assert a[owner[col], col] == 1, trial
        assert not a[rank:].any(), trial


def _rref_cases():
    rng = np.random.default_rng(7)
    # relay-shaped: a standard GOP's RLC packets under a table strategy,
    # thinned by random erasures, as a re-encoding relay hands them to the decoder
    strategies = enumerate_strategies(64, 4, 4)
    for gop in range(40):
        strategy = strategies[int(rng.integers(len(strategies)))]
        packets = encode_gop(make_synthetic_gop(gop, 4, 8, 64), strategy, "rlc", seed=gop)
        kept = packets.select(rng.random(len(packets)) < rng.uniform(0.3, 1.0))
        yield f"relay {gop}", np.hstack([kept.coeffs, kept.payload]), 32
    for trial in range(60):
        n, u, extra = int(rng.integers(1, 20)), int(rng.integers(1, 16)), int(rng.integers(0, 10))
        aug = rng.integers(0, 256, (n, u + extra), dtype=np.uint8)
        kind = trial % 4
        if kind == 1:
            aug[rng.random(aug.shape) < 0.5] = 0
        elif kind == 2:
            # rank-deficient: every row mixes a few base rows
            base = rng.integers(0, 256, (max(1, min(n, u) // 2), u + extra), dtype=np.uint8)
            mix = rng.integers(0, 256, (n, base.shape[0]), dtype=np.uint8)
            aug = gf_matmul(mix, base)
        elif kind == 3 and n > 1:
            # inconsistent: a coefficient row repeated with a different payload
            aug[-1, :u] = aug[0, :u]
        yield f"random {trial} kind {kind}", aug, u
    yield "zero rows", np.zeros((0, 9), dtype=np.uint8), 4
    yield "zero unknowns", rng.integers(0, 256, (5, 6), dtype=np.uint8), 0
    yield "more unknowns than rows", rng.integers(0, 256, (3, 12), dtype=np.uint8), 8
    zero_cols = rng.integers(0, 256, (8, 14), dtype=np.uint8)
    zero_cols[:, [0, 3, 4]] = 0
    yield "all-zero columns", zero_cols, 6
    swap = rng.integers(1, 256, (6, 10), dtype=np.uint8)
    swap[0, 0] = 0
    swap[1, 1] = 0
    swap[[0, 1, 2], 2] = 0
    yield "zero in the rank row", swap, 5


def test_rref_matches_reference_byte_for_byte():
    for name, aug, n_unknowns in _rref_cases():
        want = aug.copy()
        want_owner = rref_reference(want, n_unknowns)
        got = aug.copy()
        owner = gf_rref(got, n_unknowns)
        assert owner.dtype == np.int32, name
        assert np.array_equal(owner, want_owner), name
        assert np.array_equal(got, want), name


def _nested_system(rng, counts, per_layer, payload, zero_columns=()):
    """Rows of packets in class order, counts[c] of class c + 1, each with
    random coefficients over the unknowns of layers 1..c+1 and none past
    them (the columns in zero_columns zero in every row), then payload
    bytes."""
    n_unknowns = len(counts) * per_layer
    depth = np.repeat(np.arange(1, len(counts) + 1), counts)
    aug = rng.integers(0, 256, (depth.size, n_unknowns + payload), dtype=np.uint8)
    aug[:, :n_unknowns][np.arange(n_unknowns) >= depth[:, None] * per_layer] = 0
    aug[:, list(zero_columns)] = 0
    return aug


def _nested_stacks():
    """Stacks of nested class systems whose pivot rows reach unevenly, so
    the clearing window ends at different columns from step to step."""
    rng = np.random.default_rng(13)
    # fewer than P class-1 rows, so layer-1 pivots come from deeper classes,
    # beside systems with a full layer of each class
    yield "starved shallow classes", [
        _nested_system(rng, counts, 4, 6)
        for counts in ((1, 5, 3, 6), (4, 4, 4, 4), (0, 2, 8, 6), (6, 4, 4, 2), (3, 0, 0, 9))
    ], 16
    # ranks that diverge partway through a layer: one system runs out of
    # rows in layer 2, one has no pivot in column 5 and resumes after it
    yield "ranks diverge mid-layer", [
        _nested_system(rng, (4, 4, 4), 4, 5),
        _nested_system(rng, (4, 2, 0), 4, 5),
        _nested_system(rng, (4, 4, 4), 4, 5, zero_columns=(5,)),
        _nested_system(rng, (5, 5, 5), 4, 5),
    ], 12
    # payload columns behind a narrow pivot reach: class-1 rows only reach
    # column P, while every payload column must still be cleared
    yield "payload behind a narrow reach", [
        _nested_system(rng, counts, 4, 24) for counts in ((6, 0, 0), (3, 0, 0), (2, 3, 0))
    ], 12
    yield "class-1 rows only", [_nested_system(rng, (n, 0, 0), 4, 16) for n in (4, 7, 2)], 12


def _stacked_cases():
    """Zero-padded stacks built from _rref_cases: the relay-shaped systems in
    stacks of differing row counts, and every other case stacked with
    systems of its width that have no rows, a prefix of its rows (rank
    equal to the row count when they are independent), more rows than rank,
    and a repeated coefficient row carrying another payload; then the
    nested class stacks."""
    rng = np.random.default_rng(10)
    relay, other = [], []
    for case in _rref_cases():
        (relay if case[0].startswith("relay") else other).append(case)
    for start in range(0, len(relay), 7):
        chunk = relay[start : start + 7]
        yield f"relay stack {start}", [aug for _, aug, _ in chunk], 32
    for name, aug, n_unknowns in other:
        n, width = aug.shape
        mix = rng.integers(0, 256, (n + 2, n), dtype=np.uint8)
        systems = [aug, aug[:0], aug[: max(1, n // 2)], gf_matmul(mix, aug)]
        if n and width > n_unknowns:
            repeat = aug[:1].copy()
            repeat[0, n_unknowns:] ^= rng.integers(1, 256, width - n_unknowns, dtype=np.uint8)
            systems.append(np.vstack([aug, repeat]))
        order = rng.permutation(len(systems))
        yield f"{name} stack", [systems[i] for i in order], n_unknowns
    yield from _nested_stacks()


def test_stacked_rref_reduces_each_system_as_alone():
    # each stack is reduced twice: as a contiguous array, and as a column
    # slice of a wider array, which must be changed in place with the
    # columns around it untouched
    for name, systems, n_unknowns in _stacked_cases():
        rows = max(len(system) for system in systems)
        width = systems[0].shape[1]
        wide = np.full((len(systems), rows, width + 5), 7, dtype=np.uint8)
        wide[:, :, 2 : 2 + width] = 0
        stack = wide[:, :, 2 : 2 + width]
        for padded, system in zip(stack, systems):
            padded[: len(system)] = system
        dense = stack.copy()
        owner = gf_rref(dense, n_unknowns)
        assert owner.dtype == np.int32, name
        assert owner.shape == (len(systems), n_unknowns), name
        assert np.array_equal(gf_rref(stack, n_unknowns), owner), name
        assert np.array_equal(stack, dense), name
        assert (wide[:, :, :2] == 7).all() and (wide[:, :, 2 + width :] == 7).all(), name
        for g, system in enumerate(systems):
            want = system.copy()
            want_owner = rref_reference(want, n_unknowns)
            assert np.array_equal(owner[g], want_owner), (name, g)
            assert np.array_equal(dense[g, : len(system)], want), (name, g)
            assert not dense[g, len(system) :].any(), (name, g)


def test_rref_of_stacks_captured_from_run(default_table, monkeypatch):
    # the stacks a verified 3-hop re-encoding chain at 0.7 hands the kernel
    # (both relays and the receiver decode), reduced system by system as the
    # reference does; unverified, the relays sample their depths and
    # nothing is eliminated
    captured = []

    def capturing(aug, n_unknowns):
        before = aug.copy()
        owner = gf_rref(aug, n_unknowns)
        captured.append((before, aug.copy(), owner, n_unknowns))
        return owner

    monkeypatch.setattr(codec, "gf_rref", capturing)
    for verify in (False, True):
        config = ChainConfig(
            link_pdrs=(0.7, 0.7, 0.7), relay_modes=("nc", "nc"), probe_count=100,
            gop_count=20, seed=5, verify_payloads=verify,
        )
        run(config, table=default_table)
        assert verify or not captured
    widths = [before.shape[2] for before, *_ in captured]
    assert widths == [96, 96, 96], widths
    for k, (before, after, owner, n_unknowns) in enumerate(captured):
        for g in range(before.shape[0]):
            want = before[g].copy()
            assert np.array_equal(owner[g], rref_reference(want, n_unknowns)), (k, g)
            assert np.array_equal(after[g], want), (k, g)


def test_rref_of_coefficients_alone_matches_full_rows():
    # pivots and row operations are chosen from the coefficient columns only,
    # so eliminating a relay's coefficients without their payload gives the
    # same owners and the same coefficient block: a run that carries no
    # payload bytes decodes exactly as deep as one that does
    relay_cases = [case for case in _rref_cases() if case[0].startswith("relay")]
    assert len(relay_cases) == 40
    for name, aug, n_unknowns in relay_cases:
        full = aug.copy()
        owner = gf_rref(full, n_unknowns)
        coeffs = aug[:, :n_unknowns].copy()
        assert np.array_equal(gf_rref(coeffs, n_unknowns), owner), name
        assert np.array_equal(coeffs, full[:, :n_unknowns]), name


def test_rref_recovers_known_solution():
    rng = np.random.default_rng(4)
    unknowns = rng.integers(0, 256, (6, 3), dtype=np.uint8)
    coeffs = np.eye(6, dtype=np.uint8)
    # random invertible-by-construction system: identity plus row mixing
    for _ in range(30):
        i, j = rng.integers(0, 6, 2)
        if i == j:
            continue
        factor = int(rng.integers(1, 256))
        coeffs[i] ^= gf_matmul(
            np.array([[factor]], dtype=np.uint8), coeffs[j][None, :]
        )[0]
    rhs = gf_matmul(coeffs, unknowns)
    aug = np.concatenate([coeffs, rhs], axis=1).astype(np.uint8)
    owner = gf_rref(aug, 6)
    assert (owner >= 0).all()
    solved = np.zeros_like(unknowns)
    for col in range(6):
        solved[col] = aug[owner[col], 6:]
    assert np.array_equal(solved, unknowns)


def test_expected_layers_backends_agree_at_table_scale():
    # class counts up to the full budget stress the deficit walk's slice
    # clamping, which only matters when a count exceeds the state space. A
    # build hands the kernel all 20 bins in one call, so that call must match
    # the per-strategy reference bit for bit in every bin, and no table
    # argmax can move with the kernel
    strategies = np.asarray(enumerate_strategies(64, 4, 4), dtype=np.int64)
    stack = np.stack([_pmf_rows(64, float(p)) for p in PDR_BINS])
    got = expected_layers_batch(strategies, stack, 8)
    ref = expected_layers_reference(strategies, stack, 8)
    for b, p in enumerate(PDR_BINS):
        assert np.array_equal(got[:, b], ref[:, b]), p


def test_expected_layers_numpy_matches_reference_on_random_shapes():
    # counts up to three times the L*P+1 deficit states cover every clamped
    # slice; p = 0 and p = 1 give rows whose weights are mostly exact zeros
    rng = np.random.default_rng(6)
    for trial in range(60):
        layers = int(rng.integers(1, 6))
        per_layer = int(rng.integers(1, 5))
        top = 3 * (layers * per_layer + 1)
        strategies = rng.integers(0, top + 1, (int(rng.integers(1, 12)), layers))
        p = (0.0, 1.0, float(rng.random()))[trial % 3]
        rows = _pmf_rows(int(strategies.max()), p)
        ref = expected_layers_reference(strategies, rows, per_layer)
        got = expected_layers_batch(strategies, rows, per_layer)
        assert np.array_equal(got, ref), (trial, strategies.tolist(), p, per_layer)


def _shared_prefix_sets():
    """Strategy sets whose rows share many count prefixes and suffixes, in
    shuffled order with repeated rows, with counts above the L*P+1 deficit
    states, each with its per-layer count. The last two have 145 and 141
    states, so a spill sums runs past 128 states, where numpy splits its
    sum in two."""
    rng = np.random.default_rng(11)
    shapes = ((24, 3, 2, 2), (20, 5, 4, 1), (240, 3, 16, 48), (280, 2, 20, 70))
    for budget, layers, gran, per_layer in shapes:
        rows = np.asarray(enumerate_strategies(budget, layers, gran), dtype=np.int64)
        rows = np.vstack([rows, rows[rng.integers(len(rows), size=len(rows) // 3)]])
        yield f"B={budget} L={layers} g={gran}", rows[rng.permutation(len(rows))], per_layer
    single = np.arange(31, dtype=np.int64)[:, None]
    yield "L=1", np.vstack([single, single[::3]])[rng.permutation(42)], 4


def test_expected_layers_shared_prefixes_match_reference_in_any_order():
    # the kernel runs each pass once per distinct count prefix or suffix, so
    # sets that share most of them, in any row order and with duplicates,
    # must still match the per-strategy walk bit for bit, and permuting the
    # rows must permute the values exactly, in a stack of p = 0, 1 and 0.37
    rng = np.random.default_rng(12)
    for name, strategies, per_layer in _shared_prefix_sets():
        stack = np.stack([_pmf_rows(int(strategies.max()), p) for p in (0.0, 1.0, 0.37)])
        got = expected_layers_batch(strategies, stack, per_layer)
        ref = expected_layers_reference(strategies, stack, per_layer)
        assert np.array_equal(got, ref), name
        perm = rng.permutation(len(strategies))
        permuted = expected_layers_batch(strategies[perm], stack, per_layer)
        assert np.array_equal(permuted, got[perm]), name


def test_prefix_sums_add_in_numpys_order():
    # a spill into state zero must equal the strategy-at-a-time walk's numpy
    # sum of the first n states, a contiguous run, whose order depends on n:
    # under 8 in order, up to 128 in eight accumulators, past that split in
    # two. A numpy that sums in a new order fails here by name. The
    # reference needs the contiguous copy: numpy adds along a strided axis,
    # such as that of the np.moveaxis view, one value after another. The
    # planes above each top are zero, and the kernel hands over only the
    # planes up to it, with fewer rows as outcomes grow
    rng = np.random.default_rng(14)
    n_states, rows, bins = 300, 6, 3
    for trial, top in enumerate((299, 3, 60, 130, 181, 257)):
        shape = (n_states, rows, bins)
        f = rng.random(shape) * 10.0 ** rng.uniform(-300, 0, shape)
        f[top + 1 :] = 0.0
        runs = np.ascontiguousarray(np.moveaxis(f, 0, -1))
        ref = [runs[..., :n].sum(-1) for n in range(1, n_states + 1)]
        n_max = n_states if trial < 3 else int(rng.integers(1, n_states))
        ks = np.sort(rng.integers(1, rows + 1, n_states))[::-1] if trial % 2 else [rows] * n_states
        for planes in (f, f[: top + 1]):
            sums = kernels._prefix_sums(planes, n_max)
            next(sums)
            for n, k in enumerate(ks, 1):
                want = ref[min(n, n_max) - 1][:k]
                assert np.array_equal(sums.send(k), want), (trial, top, n, k)


def _stacked_matches_per_bin(expected_layers, strategies, stack, per_layer):
    """The (strategies, bins) values of a stack of bins, checked column by
    column against one 2-D call per bin, bit for bit."""
    got = expected_layers(strategies, stack, per_layer)
    assert got.shape == (len(strategies), len(stack))
    for b, rows in enumerate(stack):
        single = expected_layers(strategies, rows, per_layer)
        assert single.shape == (len(strategies),)
        if not np.array_equal(got[:, b], single):
            return False
    return True


def _bin_stacks():
    """Stacks of bins, each with its strategies and per-layer count: p = 0
    and p = 1 planes, whose weights are mostly exact zeros, ride beside
    random ones, counts run past the L*P+1 deficit states, and L=1 has no
    backward pass."""
    rng = np.random.default_rng(13)
    for name, strategies, per_layer in _shared_prefix_sets():
        top = int(strategies.max())
        stack = np.stack([_pmf_rows(top, p) for p in (0.0, 0.37, 1.0, 0.81)])
        yield name, strategies, stack, per_layer
    for trial in range(60):
        layers = 1 if trial % 10 == 0 else int(rng.integers(1, 6))
        per_layer = int(rng.integers(1, 5))
        top = 3 * (layers * per_layer + 1)
        strategies = rng.integers(0, top + 1, (int(rng.integers(1, 12)), layers))
        kinds = rng.integers(0, 3, int(rng.integers(1, 6)))
        ps = [(0.0, 1.0, float(rng.random()))[kind] for kind in kinds]
        stack = np.stack([_pmf_rows(int(strategies.max()), p) for p in ps])
        yield (trial, strategies.tolist(), ps, per_layer), strategies, stack, per_layer


def test_expected_layers_stack_of_bins_matches_per_bin_calls():
    # a stack of bins steps every bin's plane with the same operations as a
    # call on that bin alone, and skips the same unreachable states, so each
    # column equals the 2-D call bit for bit
    for name, strategies, stack, per_layer in _bin_stacks():
        assert _stacked_matches_per_bin(expected_layers_batch, strategies, stack, per_layer), name


def test_expected_layers_reference_stack_matches_per_bin_calls():
    # the reference skips an outcome only where its weight is zero in every
    # bin of the stack; in the others it adds an exact +0.0, so stacking the
    # bins the kernel is checked against changes no bin's values
    for name, strategies, stack, per_layer in _bin_stacks():
        assert _stacked_matches_per_bin(
            expected_layers_reference, strategies, stack, per_layer
        ), name


def _recording(name, step, steps):
    """``step`` that appends (pass, rows, bins, states out) to ``steps``."""

    def wrapped(f, *args):
        out = step(f, *args)
        # each pass's state is (states, rows, bins)
        steps.append((name, f.shape[1], f.shape[2], out.shape[0]))
        return out

    return wrapped


def test_expected_layers_values_do_not_depend_on_the_step_budget(monkeypatch):
    # at a budget of 1 byte every step runs one bin at a time, and past any
    # table's state no step splits; either way each element sees the same
    # operations, so the values equal those at the default budget bit for bit
    stack = np.stack([_pmf_rows(64, float(p)) for p in PDR_BINS])
    cases = [("standard", np.asarray(enumerate_strategies(64, 4, 4)), stack, 8)]
    for name, strategies, per_layer in _shared_prefix_sets():
        top = int(strategies.max())
        stack = np.stack([_pmf_rows(top, p) for p in (0.0, 0.37, 1.0, 0.81)])
        cases.append((name, strategies, stack, per_layer))
    for name, strategies, stack, per_layer in cases:
        want = expected_layers_batch(strategies, stack, per_layer)
        for budget, bins in ((1, 1), (1 << 40, len(stack))):
            steps = []
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "TABLE_STEP_BYTES", budget)
                for step in ("_forward_step", "_backward_step"):
                    patch.setattr(kernels, step, _recording(step, getattr(kernels, step), steps))
                got = expected_layers_batch(strategies, stack, per_layer)
            assert np.array_equal(got, want), (name, budget)
            assert {b for _, _, b, _ in steps} == {bins}, (name, budget)


def test_expected_layers_runs_once_per_shared_prefix_and_suffix(monkeypatch):
    # a standard build makes one kernel call over its 20 bins and finds the
    # count steps once: 4 forward and 3 backward. The forward pass steps over
    # the 17 distinct first counts and the 153 distinct first two once for
    # every bin; the 969-row steps hold more than TABLE_STEP_BYTES of state
    # over 20 bins, so each runs once per chunk of 5 bins, depth first, with
    # the backward pass's 969-row step. The backward pass steps over the 17
    # and 153 distinct last counts, computing only the 17 and 9 states the
    # next step reads; each pass's last step returns state zero alone
    steps, calls, extends = [], [], []

    def counted(extend):
        def wrapped(*args):
            extends.append(len(args[0]))
            return extend(*args)

        return wrapped

    def kernel(strategies, pmf_rows, per_layer):
        calls.append(pmf_rows.shape[0])
        return expected_layers_batch(strategies, pmf_rows, per_layer)

    for name, step in (("forward", "_forward_step"), ("backward", "_backward_step")):
        monkeypatch.setattr(kernels, step, _recording(name, getattr(kernels, step), steps))
    monkeypatch.setattr(kernels, "_extend", counted(kernels._extend))
    monkeypatch.setattr(spt, "expected_layers_batch", kernel)
    spt.build_table(64, 4, 8, 4)
    assert calls == [len(PDR_BINS)]
    assert len(extends) == 7
    # the largest split step starts from or ends with 25 reachable states
    chunk = kernels.TABLE_STEP_BYTES // (25 * 969 * 8)
    assert 153 * 17 * 8 * len(PDR_BINS) <= kernels.TABLE_STEP_BYTES
    assert chunk == 5
    expected = [
        ("forward", 17, 20, 9),
        ("forward", 153, 20, 17),
        ("backward", 17, 20, 17),
        ("backward", 153, 20, 9),
    ]
    for _ in range(0, len(PDR_BINS), chunk):
        expected += [
            ("forward", 969, chunk, 25),
            ("forward", 969, chunk, 1),
            ("backward", 969, chunk, 1),
        ]
    assert steps == expected


def test_pmf_rows_match_cell_by_cell_reference():
    # every bin of the standard table, the degenerate p = 0 and p = 1, and
    # other sizes, so no DP weight can move with the vectorised fill
    for p in (*(float(b) for b in PDR_BINS), 0.0, 1.0):
        assert np.array_equal(_pmf_rows(64, p), pmf_rows_reference(64, p)), p
    rng = np.random.default_rng(8)
    for trial in range(20):
        max_count, p = int(rng.integers(0, 90)), float(rng.random())
        assert np.array_equal(_pmf_rows(max_count, p), pmf_rows_reference(max_count, p)), (
            max_count,
            p,
        )
