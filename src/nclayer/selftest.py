"""Built-in diagnostic suite: what an installed copy of nclayer can break.

Every check recomputes its expectation from first principles (bitwise field
arithmetic, exact dyadic expected depths, the source bytes) rather than
trusting the module under test, so a silent table or kernel corruption
shows up as a named failure. The exhaustive oracles, which check the
expected-depth program against full outcome enumeration and the
payload-free run against its verified twin, live in the tests (tests/).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import SCHEME_RLC, SCHEME_XOR, decode_block, encode_block, encode_gop
from .gf256 import INV_TABLE, MUL_TABLE, REDUCING_POLY
from .media import make_synthetic_cells, make_synthetic_gop
from .spt import expected_decoded_layers

# (strategy, delivery, packets per layer, expected depth), each value the
# mean depth over every delivery outcome: at p = 0.5 each outcome weighs a
# power of two and at p = 1 one outcome weighs 1, so each value is exact in
# binary and the program must return it exactly
DP_VALUES = (
    # two class-1 packets and one class-2: E = 2*(1/8) + 1*(5/8) = 9/8
    ((2, 1, 0, 0), 0.5, 1, 1.125),
    ((3, 2, 1), 0.5, 1, 1.9375),
    ((4, 2), 0.5, 2, 0.859375),
    # every packet arrives: all 4 layers
    ((40, 8, 8, 8), 1.0, 8, 4.0),
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def check_mul_table() -> CheckResult:
    """Every cell of the 256x256 product table against shift-and-reduce,
    over all 65536 pairs at once: round k adds a * x^k where bit k of b is
    set, then doubles a modulo the reducing polynomial."""
    a = np.arange(256, dtype=np.uint16)[:, None]
    b = np.arange(256, dtype=np.uint16)
    want = np.zeros((256, 256), dtype=np.uint16)
    for _ in range(8):
        want ^= a * (b & 1)
        a = a << 1
        a ^= (a >> 8) * REDUCING_POLY
        b = b >> 1
    bad = np.argwhere(MUL_TABLE != want)
    if len(bad):
        x, y = bad[0].tolist()
        return CheckResult(
            "gf256-mul-table",
            False,
            f"table[{x},{y}] = {int(MUL_TABLE[x, y])}, expected {int(want[x, y])}",
        )
    return CheckResult("gf256-mul-table", True, "65536 products verified")


def check_inverses() -> CheckResult:
    """a * inv(a) == 1 for every non-zero a, using the product table."""
    for a in range(1, 256):
        inv = int(INV_TABLE[a])
        if int(MUL_TABLE[a, inv]) != 1:
            return CheckResult(
                "gf256-inverse-identity",
                False,
                f"{a} * {inv} = {int(MUL_TABLE[a, inv])}, expected 1",
            )
    return CheckResult("gf256-inverse-identity", True, "255 inverses verified")


def check_dp_values() -> CheckResult:
    """The expected-depth program at the exact DP_VALUES."""
    for strategy, p, per_layer, want in DP_VALUES:
        got = expected_decoded_layers(strategy, p, per_layer)
        if got != want:
            return CheckResult(
                "depth-dp-values",
                False,
                f"strategy {strategy}, p={p}, P={per_layer}: {got!r}, expected {want!r}",
            )
    return CheckResult("depth-dp-values", True, f"{len(DP_VALUES)} exact values")


def check_codec_roundtrip() -> CheckResult:
    grid = make_synthetic_gop(0, 3, 2, 16, seed=7)
    for scheme, seed in ((SCHEME_XOR, 0), (SCHEME_RLC, 1)):
        packets = encode_gop(grid, (2, 2, 2), scheme, seed=seed)
        (decoded,), (recovered,) = decode_block(packets)
        if decoded != 3:
            return CheckResult(
                "codec-roundtrip", False, f"{scheme}: decoded {decoded} of 3 layers"
            )
        if not np.array_equal(recovered, grid):
            return CheckResult(
                "codec-roundtrip", False, f"{scheme}: recovered payload differs"
            )
    return CheckResult("codec-roundtrip", True, "xor and rlc recover 3/3 layers")


def check_stacked_decode() -> CheckResult:
    """One decode_block call over a block of erased RLC GOPs, one of them
    empty and one rank-deficient, encoded from one generator, against each
    GOP's one-GOP decode, encoded one by one from a generator with the same
    seed, and against its source bytes."""
    rng = np.random.default_rng(11)
    grids = make_synthetic_cells(range(8), 3, 4, 16, seed=11)
    strategy = (6, 5, 5)
    one_by_one = np.random.default_rng(12)
    alone, rows = [], []
    for g, grid in enumerate(grids):
        kept = np.flatnonzero(rng.random(sum(strategy)) < 0.8)
        if g == 2:
            kept = kept[:0]
        if g == 5:
            # five class-1 packets, all copies of two: rank 2 of the 4 base unknowns
            kept = np.array([0, 0, 1, 1, 1])
        alone.append(encode_gop(grid, strategy, SCHEME_RLC, one_by_one).select(kept))
        rows.append(g * sum(strategy) + kept)
    block = encode_block(grids, [strategy] * len(grids), SCHEME_RLC, np.random.default_rng(12))
    picked = block.select(np.concatenate(rows))
    if not np.array_equal(picked.coeffs, np.concatenate([packets.coeffs for packets in alone])):
        return CheckResult(
            "stacked-decode", False, "block coefficients differ from the one-by-one draws"
        )
    depths, recovered = decode_block(picked)
    for g, (packets, grid) in enumerate(zip(alone, grids)):
        (alone_depth,), (alone_grid,) = decode_block(packets)
        if depths[g] != alone_depth or not np.array_equal(recovered[g], alone_grid):
            return CheckResult(
                "stacked-decode", False, f"GOP {g}: block decode differs from its one-GOP decode"
            )
        if not np.array_equal(recovered[g, : depths[g]], grid[: depths[g]]):
            return CheckResult("stacked-decode", False, f"GOP {g}: recovered bytes differ")
    if depths[2] != 0 or depths[5] != 0:
        return CheckResult(
            "stacked-decode", False,
            f"empty or rank-deficient GOP decoded: depths {depths.tolist()}",
        )
    return CheckResult(
        "stacked-decode", True, f"{len(grids)} GOPs in one call, depths {depths.tolist()}"
    )


def run_selftest() -> list[CheckResult]:
    """Runs every check."""
    return [
        check_mul_table(),
        check_inverses(),
        check_dp_values(),
        check_codec_roundtrip(),
        check_stacked_decode(),
    ]
