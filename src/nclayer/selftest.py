"""Built-in diagnostic suite.

Every check recomputes its expectation from first principles (bitwise field
arithmetic, outcome enumeration) rather than trusting the module under test,
so a silent table or kernel corruption shows up as a named failure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .codec import SCHEME_RLC, SCHEME_XOR, decode_block, encode_block, encode_gop
from .gf256 import INV_TABLE, MUL_TABLE, _mul_slow
from .media import make_synthetic_cells, make_synthetic_gop
from .simulator import ChainConfig, run
from .spt import brute_force_decoded_layers, build_table, enumerate_strategies, expected_decoded_layers

# domain of the exact-vs-enumeration equivalence sweep
ORACLE_MAX_BUDGET = 8
ORACLE_MAX_LAYERS = 3
ORACLE_PROBS = (0.25, 0.5, 0.75)
ORACLE_TOLERANCE = 1e-12
# compositions of b into l non-negative parts, summed over b<=8, l<=3
ORACLE_SUITE_SIZE = 216


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def check_mul_table() -> CheckResult:
    """Every cell of the 256x256 product table against shift-and-reduce."""
    for a in range(256):
        for b in range(256):
            want = _mul_slow(a, b)
            if int(MUL_TABLE[a, b]) != want:
                return CheckResult(
                    "gf256-mul-table",
                    False,
                    f"table[{a},{b}] = {int(MUL_TABLE[a, b])}, expected {want}",
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


def _oracle_domain():
    for layers in range(1, ORACLE_MAX_LAYERS + 1):
        for budget in range(1, ORACLE_MAX_BUDGET + 1):
            for strategy in enumerate_strategies(budget, layers):
                yield strategy


def check_strategy_enumeration() -> CheckResult:
    suite = sum(1 for _ in _oracle_domain())
    standard = len(enumerate_strategies(64, 4, 4))
    passed = suite == ORACLE_SUITE_SIZE and standard == 969
    return CheckResult(
        "strategy-enumeration",
        passed,
        f"oracle suite {suite} (expected {ORACLE_SUITE_SIZE}), "
        f"standard table {standard} (expected 969)",
    )


def check_oracle_equivalence() -> CheckResult:
    """Exact DP against full delivery-outcome enumeration, P = 1."""
    worst = 0.0
    cases = 0
    for strategy in _oracle_domain():
        for p in ORACLE_PROBS:
            exact = expected_decoded_layers(strategy, p, 1)
            brute = brute_force_decoded_layers(strategy, p, 1)
            diff = abs(exact - brute)
            cases += 1
            if diff > ORACLE_TOLERANCE:
                return CheckResult(
                    "oracle-equivalence",
                    False,
                    f"strategy {strategy}, p={p}: exact {exact!r} vs brute {brute!r}",
                )
            worst = max(worst, diff)
    return CheckResult(
        "oracle-equivalence", True, f"{cases} cases, worst diff {worst:.2e}"
    )


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


def check_payload_free_twin() -> CheckResult:
    """A run without verify_payloads carries zero-width payloads and
    coefficients; where no relay samples its depths (here the relay
    forwards), its scores must equal those of the same run carrying and
    checking real bytes and coefficients."""
    config = ChainConfig(
        link_pdrs=(0.6, 0.5),
        relay_modes=("forward",),
        layer_count=3,
        packets_per_layer=4,
        payload_size=16,
        budget=24,
        granularity=2,
        gop_count=40,
        seed=3,
    )
    table = build_table(
        budget=config.budget,
        layer_count=config.layer_count,
        packets_per_layer=config.packets_per_layer,
        granularity=config.granularity,
    )
    bare = run(config, table=table)
    verified = run(replace(config, verify_payloads=True), table=table)
    fields = ("npr", "sent_total", "per_gop_decoded", "total_delay")
    differing = [f for f in fields if getattr(bare, f) != getattr(verified, f)]
    if differing:
        return CheckResult(
            "payload-free-twin", False, f"unverified run differs in {', '.join(differing)}"
        )
    if verified.payload_errors:
        return CheckResult(
            "payload-free-twin", False, f"{verified.payload_errors} GOPs decoded wrong bytes"
        )
    return CheckResult(
        "payload-free-twin",
        True,
        f"{config.gop_count} GOPs over a forwarding relay, audl {bare.audl:.3f} "
        f"with and without payload bytes",
    )


def run_selftest() -> list[CheckResult]:
    """Runs every check."""
    return [
        check_mul_table(),
        check_inverses(),
        check_strategy_enumeration(),
        check_oracle_equivalence(),
        check_codec_roundtrip(),
        check_stacked_decode(),
        check_payload_free_twin(),
    ]
