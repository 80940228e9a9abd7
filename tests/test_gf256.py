import numpy as np
import pytest

from nclayer.gf256 import (
    EXP_TABLE,
    INV_TABLE,
    LOG_TABLE,
    MUL_TABLE,
)
from oracles import reference_gf_mul, reference_gf_tables


def test_mul_table_matches_log_antilog_oracle():
    exp, log = reference_gf_tables()
    for a in range(256):
        row = MUL_TABLE[a]
        for b in range(256):
            assert int(row[b]) == reference_gf_mul(a, b, exp, log), (a, b)


def test_known_product_with_reduction():
    # 0x80 * x wraps past degree 8 and must fold through the polynomial
    assert MUL_TABLE[0x80, 0x02] == 0x1B


def test_mul_identity_and_zero():
    field = np.arange(256)
    assert np.array_equal(MUL_TABLE[:, 1], field)
    assert np.array_equal(MUL_TABLE[1], field)
    assert not MUL_TABLE[0].any() and not MUL_TABLE[:, 0].any()


def test_every_inverse_multiplies_to_one():
    nonzero = np.arange(1, 256)
    assert (MUL_TABLE[nonzero, INV_TABLE[nonzero]] == 1).all()


def test_exp_log_are_mutually_inverse():
    for a in range(1, 256):
        assert int(EXP_TABLE[LOG_TABLE[a] % 255]) == a
    # 255 distinct powers means the generator really has full order
    assert len(set(int(v) for v in EXP_TABLE)) == 255


def test_zero_has_no_inverse():
    # no product with 0 is 1, and INV_TABLE holds 0 there; every other
    # element has exactly one inverse
    assert not (MUL_TABLE[0] == 1).any() and INV_TABLE[0] == 0
    assert ((MUL_TABLE[1:] == 1).sum(axis=1) == 1).all()


def test_tables_are_write_protected():
    with pytest.raises(ValueError):
        MUL_TABLE[1, 1] = 0
    with pytest.raises(ValueError):
        INV_TABLE[1] = 0


def test_mul_table_symmetry():
    assert np.array_equal(MUL_TABLE, MUL_TABLE.T)
