"""Arithmetic over GF(2^8) with reduction polynomial x^8 + x^4 + x^3 + x + 1.

Every product and every inverse is precomputed once at import so that bulk
codec kernels can run as plain table lookups.
"""

from __future__ import annotations

import numpy as np

REDUCING_POLY = 0x11B
GENERATOR = 0x03


def _mul_slow(a: int, b: int) -> int:
    """Shift-and-add product, used only to seed the tables."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if a & 0x100:
            a ^= REDUCING_POLY
        b >>= 1
    return acc


def _build_tables():
    exp = np.zeros(255, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int64)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _mul_slow(x, GENERATOR)
    if x != 1:
        raise AssertionError("generator does not have multiplicative order 255")

    idx = (log[:, None] + log[None, :]) % 255
    mul = exp[idx]
    mul[0, :] = 0
    mul[:, 0] = 0

    inv = np.zeros(256, dtype=np.uint8)
    nz = np.arange(1, 256)
    inv[nz] = exp[(255 - log[nz]) % 255]
    return exp, log, mul, inv


EXP_TABLE, LOG_TABLE, MUL_TABLE, INV_TABLE = _build_tables()
MUL_TABLE.flags.writeable = False
INV_TABLE.flags.writeable = False

