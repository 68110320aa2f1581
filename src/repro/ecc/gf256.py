# reprolint: disable-file=REPRO002 -- 8/256 here are field parameters, not geometry
"""GF(2^8) arithmetic — the field under the 8-bit symbol codes.

The paper's striped baseline is "a strong 8-bit symbol based code
(similar to ChipKill)"; its natural construction is a Reed-Solomon code
over GF(256).  This module implements the field from scratch (AES
polynomial x^8 + x^4 + x^3 + x + 1 = 0x11B) with log/antilog tables for
fast multiplication and division.
"""

from __future__ import annotations

from typing import List

#: Irreducible polynomial for GF(2^8).
GF256_POLY = 0x11B
#: A generator (primitive element) of the multiplicative group.
GENERATOR = 0x03

_EXP: List[int] = [0] * 512
_LOG: List[int] = [0] * 256


def _build_tables() -> None:
    value = 1
    for power in range(255):
        _EXP[power] = value
        _LOG[value] = power
        # value *= GENERATOR in GF(256), by shift-and-reduce.
        value ^= value << 1  # multiply by 0x03 = x + 1
        if value & 0x100:
            value ^= GF256_POLY
    for power in range(255, 512):
        _EXP[power] = _EXP[power - 255]


_build_tables()


def gf_add(a: int, b: int) -> int:
    """Addition (= subtraction) is XOR in characteristic 2."""
    return a ^ b


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return _EXP[(_LOG[a] - _LOG[b]) % 255]


def gf_pow(a: int, n: int) -> int:
    if a == 0:
        return 0 if n else 1
    return _EXP[(_LOG[a] * n) % 255]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(256)")
    return _EXP[255 - _LOG[a]]


def gf_exp(power: int) -> int:
    """generator ** power."""
    return _EXP[power % 255]


# ---------------------------------------------------------------------- #
# Polynomials over GF(256): coefficient lists, lowest degree first.
# ---------------------------------------------------------------------- #
def poly_add(p: List[int], q: List[int]) -> List[int]:
    length = max(len(p), len(q))
    out = [0] * length
    for i, c in enumerate(p):
        out[i] ^= c
    for i, c in enumerate(q):
        out[i] ^= c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_mul(p: List[int], q: List[int]) -> List[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] ^= gf_mul(a, b)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_eval(p: List[int], x: int) -> int:
    """Horner's rule, lowest-degree-first coefficients."""
    result = 0
    for coeff in reversed(p):
        result = gf_mul(result, x) ^ coeff
    return result


def poly_deriv(p: List[int]) -> List[int]:
    """Formal derivative: odd-degree coefficients survive (char 2)."""
    out = [p[i] if i % 2 == 1 else 0 for i in range(1, len(p))]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out or [0]
