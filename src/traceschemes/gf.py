"""Small finite fields GF(q) for the geometric constructions.

Elements are integers 0..q-1 encoding polynomial coefficient tuples over
the prime field in base p (coefficient of x^i is digit i), so 0 and 1 are
the additive and multiplicative identities for every order.  Every field,
prime or not, reduces modulo a fixed irreducible polynomial: the first
monic irreducible of its degree in increasing integer encoding, which pins
down element numbering once and for all.  For a prime field that is x, so
its tables are the integers mod p.

Supported orders: every prime p <= 97 and the prime powers
4, 8, 9, 16, 25, 27, 32, 49, 64, 81.
"""

from __future__ import annotations

from functools import lru_cache

from .core import SchemeError

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
          59, 61, 67, 71, 73, 79, 83, 89, 97)
PRIME_POWERS = {4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4), 25: (5, 2),
                27: (3, 3), 32: (2, 5), 49: (7, 2), 64: (2, 6), 81: (3, 4)}
SUPPORTED_ORDERS = tuple(sorted(set(PRIMES) | set(PRIME_POWERS)))


class UnsupportedFieldOrder(SchemeError):
    """Requested field order outside the supported set."""


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    # mod is monic and len(a) >= deg(mod); return a reduced to degree < deg(mod)
    a = a[:]
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return a[:dm]


def _is_irreducible(poly: list[int], p: int) -> bool:
    # trial division by every monic polynomial of degree 1..deg/2
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            div = _decode(code, p, d) + [1]
            if not any(_poly_mod(poly, div, p)):
                return False
    return True


def _decode(code: int, p: int, k: int) -> list[int]:
    coeffs = []
    for _ in range(k):
        coeffs.append(code % p)
        code //= p
    return coeffs


def _find_irreducible(p: int, k: int) -> list[int]:
    for code in range(p ** k):
        poly = _decode(code, p, k) + [1]
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError(f"no irreducible polynomial of degree {k} over GF({p})")


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k for a supported order q; no table is built."""
    if q in PRIME_POWERS:
        return PRIME_POWERS[q]
    if q in PRIMES:
        return q, 1
    raise UnsupportedFieldOrder(f"field order {q} not supported")


class GF:
    """Arithmetic tables for one finite field; obtain instances via :func:`gf`."""

    def __init__(self, q: int) -> None:
        p, k = prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        self.modulus = _find_irreducible(p, k)
        polys = [_decode(e, p, k) for e in range(q)]
        self.add = [[self._encode([(x + y) % p for x, y in zip(polys[a], polys[b])])
                     for b in range(q)] for a in range(q)]
        self.neg = [self._encode([(-x) % p for x in polys[a]]) for a in range(q)]
        self.mul = [[self._encode(_poly_mod(_poly_mul(polys[a], polys[b], p),
                                            self.modulus, p))
                     for b in range(q)] for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            row = self.mul[a]
            self.inv[a] = row.index(1)

    def _encode(self, coeffs: list[int]) -> int:
        e = 0
        for c in reversed(coeffs):
            e = e * self.p + c
        return e

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by the zero field element")
        return self.mul[a][self.inv[b]]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv[a], -e
        out = 1
        while e:
            if e & 1:
                out = self.mul[out][a]
            a = self.mul[a][a]
            e >>= 1
        return out

    def subfield(self, order: int) -> tuple[int, ...]:
        """Elements of the subfield of the given order (fixed points of x -> x^order)."""
        if order < 2 or self.q % order:
            raise UnsupportedFieldOrder(f"{order} is not a subfield order of GF({self.q})")
        members = tuple(x for x in range(self.q) if self.pow(x, order) == x)
        if len(members) != order:
            raise UnsupportedFieldOrder(f"GF({self.q}) has no subfield of order {order}")
        return members


@lru_cache(maxsize=None)
def gf(q: int) -> GF:
    return GF(q)
