"""Generators for traceability schemes: shared-core systems, finite-geometry
designs, the common-point design extension, and the greedy packing.

All generators emit canonical :class:`~traceschemes.core.SetSystem` objects
with a fixed point numbering (field elements ordered by coefficient tuples,
projective points by normalized homogeneous coordinates, the infinite point
last), so repeated runs produce byte-identical files.

The four tau-(v, w, 1) designs (projective and affine lines, the Hermitian
unital, the inversive plane) each supply only the block through a given
pair or triple of points; :func:`_steiner_blocks` refuses a design whose
C(v, tau)/C(w, tau) blocks exceed the budget, then walks the tau-subsets
and builds each block once, from the first tau-subset it contains.  The
inversive plane reads its circles off the cross-ratio on homogeneous
coordinates, so the infinite point needs no case of its own.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb, isqrt
from typing import NamedTuple

from .core import (
    BudgetExceeded,
    ParamsInvalid,
    SetSystem,
    _ceil_div,
    _check_ground_set,
    _colex_next,
    _mask,
    _points,
    new_set_system,
)
from .gf import GF, gf
from . import verify

# Work cap of a construction, in incidences (m blocks of w points) or, for
# the greedy packing, in w-subsets walked.
DEFAULT_BUDGET = 10_000_000


class NotADesign(ParamsInvalid):
    """Extension base failed its design verification."""


class CongruenceViolated(ParamsInvalid):
    """Appended-point count d incompatible with the width congruence."""


class ExtensionCertificate(NamedTuple):
    """Records why an extended design is a strength-t traceability scheme.

    The system has d common points, the last d labels, appended to every
    block of a tau-(v-d, w-d, 1) design, with w == d+1 (mod t*t); certified
    TS verification reads only d and re-checks the pairwise bound this
    implies on the blocks less those points from the system itself.
    """

    d: int
    t: int
    tau: int


def _check_size(m: int, w: int, budget: int) -> None:
    """Refuse a family of m blocks of w points before building it, when
    its m*w incidences exceed ``budget``."""
    if m * w > budget:
        raise BudgetExceeded(f"{m} blocks of {w} points = {m * w} incidences "
                             f"exceed budget {budget}")


def trivial_ts(v: int, w: int, budget: int = DEFAULT_BUDGET) -> SetSystem:
    """v-w+1 blocks sharing a common (w-1)-core, one extra point each.

    A traceability scheme at every strength: outside the core, every block
    owns a unique point.
    """
    if not v >= w >= 1:
        raise ParamsInvalid(f"need v >= w >= 1, got v={v} w={w}")
    _check_ground_set(v)  # before the v - w + 1 blocks are built
    _check_size(v - w + 1, w, budget)
    core = list(range(w - 1))
    blocks = [core + [j] for j in range(w - 1, v)]
    return new_set_system(v, blocks)


# ---------------------------------------------------------------------------
# finite-geometry designs


def _steiner_blocks(n: int, tau: int, w: int, budget: int, block_through) -> SetSystem:
    """The tau-(n, w, 1) design whose block through each tau-subset S of
    range(n) is block_through(*S), each block built once.

    Its C(n, tau)/C(w, tau) blocks are paid for before the first is built.
    The tau-subsets are walked in lexicographic order, and block_through is
    called only for those that no block built so far contains.
    covered[P] is the mask of the points that extend the (tau-1)-subset P to
    a tau-subset of some built block; it is read only for points above P's
    last, so a block marks only its (tau-1)-subsets that miss its last point.
    """
    _check_size(comb(n, tau) // comb(w, tau), w, budget)
    covered: dict[tuple[int, ...], int] = {}
    blocks = []
    for prefix in combinations(range(n), tau - 1):
        free = ((1 << n) - (2 << prefix[-1])) & ~covered.get(prefix, 0)
        while free:
            block = sorted(block_through(*prefix, (free & -free).bit_length() - 1))
            blocks.append(block)
            line = _mask(block)
            for sub in combinations(block[:-1], tau - 1):
                covered[sub] = covered.get(sub, 0) | line
            free &= ~line
    return new_set_system(n, blocks)


def _canon_projective(field: GF, vec: tuple[int, ...]) -> tuple[int, ...]:
    for c in vec:
        if c:
            inv = field.inv[c]
            return tuple(field.mul[inv][x] for x in vec)
    raise ValueError("zero vector has no projective representative")


def _projective_points(field: GF, dim: int) -> list[tuple[int, ...]]:
    pts = {(0,) * i + (1,) + tail
           for i in range(dim)
           for tail in product(range(field.q), repeat=dim - i - 1)}
    return sorted(pts)


def _line(field: GF, a: tuple[int, ...], b: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The vectors a + lam * b for lam in GF(q), in that order."""
    add = field.add
    return [tuple(add[x][scale[y]] for x, y in zip(a, b)) for scale in field.mul]


def pg_lines(n: int, q: int, budget: int = DEFAULT_BUDGET) -> SetSystem:
    """Lines of the n-dimensional projective geometry over GF(q).

    Points are the 1-dimensional subspaces of GF(q)^(n+1), blocks the
    2-dimensional ones; a 2-design with index 1, width q+1, on
    q^n + ... + q + 1 points.
    """
    if not 2 <= n <= 12:  # every q is >= 2, so from n = 13 on no space fits the cap
        raise ParamsInvalid(f"projective dimension n={n} must be in [2, 12]")
    field = gf(q)
    v = (q ** (n + 1) - 1) // (q - 1)
    _check_ground_set(v)  # before a point is built
    pts = _projective_points(field, n + 1)
    index = {pt: i for i, pt in enumerate(pts)}

    def line_through(i: int, j: int) -> set[int]:
        # the line is point j and point i + lam * point j
        return {j, *(index[_canon_projective(field, x)] for x in _line(field, pts[i], pts[j]))}

    return _steiner_blocks(len(pts), 2, q + 1, budget, line_through)


def ag_lines(n: int, q: int, budget: int = DEFAULT_BUDGET) -> SetSystem:
    """Lines of the n-dimensional affine geometry over GF(q).

    Points are the vectors of GF(q)^n, blocks the affine lines; a 2-design
    with index 1, width q, on q^n points.
    """
    if not 2 <= n <= 12:  # every q is >= 2, so from n = 13 on no space fits the cap
        raise ParamsInvalid(f"affine dimension n={n} must be in [2, 12]")
    field = gf(q)
    _check_ground_set(q ** n)  # before a point is built
    pts = sorted(product(range(q), repeat=n))
    index = {pt: i for i, pt in enumerate(pts)}

    def line_through(i: int, j: int) -> list[int]:
        base, other = pts[i], pts[j]
        direction = tuple(field.sub(x, y) for x, y in zip(other, base))
        return [index[x] for x in _line(field, base, direction)]

    return _steiner_blocks(len(pts), 2, q, budget, line_through)


def inversive_plane(q: int, budget: int = DEFAULT_BUDGET) -> SetSystem:
    """Circle geometry on the projective line over GF(q^2).

    Points are the q^2 field elements x, with homogeneous coordinates
    (x, 1), plus the infinite point (1, 0), numbered last.  The circle
    through a, b, c is the preimage of GF(q) and the infinite point under
    the map sending a, b, c to 0, 1, oo: z lies on it iff z == c or the
    cross-ratio det(z,a)*det(b,c) / (det(z,c)*det(b,a)) is in GF(q).
    A 3-design with index 1, width q+1, and q^3 + q blocks.
    """
    field = gf(q * q)
    sub_members = set(field.subfield(q))
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    coords = [(x, 1) for x in range(field.q)] + [(1, 0)]

    def det(u: tuple[int, int], v: tuple[int, int]) -> int:
        return add[mul[u[0]][v[1]]][neg[mul[v[0]][u[1]]]]

    def circle_through(a: int, b: int, c: int) -> list[int]:
        a, b, c = coords[a], coords[b], coords[c]
        ba, bc = det(b, a), det(b, c)
        return [i for i, z in enumerate(coords)
                if not (den := mul[det(z, c)][ba])
                or mul[mul[det(z, a)][bc]][inv[den]] in sub_members]

    return _steiner_blocks(len(coords), 3, q + 1, budget, circle_through)


def hermitian_unital(q: int, budget: int = DEFAULT_BUDGET) -> SetSystem:
    """Unital of the Hermitian curve in the projective plane over GF(q^2).

    Points are the q^3 + 1 solutions of x^(q+1) + y^(q+1) + z^(q+1) = 0,
    blocks the secant-line sections; a 2-design with index 1, width q+1,
    and q^2 (q^2 - q + 1) blocks.
    """
    field = gf(q * q)
    pts = _projective_points(field, 3)
    curve = [pt for pt in pts if not _hermitian_form(field, q, pt)]
    index = {pt: i for i, pt in enumerate(curve)}

    def section_through(i: int, j: int) -> set[int]:
        # the line of pg_lines through points i and j, cut down to the curve
        line = (_canon_projective(field, x) for x in _line(field, curve[i], curve[j]))
        return {j, *(index[pt] for pt in line if pt in index)}

    return _steiner_blocks(len(curve), 2, q + 1, budget, section_through)


def _hermitian_form(field: GF, q: int, vec: tuple[int, ...]) -> int:
    total = 0
    for x in vec:
        total = field.add[total][field.pow(x, q + 1)]
    return total


# ---------------------------------------------------------------------------
# design extension and packing


def extend_design(base: SetSystem, d: int, t: int) -> tuple[SetSystem, ExtensionCertificate]:
    """Append d fresh points to every block of a suitable design.

    The base must be a tau-(v0, w0, 1) design with tau = ceil((w0+d)/t^2)
    and w0 + d == d + 1 (mod t^2); the result is a strength-t traceability
    scheme on v0 + d points with the same number of blocks, plus a
    certificate naming the d appended points for certified verification.
    """
    if t < 2:
        raise ParamsInvalid(f"strength t={t} must be >= 2")
    tt = t * t
    if not 0 <= d <= tt - 1:
        raise CongruenceViolated(f"d={d} outside [0, {tt - 1}]")
    w = base.w + d
    if w % tt != (d + 1) % tt:
        raise CongruenceViolated(f"width {base.w}+{d} is not d+1 (mod {tt})")
    tau = _ceil_div(w, tt)
    outcome = verify.verify_design(base, tau, 1)
    if not outcome.holds:
        raise NotADesign(f"base is not a {tau}-design with index 1: {outcome.detail}")
    fresh = list(range(base.v, base.v + d))
    blocks = [list(b) + fresh for b in base.blocks]
    return new_set_system(base.v + d, blocks), ExtensionCertificate(d=d, t=t, tau=tau)


def design_max_strength(tau: int, w: int) -> int:
    """Traceability strength certified for a tau-(v, w, 1) design."""
    if tau < 2:
        raise ParamsInvalid(f"design strength tau={tau} must be >= 2")
    return isqrt((w - 1) // (tau - 1))


def greedy_packing_ts(v: int, w: int, t: int, budget: int = DEFAULT_BUDGET) -> SetSystem:
    """Maximal ceil(w/t^2)-packing grown greedily in colex order.

    Streams all w-subsets in colexicographic order and keeps each one that
    meets every kept block in fewer than ceil(w/t^2) points.  The result is
    a strength-t traceability scheme of size at least
    C(v, tau) / C(w, tau)^2 with tau = ceil(w/t^2).
    """
    if not v >= w >= t >= 2:
        raise ParamsInvalid(f"need v >= w >= t >= 2, got v={v} w={w} t={t}")
    _check_ground_set(v)  # before the walk, which is long for a large v
    if comb(v, w) > budget:
        raise BudgetExceeded(f"C({v},{w}) = {comb(v, w)} exceeds budget {budget}")
    tau = _ceil_div(w, t * t)
    kept: list[int] = []
    m, top = (1 << w) - 1, 1 << v
    while m < top:
        if all((m & km).bit_count() < tau for km in kept):
            kept.append(m)
        m = _colex_next(m)
    return new_set_system(v, [_points(m) for m in kept])
