"""Exact-arithmetic size bounds for TS, IPPS and CFF schemes.

Every bound is evaluated as an exact rational (no floating point); upper
bounds report their floor, lower bounds their ceiling, since scheme sizes
are integers.  Bounds that only apply under side conditions carry an
``applicable`` flag and a note naming the failed condition.

Naming follows the customary attributions in the area: the Stinson-Wei
and Collins bounds, the Erdos-Frankl-Furedi (EFF) cover-free bounds, and
the newer general/special/packing bounds they were sharpened into.

A t-TS is a t-CFF and also a t^2-CFF, so the TS upper bounds are CFF bounds
at another strength: upper-sw is the EFF bound at t, and upper-general and
upper-special are the refined EFF and special bounds at t^2.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, floor, ceil
from typing import NamedTuple

from .core import ParamsInvalid, SchemeParams, _ceil_div, _check_ground_set


class InconsistentBounds(Exception):
    """A lower bound exceeded an upper bound: implementation bug."""


class BoundValue(NamedTuple):
    name: str
    direction: str  # "upper" | "lower" | "exact"
    value: Fraction | None
    integer_bound: int | None
    applicable: bool
    note: str = ""


class BoundReport(NamedTuple):
    params: SchemeParams
    scheme: str
    entries: tuple[BoundValue, ...]
    exact: int | None
    lower: int
    upper: int | None


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient; 0 when k < 0 or k > n."""
    if n < 0:
        raise ParamsInvalid(f"binom needs n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _upper(name: str, value: Fraction, note: str = "") -> BoundValue:
    return BoundValue(name, "upper", value, floor(value), True, note)


def _lower(name: str, value: Fraction, note: str = "") -> BoundValue:
    return BoundValue(name, "lower", value, ceil(value), True, note)


def _inapplicable(name: str, direction: str, note: str) -> BoundValue:
    return BoundValue(name, direction, None, None, False, note)


def _eff(r: int, w: int, v: int) -> Fraction:
    """EFF own-subset bound for strength-r cover-free families."""
    e = _ceil_div(w, r)
    return Fraction(binom(v, e), binom(w - 1, e - 1))


def _eff_refined(r: int, w: int, v: int) -> Fraction:
    """Double-counting refinement of :func:`_eff`; never exceeds it."""
    e = _ceil_div(w, r)
    return Fraction(binom(v, e) - binom(w - 1, e), binom(w - 1, e - 1))


# ---------------------------------------------------------------------------
# IPPS upper bounds


def ipps_upper_collins(p: SchemeParams) -> BoundValue:
    """Own-subset upper bound for strength-t parent identification."""
    e = _ceil_div(p.w, p.t * p.t // 4 + _ceil_div(p.t, 2))
    denom = binom(_ceil_div(p.w, p.t // 2 + 1) - 1, e - 1)
    value = Fraction(binom(p.v, e), denom)
    return _upper("upper-collins", value, f"exponent {e}")


def ipps_upper_new(p: SchemeParams) -> BoundValue:
    """Sharper IPPS upper bound from smaller own-subsets."""
    e = _ceil_div(p.w, p.t * p.t // 4 + p.t)
    return _upper("upper-new", Fraction(binom(p.v, e)), f"exponent {e}")


# ---------------------------------------------------------------------------
# TS upper bounds


def ts_upper_sw(p: SchemeParams) -> BoundValue:
    """Stinson-Wei bound: a t-TS is a t-CFF, so the EFF bound at t."""
    return _upper("upper-sw", _eff(p.t, p.w, p.v))


def ts_upper_collins(p: SchemeParams) -> BoundValue:
    """Collins bound from ceil(w/t^2)-own-subsets."""
    tau = _ceil_div(p.w, p.t * p.t)
    return _upper("upper-collins", Fraction(binom(p.v, tau)))


def ts_upper_general(p: SchemeParams) -> BoundValue:
    """A t-TS is a t^2-CFF, so the refined EFF bound at t^2; reduces to
    v-w+1 when w <= t^2."""
    return _upper("upper-general", _eff_refined(p.t * p.t, p.w, p.v))


def _special_case(r: int, w: int, v: int) -> tuple[bool, int, int, str]:
    """Shared case analysis for the sparse-overlap special bound.

    Decomposes w = r*(ceil(w/r)-1) + 1 + d and checks the ground-set
    threshold plus one of the disjunctive cases (a) d in {0,1},
    (b) d < r / (2*ceil(w/r)^2), (c) ceil(w/r) == 2 and d < ceil(2r/3).
    Returns (applicable, d, tau, note).
    """
    tau = _ceil_div(w, r)
    d = w - 1 - r * (tau - 1)
    assert 0 <= d <= r - 1
    cases = []
    if d in (0, 1):
        cases.append("a")
    if 2 * d * tau * tau < r:
        cases.append("b")
    if tau == 2 and d < _ceil_div(2 * r, 3):
        cases.append("c")
    if not cases:
        return False, d, tau, f"d={d} fits none of cases a/b/c"
    if not v > 2 * d * tau * binom(w, tau):
        return False, d, tau, f"ground set {v} not above threshold {2 * d * tau * binom(w, tau)}"
    return True, d, tau, f"d={d}, case {'/'.join(cases)}"


def ts_upper_special(p: SchemeParams) -> BoundValue:
    """Special-case bound that the design constructions attain: the CFF
    special bound at strength t^2."""
    return cff_upper_special(p.t * p.t, p.w, p.v)


def ts_exact_small(p: SchemeParams) -> BoundValue:
    """Exact maximum v-w+1, valid exactly when w <= t^2."""
    if p.w > p.t * p.t:
        return _inapplicable("exact-small", "exact", f"w={p.w} > t^2={p.t * p.t}")
    value = Fraction(p.v - p.w + 1)
    return BoundValue("exact-small", "exact", value, p.v - p.w + 1, True,
                      "maximum size known exactly")


def ts_lower_trivial(p: SchemeParams) -> BoundValue:
    """Shared-core construction gives v-w+1 blocks at any strength."""
    return _lower("lower-trivial", Fraction(p.v - p.w + 1))


def ts_lower_packing(p: SchemeParams) -> BoundValue:
    """Greedy packing guarantee C(v,tau) / C(w,tau)^2 with tau = ceil(w/t^2)."""
    tau = _ceil_div(p.w, p.t * p.t)
    value = Fraction(binom(p.v, tau), binom(p.w, tau) ** 2)
    return _lower("lower-packing", value)


# ---------------------------------------------------------------------------
# CFF upper bounds


def cff_upper_eff(p: SchemeParams) -> BoundValue:
    """Erdos-Frankl-Furedi own-subset bound for cover-free families."""
    return _upper("upper-eff", _eff(p.t, p.w, p.v))


def cff_upper_new(p: SchemeParams) -> BoundValue:
    """Double-counting refinement; never exceeds the EFF bound."""
    return _upper("upper-new", _eff_refined(p.t, p.w, p.v))


def cff_upper_special(r: int, w: int, v: int) -> BoundValue:
    """Special-case CFF bound at strength r (the TS bound takes r = t^2).

    The stated ground-set threshold is vacuous for d = 0, where at small v
    the formula can drop below the shared-core construction's v-w+1 blocks;
    such values are provably false, so the bound is reported inapplicable
    there instead.
    """
    if not (v >= w >= 1 and r >= 1):
        raise ParamsInvalid(f"need v >= w >= 1 and r >= 1, got r={r} w={w} v={v}")
    ok, d, tau, note = _special_case(r, w, v)
    if not ok:
        return _inapplicable("upper-special", "upper", note)
    value = Fraction(binom(v - d, tau), binom(w - d, tau))
    if value < v - w + 1:
        return _inapplicable("upper-special", "upper",
                             f"ground set {v} too small: value would undercut "
                             f"the constructive floor {v - w + 1}")
    return _upper("upper-special", value, note)


# ---------------------------------------------------------------------------
# standalone combinatorial floors


def own_subset_min_count(p: SchemeParams) -> int:
    """Guaranteed count of ceil(w/t^2)-own-subsets per block of a t-TS."""
    tau = _ceil_div(p.w, p.t * p.t)
    return binom(p.w - 1, tau - 1)


def minimal_config_size_bound(t: int) -> int:
    """Largest possible union of a minimal empty-intersection configuration."""
    if t < 1:
        raise ParamsInvalid(f"strength t={t} must be >= 1")
    return (t + 2) ** 2 // 4


# ---------------------------------------------------------------------------
# aggregated report

_CONJECTURE_NOTE = ("conjectured (not proven) to be exact up to a constant "
                    "depending only on w and t")


def bound_report(p: SchemeParams, scheme: str) -> BoundReport:
    """All applicable bounds for one scheme kind, with a consistency check."""
    _check_ground_set(p.v)  # the entries grow with v, past what prints as decimal
    if scheme == "ts":
        entries = [ts_upper_sw(p), ts_upper_collins(p), ts_upper_general(p),
                   ts_upper_special(p), ts_exact_small(p),
                   ts_lower_trivial(p), ts_lower_packing(p)]
    elif scheme == "ipps":
        collins = ipps_upper_collins(p)
        new = ipps_upper_new(p)
        new = new._replace(note=(new.note + "; " + _CONJECTURE_NOTE).strip("; "))
        entries = [collins, new]
    elif scheme == "cff":
        entries = [cff_upper_eff(p), cff_upper_new(p),
                   cff_upper_special(p.t, p.w, p.v)]
    else:
        raise ParamsInvalid(f"unknown scheme {scheme!r}")
    uppers = [b.integer_bound for b in entries if b.applicable and b.direction == "upper"]
    lowers = [b.integer_bound for b in entries if b.applicable and b.direction == "lower"]
    exacts = [b.integer_bound for b in entries if b.applicable and b.direction == "exact"]
    # A single block is always a valid scheme, and TS lower bounds carry
    # over to IPPS and CFF through the containment chain.
    if scheme != "ts":
        lowers.append(p.v - p.w + 1)
    lower = max(lowers + [1])
    upper = min(uppers) if uppers else None
    exact = exacts[0] if exacts else None
    if upper is not None and lower > upper:
        raise InconsistentBounds(f"lower {lower} exceeds upper {upper} for {scheme} {p}")
    return BoundReport(params=p, scheme=scheme, entries=tuple(entries),
                       exact=exact, lower=lower, upper=upper)


def render_bound_report(report: BoundReport) -> str:
    """Fixed-order tab-separated table: name, rational, integer, applicable, note."""
    lines = []
    for b in report.entries:
        rational = "-" if b.value is None else (
            str(b.value.numerator) if b.value.denominator == 1
            else f"{b.value.numerator}/{b.value.denominator}")
        integer = "-" if b.integer_bound is None else str(b.integer_bound)
        flag = "yes" if b.applicable else "no"
        lines.append("\t".join([b.name, rational, integer, flag, b.note]))
    return "\n".join(lines) + "\n"
