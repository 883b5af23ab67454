"""Slow reference implementations for cross-validation.

Everything here is written straight from the defining quantifiers, with
plain Python sets and explicit loops: no bitmasks, no reformulations, no
sharing with the optimized search.  The duplication is deliberate; these
are the independent oracles the fast paths are tested against.  Only the
``Certificate`` type and the variant names come from ``check``; nothing
is imported from ``criteria``, the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .check import SUFFICIENT, Certificate
from .errors import MinaddError
from .residues import ResidueSubset
from .sets import CanonicalSet, ConditionContext, margins

#: Hard cap on the modulus; the reference enumerates all 2^T subsets.
NAIVE_T_CAP = 16


@dataclass(frozen=True)
class WindowSet:
    """An explicit finite chunk of an integer set, clipped to [lo, hi]."""

    lo: int
    hi: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        ms = tuple(sorted(set(self.members)))
        for v in ms:
            if not self.lo <= v <= self.hi:
                raise MinaddError(f"member {v} outside window [{self.lo}, {self.hi}]")
        object.__setattr__(self, "members", ms)


@dataclass(frozen=True)
class CoverageReport:
    ok: bool
    first_uncovered: Optional[int] = None


def _subsets_lex(T: int):
    """All subsets of {0..T-1} in lexicographic order of sorted lists."""

    def rec(prefix: list[int], start: int):
        yield list(prefix)
        for k in range(start, T):
            prefix.append(k)
            yield from rec(prefix, k + 1)
            prefix.pop()

    yield from rec([], 0)


def _cond_a(T: int, X: set, Y: set, C: list[int]) -> bool:
    sums = {(c + u) % T for c in C for u in X | Y}
    return sums == set(range(T))


def _cond_b_necessary(T: int, X: set, Y: set, C: list[int]) -> bool:
    for c in C:
        if not any(
            all((c + y) % T != (cp + x) % T for cp in C for x in X) for y in Y
        ):
            return False
    return True


def _cond_b_sufficient(T: int, X: set, Y: set, C: list[int]) -> bool:
    for c in C:
        if not any(
            all(
                (c + y) % T != (cp + x) % T
                for cp in C
                if cp != c
                for x in X | Y
            )
            for y in Y
        ):
            return False
    return True


def naive_certificates(
    ctx: ConditionContext, variant: str = SUFFICIENT
) -> Iterator[Certificate]:
    """Reference enumeration: every valid subset of Z_T, by definition.

    Tries all subsets in lexicographic order of their sorted element lists
    and yields each one that passes (a) and the variant's (b), lazily.
    """
    T = ctx.T
    if T > NAIVE_T_CAP:
        raise MinaddError(f"reference search capped at T={NAIVE_T_CAP}, got {T}")
    X = set(ctx.x_t.members())
    Y = set(ctx.y1_res.members())
    cond_b = _cond_b_sufficient if variant == SUFFICIENT else _cond_b_necessary
    for C in _subsets_lex(T):
        if _cond_a(T, X, Y, C) and cond_b(T, X, Y, C):
            yield Certificate(T, ResidueSubset.of(T, C), variant)


def naive_find_certificate(
    ctx: ConditionContext, variant: str = SUFFICIENT
) -> Optional[Certificate]:
    """Reference search: the first valid subset of Z_T, or None.

    The first item of ``naive_certificates``.  Because validity is
    translation invariant, when any valid subset exists the first one
    contains 0 (subsets starting at 0 come first); this is asserted rather
    than assumed.
    """
    first = next(naive_certificates(ctx, variant), None)
    if first is not None and 0 not in first.c:
        raise AssertionError(
            f"translation invariance violated: first valid subset "
            f"{list(first.c.members())}"
        )
    return first


def verify_complement_window(
    d: WindowSet, s: CanonicalSet, inner_lo: int, inner_hi: int
) -> CoverageReport:
    """Check d + W covers [inner_lo, inner_hi] by direct enumeration."""
    guard = s.m + (margins(s).y0_margin if (s.y0 or s.y1) else 0)
    if d.lo > inner_lo - guard or d.hi < inner_hi + guard:
        raise MinaddError(
            f"window [{d.lo}, {d.hi}] must exceed [{inner_lo}, {inner_hi}] "
            f"by at least {guard} on each side"
        )
    for n in range(inner_lo, inner_hi + 1):
        if not any(s.contains(n - e) for e in d.members):
            return CoverageReport(False, n)
    return CoverageReport(True)


def private_target_owners(
    d: WindowSet, s: CanonicalSet, t_lo: int, t_hi: int, period: int
) -> set[int]:
    """The members e of d that own a private target in [t_lo, t_hi]: an
    integer n there with n - e in W and n - f not in W for every other
    member f of d.

    For d the cut of a set D whose period m divides, this is exact for D
    when d reaches 2 * ``period`` + max(Y0 | Y1 | {0}) + 1 below t_lo and
    -min(Y0 | Y1 | {0}) above t_hi.  A member of D above d.hi then reaches
    no target.  A member below d.lo that reaches n has translates in the
    two lowest periods of d, whose differences from n exceed every element
    of Y0 and Y1 and lie in its class mod m, so both reach n and n is
    private to none.
    """
    ys = s.y0 + s.y1 + (0,)
    if d.lo > t_lo - 2 * period - max(ys) - 1 or d.hi < t_hi - min(ys):
        raise MinaddError(
            f"window [{d.lo}, {d.hi}] is too short for the targets "
            f"[{t_lo}, {t_hi}] at period {period}"
        )
    owners = set()
    for n in range(t_lo, t_hi + 1):
        reachers = []
        for e in d.members:
            if s.contains(n - e):
                reachers.append(e)
                if len(reachers) > 1:
                    break
        if len(reachers) == 1:
            owners.add(reachers[0])
    return owners
