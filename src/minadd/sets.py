"""Finite descriptions of eventually periodic integer sets bounded below.

A set W bounded below with eventual period m is stored either as a raw
description (pattern + threshold + finite exceptions) or in the normalized
form

    W = (m*N + X) | Y0 | Y1,

where X is the set of periodic residue classes, Y0 is a finite set of
negative exceptions whose residues lie inside X, and Y1 is a finite set of
exceptions whose residues lie outside X.  Everything downstream (condition
checks, certificate search, witness construction) consumes the normalized
form.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    DuplicateElement,
    EmptySet,
    ExtraNotBelowThreshold,
    ModulusTooLarge,
    NonPositivePeriod,
    ResidueOutOfRange,
    Y0NotNegative,
    Y0ResidueOutsideX,
    Y1ResidueInsideX,
)
from .residues import ResidueSubset, tile


@dataclass(frozen=True)
class RawSet:
    """User-facing description of an eventually periodic set bounded below.

    The membership rule is

        n in W  <=>  (n >= threshold and n % period in residues)
                     or n in extras,

    with every extra strictly below the threshold.  An above-bounded set W
    is described by -W: a minimal complement C of -W gives the minimal
    complement -C of W, since C + W = Z iff (-C) + (-W) = Z elementwise.
    """

    period: int
    residues: ResidueSubset
    threshold: int
    extras: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.period < 1:
            raise NonPositivePeriod(f"period must be positive, got {self.period}")
        if self.residues.modulus != self.period:
            raise ValueError("residues modulus must equal period")
        extras = tuple(sorted(self.extras))
        if len(set(extras)) != len(extras):
            raise DuplicateElement(f"duplicate extras in {extras}")
        for e in extras:
            if e >= self.threshold:
                raise ExtraNotBelowThreshold(
                    f"extra {e} is not below the threshold {self.threshold}"
                )
        object.__setattr__(self, "extras", extras)

    def contains(self, n: int) -> bool:
        if n >= self.threshold and (n % self.period) in self.residues:
            return True
        i = bisect.bisect_left(self.extras, n)
        return i < len(self.extras) and self.extras[i] == n


@dataclass(frozen=True)
class CanonicalSet:
    """Normalized form (m*N + x_m) | y0 | y1, shifted by ``shift``.

    ``shift`` records the translation applied to the original set:
    W_original = W_canonical + shift.  Validation happens on construction;
    an invalid combination raises one of the specific errors below.
    """

    m: int
    x_m: ResidueSubset
    y0: tuple[int, ...] = ()
    y1: tuple[int, ...] = ()
    shift: int = 0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ResidueOutOfRange(f"m must be positive, got {self.m}")
        if self.x_m.modulus != self.m:
            raise ResidueOutOfRange(
                f"x_m modulus {self.x_m.modulus} does not match m={self.m}"
            )
        y0 = tuple(sorted(self.y0))
        y1 = tuple(sorted(self.y1))
        for name, part in (("y0", y0), ("y1", y1)):
            if len(set(part)) != len(part):
                raise DuplicateElement(f"duplicate element in {name}={part}")
        for e in y0:
            if e >= 0:
                raise Y0NotNegative(f"y0 element {e} is not negative")
            if (e % self.m) not in self.x_m:
                raise Y0ResidueOutsideX(
                    f"y0 element {e} has residue {e % self.m} outside x_m"
                )
        for e in y1:
            if (e % self.m) in self.x_m:
                raise Y1ResidueInsideX(
                    f"y1 element {e} has residue {e % self.m} inside x_m"
                )
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "y1", y1)

    @property
    def is_empty(self) -> bool:
        return not (self.x_m.mask or self.y0 or self.y1)

    @property
    def is_finite(self) -> bool:
        return not self.x_m.mask

    def contains(self, n: int) -> bool:
        """Membership in the canonical (shifted) coordinates."""
        if n >= 0 and self.x_m and (n % self.m) in self.x_m:
            return True
        return n in self.y0 or n in self.y1

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "x": list(self.x_m.members()),
            "y0": list(self.y0),
            "y1": list(self.y1),
            "shift": self.shift,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CanonicalSet":
        return validate_canonical(
            d["m"], d["x"], d["y0"], d["y1"], d.get("shift", 0)
        )


def validate_canonical(
    m: int,
    x: Iterable[int],
    y0: Iterable[int] = (),
    y1: Iterable[int] = (),
    shift: int = 0,
) -> CanonicalSet:
    """Validation gate: build a CanonicalSet or raise a specific error."""
    return CanonicalSet(m, ResidueSubset.of(m, x), tuple(y0), tuple(y1), shift)


def canonicalize(raw: RawSet) -> CanonicalSet:
    """Normalize a raw description.

    The shift is the smallest multiple of the period that is >= threshold,
    which keeps the periodic residue pattern unchanged.  Every element below
    the shift becomes a finite exception, routed by its residue class.
    Membership is preserved: n in raw  <=>  n - shift in result.  A set
    with no residues is finite, with shift 0; with no extras either it is
    the empty set, in the same form as a canonical file with x empty.
    """
    m = raw.period
    if not raw.residues:
        # Finite set: no periodic part, everything is a y1-style exception.
        return CanonicalSet(m, ResidueSubset(m, 0), (), raw.extras, 0)
    shift = -(-raw.threshold // m) * m  # smallest multiple of m >= threshold
    y0: list[int] = []
    y1: list[int] = []
    # Periodic elements caught between the threshold and the shift point:
    # shift - threshold < m, so each class has at most one.
    for r in raw.residues.members():
        t = raw.threshold + (r - raw.threshold) % m
        if t < shift:
            y0.append(t - shift)
    for e in raw.extras:
        v = e - shift
        if (v % m) in raw.residues:
            y0.append(v)
        else:
            y1.append(v)
    return CanonicalSet(m, raw.residues, tuple(sorted(y0)), tuple(sorted(y1)), shift)


@dataclass(frozen=True)
class Margins:
    """Safety buffers for windowed verification, from the finite exceptions."""

    y_plus: int
    y_minus: int

    @property
    def y0_margin(self) -> int:
        return max(self.y_plus, -self.y_minus, self.y_plus - self.y_minus)


def margins(s: CanonicalSet) -> Margins:
    """Margins of a canonical set; requires a nonempty exceptional part."""
    ys = s.y0 + s.y1
    if not ys:
        raise EmptySet("margins are undefined when y0 and y1 are both empty")
    return Margins(max(ys), min(ys))


@dataclass(frozen=True, init=False)
class ConditionContext:
    """Arena for the covering/witness conditions at a working modulus T.

    T is a multiple of the source period, x_t the lifted periodic residues,
    y1_res the finite exceptions reduced mod T.  The two are disjoint by
    construction.  Built on every modulus ``decide`` scans, so its
    constructor validates and stores its arguments directly (see
    ``ResidueSubset``).
    """

    T: int
    x_t: ResidueSubset
    y1_res: ResidueSubset

    def __init__(self, T: int, x_t: ResidueSubset, y1_res: ResidueSubset) -> None:
        if x_t.modulus != T or y1_res.modulus != T:
            raise ResidueOutOfRange("context masks must use modulus T")
        if x_t.mask & y1_res.mask:
            raise Y1ResidueInsideX(
                "lifted periodic residues and exception residues overlap"
            )
        d = self.__dict__
        d["T"] = T
        d["x_t"] = x_t
        d["y1_res"] = y1_res


def lift_period(s: CanonicalSet, k: int) -> ConditionContext:
    """Lift the modulus-m description to modulus T = k*m.

    The periodic residues expand to {i*m + x : 0 <= i < k, x in x_m}; the
    finite exceptions reduce mod T (negative values wrap into [0, T)).
    A T whose T-bit mask cannot be allocated raises ModulusTooLarge: at
    k = 1 too, where the tiling is only the guard and x_m is the lift.
    """
    if not s.x_m:
        raise EmptySet("cannot lift a set with no periodic part")
    if k < 1:
        raise ValueError(f"lift factor must be positive, got {k}")
    T = k * s.m
    try:
        x_mask = tile(s.x_m.mask, s.m, k)
    except (OverflowError, MemoryError) as exc:
        raise ModulusTooLarge(f"modulus {T} is too large to lift: its masks "
                              f"do not fit in memory ({type(exc).__name__})") from exc
    x_t = s.x_m if k == 1 else ResidueSubset(T, x_mask)
    return ConditionContext(T, x_t, ResidueSubset.reduce(T, s.y1))
