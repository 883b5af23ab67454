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

from .errors import MinaddError
from .residues import ResidueSubset, tile


@dataclass(frozen=True)
class RawSet:
    """User-facing description of an eventually periodic set bounded below.

    The membership rule is

        n in W  <=>  (n >= threshold and n % period in residues)
                     or n in extras,

    with every extra strictly below the threshold.  ``period`` must equal
    the residues' modulus, which ``ResidueSubset`` keeps positive.
    ``extras`` is read as a set: a repeat is merged and the order is
    sorted, as ``ResidueSubset.of`` reads residues.  An above-bounded set
    W is described by -W: a minimal complement C of -W gives the minimal
    complement -C of W, since C + W = Z iff (-C) + (-W) = Z elementwise.
    """

    period: int
    residues: ResidueSubset
    threshold: int
    extras: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.residues.modulus != self.period:
            raise MinaddError("residues modulus must equal period")
        extras = tuple(sorted(set(self.extras)))
        for e in extras:
            if e >= self.threshold:
                raise MinaddError(
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
    W_original = W_canonical + shift.  ``y0`` and ``y1`` are read as sets:
    a repeat is merged and the order is sorted, as ``ResidueSubset.of``
    reads ``x``.  Validation happens on construction; an invalid
    combination raises MinaddError, naming the rule it breaks.  ``m``
    must equal ``x_m``'s modulus, which ``ResidueSubset`` keeps positive.
    """

    m: int
    x_m: ResidueSubset
    y0: tuple[int, ...] = ()
    y1: tuple[int, ...] = ()
    shift: int = 0

    def __post_init__(self) -> None:
        if self.x_m.modulus != self.m:
            raise MinaddError(
                f"x_m modulus {self.x_m.modulus} does not match m={self.m}"
            )
        y0 = tuple(sorted(set(self.y0)))
        y1 = tuple(sorted(set(self.y1)))
        for e in y0:
            if e >= 0:
                raise MinaddError(f"y0 element {e} is not negative")
            if (e % self.m) not in self.x_m:
                raise MinaddError(
                    f"y0 element {e} has residue {e % self.m} outside x_m"
                )
        for e in y1:
            if (e % self.m) in self.x_m:
                raise MinaddError(
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
    def from_dict(cls, d) -> "CanonicalSet":
        """The set that ``to_dict`` wrote as ``d``, as ``read_part`` reads
        it (``shift`` may be absent, and is then 0), built through
        ``validate_canonical``.  A missing field, a non-integer, or an
        ``x``, ``y0`` or ``y1`` that is not strictly ascending raises
        MinaddError, which ``verify-witness`` reports with exit 2."""
        m, shift, x, y0, y1 = read_part(d, "m shift", "x y0 y1", shift=0)
        return validate_canonical(m, x, y0, y1, shift)


def ascending(ints: list[int]) -> bool:
    """Each integer of the list is above the one before it.  Set files and
    records refuse a list for which this fails; the constructors read
    theirs as sets."""
    return all(a < b for a, b in zip(ints, ints[1:]))


#: What ``read_part`` says of a record part that lacks a field or holds
#: what ``to_dict`` never writes; ``verify-witness`` prints it.
UNREADABLE_PART = ("witness record: 'canonical' or 'witness' lacks a field "
                   "or holds a non-integer where an integer belongs")


def read_part(part, ints: str, lists: str, listing: str = "",
              **defaults) -> list:
    """The fields of a record part that a ``from_dict`` reads, in order:
    an exact ``int`` for each name of ``ints``, a strictly ascending list
    of exact ``int``s for each name of ``lists``, and a list of exact
    ``int``s for each name of ``listing``.  A name of ``defaults`` may be
    absent and takes its default; any other key of ``part`` is ignored.

    Exact types tell JSON's ``true``, ``1.0`` and ``"1"`` from an int,
    and one C-speed pass types each list.  A list is read as written,
    never as a set, which would merge a repeat and sort a descent, so
    the checks would pass a record that does not hold what it says.
    Raises MinaddError, with ``UNREADABLE_PART`` when a field is missing
    or mistyped, after all types are tested, and then naming the first
    list of ``lists`` that is not strictly ascending.
    """
    if not isinstance(part, dict):
        raise MinaddError(UNREADABLE_PART)
    n = len(ints.split())
    keys = f"{ints} {lists} {listing}".split()
    values = [part.get(key, defaults.get(key)) for key in keys]
    if not (all(type(v) is int for v in values[:n])
            and all(isinstance(v, list) and {int}.issuperset(map(type, v))
                    for v in values[n:])):
        raise MinaddError(UNREADABLE_PART)
    for key, v in zip(lists.split(), values[n:]):
        if not ascending(v):
            raise MinaddError(f"witness record: {key!r} is not strictly ascending")
    return values


def validate_canonical(
    m: int,
    x: Iterable[int],
    y0: Iterable[int] = (),
    y1: Iterable[int] = (),
    shift: int = 0,
) -> CanonicalSet:
    """Validation gate: build a CanonicalSet or raise MinaddError."""
    return CanonicalSet(m, ResidueSubset.of(m, x), y0, y1, shift)


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
    return CanonicalSet(m, raw.residues, y0, y1, shift)


@dataclass(frozen=True)
class Margins:
    """The largest and smallest finite exceptions, max and min of Y0 | Y1.

    A witness record carries them, and ``verify_certificate`` compares
    them with the set's; no witness check sizes its window by them.  Only
    the naive reference, ``oracle``, takes its window guard from
    ``y0_margin``."""

    y_plus: int
    y_minus: int

    @property
    def y0_margin(self) -> int:
        return max(self.y_plus, -self.y_minus, self.y_plus - self.y_minus)


def margins(s: CanonicalSet) -> Margins:
    """Margins of a canonical set; requires a nonempty exceptional part."""
    ys = s.y0 + s.y1
    if not ys:
        raise MinaddError("margins are undefined when y0 and y1 are both empty")
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
            raise MinaddError("context masks must use modulus T")
        if x_t.mask & y1_res.mask:
            raise MinaddError(
                "lifted periodic residues and exception residues overlap"
            )
        d = self.__dict__
        d["T"] = T
        d["x_t"] = x_t
        d["y1_res"] = y1_res


def lift_period(s: CanonicalSet, k: int) -> ConditionContext:
    """Lift the modulus-m description to modulus T = k*m.

    The periodic residues expand to {i*m + x : 0 <= i < k, x in x_m},
    tiled from x_m's mask; the exceptions of Y1 set the bits of their
    residues mod T, a negative one wrapping into [0, T).  A T whose T-bit
    mask cannot be allocated raises MinaddError: at k = 1 too, where
    the tiling is only the guard and x_m is the lift.
    """
    if not s.x_m:
        raise MinaddError("cannot lift a set with no periodic part")
    if k < 1:
        raise MinaddError(f"lift factor must be positive, got {k}")
    T = k * s.m
    try:
        x_mask = tile(s.x_m.mask, s.m, k)
    except (OverflowError, MemoryError) as exc:
        raise MinaddError(f"modulus {T} is too large to lift: its masks "
                          f"do not fit in memory ({type(exc).__name__})") from exc
    x_t = s.x_m if k == 1 else ResidueSubset(T, x_mask)
    y1_mask = 0
    for y in s.y1:
        y1_mask |= 1 << y % T
    return ConditionContext(T, x_t, ResidueSubset(T, y1_mask))
