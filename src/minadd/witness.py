"""Explicit windowed minimal-complement construction.

Given a sufficient-variant certificate (T, C), the residues split into
C1 = (C + X_T) mod T, covered through the periodic part, and its
complement C2, which only the finite exceptions can reach.  The witness
materializes the window part of a minimal complement D': all integers in
the C classes, greedily pruned in descending order until the remaining
elements form an irredundant cover of the C2-residue targets via the
exceptional offsets.  So each interior survivor owns a *private target*,
an integer of a C2 class that no other survivor reaches, which is the
local evidence of minimality.  The window lists D' alone: a verifier
finds each private target from D' and Y1 in the |D'|*|Y1| work it takes
to count the sums.

The build does not walk every candidate.  Three facts make the prune
periodic: (1) every source of a target lies in the candidate pool, so a
target's initial count depends only on its class mod T; (2) an interior
candidate's fate depends only on its class and on which of the span =
max(Y1) - min(Y1) integers above it were pruned; (3) so, walking blocks
of T integers from the top, a block's prune is a function of that state,
and once a state repeats the prune repeats down to the lowest interior
candidate.  The build walks blocks until a state repeats, at O(|Y1|)
Python steps per candidate, and copies the repeating stretch down.  If
no state repeats within the window, every block is walked.  It then
reads D' out one class of C at a time, |C|/T of the window.

The verifiers check a window on bitmasks.  A window reads its elements
once: D sorted, and an int whose bit n - lo is 1 iff n is in D, for n
in [lo, hi], one Python step per element.  A window from build_witness
skips that step: the build converts its prune buffer, a byte per
candidate, into the int at C speed.  Each check cuts its stretch out of
that int, shifts it once per y in Y1, sums the shifts bit-sliced into
"reached" and "reached twice" masks and ANDs them with the classes of
C1, C2 or C tiled over the stretch.  They run only when the window
holds the stretch and is at most MASK_STRETCH times |D|*|Y1| integers
long, within a constant factor of the set-and-class walk they replace.
Other windows, as with a forged ``hi`` or ``T``, forged margins or a few
far-apart elements, take that walk, whose cost does not grow with the
window; it also names the failures when the bitmasks find one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from math import lcm
from typing import Optional

from .criteria import SUFFICIENT, Certificate, check_certificate
from .errors import CertificateInvalid, WindowTooSmall
from .residues import ResidueSubset, rotate
from .sets import CanonicalSet, Margins, lift_period, margins


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: tuple[str, ...] = ()
    first_uncovered: Optional[int] = None


@dataclass(frozen=True)
class WitnessWindow:
    """The window part of a minimal complement: its elements in
    ``d_elements``, ascending, with the certificate and margins they were
    built from.  It carries no minimality evidence of its own; each
    interior element's private target follows from the elements and Y1.
    The checks read D once per window, into ``_sorted`` and ``_present``;
    build_witness fills ``_present`` itself.
    """

    lo: int
    hi: int
    T: int
    c: ResidueSubset
    c1: ResidueSubset
    c2: ResidueSubset
    margins: Margins
    d_elements: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "T": self.T,
            "c": list(self.c.members()),
            "c1": list(self.c1.members()),
            "c2": list(self.c2.members()),
            "y_plus": self.margins.y_plus,
            "y_minus": self.margins.y_minus,
            "d_elements": list(self.d_elements),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WitnessWindow":
        T = d["T"]
        return cls(
            d["lo"],
            d["hi"],
            T,
            ResidueSubset.of(T, d["c"]),
            ResidueSubset.of(T, d["c1"]),
            ResidueSubset.of(T, d["c2"]),
            Margins(d["y_plus"], d["y_minus"]),
            tuple(d["d_elements"]),
        )

    @cached_property
    def _sorted(self) -> list[int]:
        return sorted(self.d_elements)

    @cached_property
    def _present(self) -> int:
        """Bit n - lo is 1 iff n is in D, for n in [lo, hi]."""
        return _indicator(self._sorted, self.lo, self.hi)


def _derive(
    s: CanonicalSet, cert: Certificate
) -> tuple[ResidueSubset, ResidueSubset, Margins]:
    """C1, C2 and the margins of a certificate re-verified at its lift."""
    if cert.T % s.m:
        raise CertificateInvalid(f"certificate modulus {cert.T} is not a multiple of {s.m}")
    ctx = lift_period(s, cert.T // s.m)
    if not check_certificate(ctx, cert):
        raise CertificateInvalid("certificate failed re-verification")
    c1 = cert.c.sumset(ctx.x_t)
    return c1, c1.complement(), margins(s)


def build_witness(
    s: CanonicalSet, cert: Certificate, lo: int, hi: int
) -> WitnessWindow:
    """Construct the window part of a minimal complement.

    The candidates are the integers of the C classes in the pool
    [lo - y_plus, hi - y_minus], the targets the integers of the C2
    classes in [lo, hi].  The candidates are pruned in descending order:
    an interior one (d + y_minus >= lo and d + y_plus <= hi) goes when
    every target it reaches keeps another unpruned candidate, and the
    others stay.  So every interior survivor keeps a target that no other
    survivor reaches.  Deterministic in all inputs.

    The prune walks blocks of T integers from the top, and the state of a
    block is an int: which of the span = max(Y1) - min(Y1) integers above
    it were removed.  By the three facts of the module docstring, once a
    state repeats, the removals between its two occurrences repeat down
    to the lowest interior candidate, so that stretch is copied down
    instead of walked.

    Cost: O(|Y1|) Python steps per candidate in the blocks walked until a
    state repeats (at most 2**span + 1 blocks); the copied rest costs a
    slice assignment, linear in the window.  When no state repeats, every
    block is walked.  D is then read out one class of C at a time, C-level
    work over |C|/T of the window, with one sort when |C| > 1.
    """
    if cert.variant != SUFFICIENT:
        raise CertificateInvalid("witness construction needs a sufficient-variant certificate")
    c1, c2, marg = _derive(s, cert)
    T = cert.T
    if hi - lo < 4 * (marg.y0_margin + T):
        raise WindowTooSmall(
            f"window [{lo}, {hi}] shorter than {4 * (marg.y0_margin + T)}"
        )
    if not c2:
        raise CertificateInvalid("no uncovered residue classes; condition (b) cannot hold")

    # Y1 is nonempty: condition (b) gives each member of C a target.
    y1, c_mask = s.y1, cert.c.mask
    span = y1[-1] - y1[0]
    base = lo - marg.y_plus  # the lowest candidate
    top, bottom = hi - marg.y_plus, lo - marg.y_minus  # interior ends
    size = hi - marg.y_minus - base + 1
    # kept[n - base] is 1 iff n is a candidate the prune has not removed
    kept = bytearray(bytes(c_mask >> (base + i) % T & 1 for i in range(T))
                     * (size // T + 1))[:size]
    _prune(kept, base, T, _block_rules(T, cert.c, c2, y1, top), span, top, bottom)
    rows = [compress(range(base + i, base + size, T), kept[i::T])
            for i in ((r - base) % T for r in cert.c.members())]
    w = WitnessWindow(lo, hi, T, cert.c, c1, c2, marg, tuple(
        rows[0] if len(rows) == 1 else sorted(chain(*rows))))
    # kept is D over the pool, which overlaps [lo, hi] as the window is
    # longer than the margins; fill _present's cache, which replace drops
    cut = kept[max(lo - base, 0):hi - base + 1][::-1]
    w.__dict__["_present"] = int(cut.translate(_DIGITS), 2) << max(base - lo, 0)
    return w


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _block_rules(T: int, c: ResidueSubset, c2: ResidueSubset,
                 y1: tuple[int, ...], top: int) -> list:
    """(p, rules) for each candidate of a block whose top is congruent to
    ``top``, top first; p is the candidate's offset from the block bottom.

    A candidate d has one rule per target d + y it reaches: the mask of
    bits j - 1 for its sources d + j above it (1 <= j <= span), and how
    many of those may be removed while the target keeps another source.
    """
    sources = [sum(c.mask >> (t - y) % T & 1 for y in y1) for t in range(T)]
    block = []
    for p in range(T - 1, -1, -1):
        r = (top + 1 + p) % T
        if c.mask >> r & 1:
            block.append((p, [
                (sum(1 << y - z - 1 for z in y1[:k]
                     if c.mask >> (r + y - z) % T & 1),
                 sources[(r + y) % T] - 2)
                for k, y in enumerate(y1) if c2.mask >> (r + y) % T & 1
            ]))
    return block


def _prune(kept: bytearray, base: int, T: int, block: list, span: int,
           top: int, bottom: int) -> None:
    """Clear in ``kept`` the interior candidates, [bottom, top], that the
    descending prune removes.

    Once a block state repeats, the removals between its two occurrences
    are copied down to ``bottom`` instead of walked.
    """
    seen: dict[int, int] = {}  # state -> the top of the block it was seen at
    state, d0 = 0, top
    while d0 >= bottom:
        if state in seen:
            period, n = seen[state] - d0, d0 + 1 - bottom
            cycle = kept[d0 + 1 - base:d0 + 1 + period - base]
            kept[bottom - base:d0 + 1 - base] = (cycle * (n // period + 1))[-n:]
            return
        seen[state] = d0
        low, x = d0 - T + 1, state << T  # bit n - low of x: n removed
        for p, rules in block:
            if low + p < bottom:
                break
            if all((x >> p + 1 & above).bit_count() <= slack
                   for above, slack in rules):
                x |= 1 << p
                kept[low + p - base] = 0
        state = x & (1 << span) - 1
        d0 -= T


def _safe_interval(w: WitnessWindow) -> tuple[int, int]:
    pad = w.margins.y0_margin + w.T
    return w.lo + pad, w.hi - pad


def verify_certificate(s: CanonicalSet, w: WitnessWindow) -> VerificationReport:
    """Re-derive what the window takes on trust from the set alone.

    T must be a multiple of m, (T, C) must pass condition (a) and the
    sufficient (b) at the lifted context, and C1, C2 and the margins must
    equal their values recomputed from C and the set.
    """
    try:
        derived = _derive(s, Certificate(w.T, w.c, SUFFICIENT))
    except CertificateInvalid as exc:
        return VerificationReport(False, (str(exc),))
    failures = tuple(
        f"{name} differs from its value recomputed from the set and C"
        for name, claimed, actual in zip(
            ("c1", "c2", "margins"), (w.c1, w.c2, w.margins), derived)
        if claimed != actual
    )
    return VerificationReport(not failures, failures)


#: The bitmask checks run when the window is at most this many times
#: |D|*|Y1| integers long, the count of sums the walk takes; not T, which
#: a record can forge.  Measured in-process over the witness-pool windows
#: on a 2-CPU host (Python 3.11), an integer costs the two checks' bitmasks
#: about 2.5 ns of word-level work, an element of D about 60 ns to read,
#: and a sum about 500 ns in the two walks, so at 16 the bitmasks cost at
#: most about a fifth of the walk.  The benchmark's witness-pool windows
#: reach at most 10; a forged ``hi`` or a sparse D goes far over.
MASK_STRETCH = 16


def _masks_fit(w: WitnessWindow, y1: tuple[int, ...], a: int, b: int) -> bool:
    """Whether the bitmasks check [a, b]: the window holds it and is at
    most MASK_STRETCH times |D|*|Y1| integers long."""
    return bool(y1) and w.lo <= a and b <= w.hi and w.hi - w.lo < (
        MASK_STRETCH * len(w.d_elements) * len(y1))


def _cut(w: WitnessWindow, a: int, b: int) -> int:
    """Bit n - a is 1 iff n is in D, for n in [a, b] within [lo, hi]."""
    return w._present >> a - w.lo & (1 << b - a + 1) - 1


def _indicator(ds: list[int], a: int, b: int) -> int:
    """Bit n - a is 1 iff n is in the sorted ``ds``, for n in [a, b]: the
    one Python step per element of the bitmask checks, writing base-2
    digits, most significant first."""
    digits = bytearray(b"0" * (b - a + 1))
    for v in ds[bisect_left(ds, a):bisect_right(ds, b)]:
        digits[b - v] = 49  # ord("1")
    return int(digits, 2)


def _pattern(mask: int, T: int, lo: int, width: int) -> int:
    """Bit n - lo is 1 iff bit n % T of ``mask`` is, for n in [lo, lo + width):
    the T-bit row from lo, doubled until it spans the width, in time
    linear in T + width (a repunit product divides in time T * width)."""
    x, n = rotate(mask & (1 << T) - 1, -lo, T), T
    while n < width:
        x |= x << n
        n *= 2
    return x & (1 << width) - 1


def _sources(indicator: int, y1: tuple[int, ...]) -> tuple[int, int]:
    """From the indicator of D over [a, b], the masks ``ones`` and ``twos``
    whose bit j is 1 iff at least one, and iff at least two, of the
    n - y (y in Y1) are in D, for n = a + max(Y1) + j: the |Y1| shifts of
    the indicator, summed bit-sliced.  Exact for n up to b + min(Y1),
    where every n - y lies in [a, b]; the bits above are undercounted."""
    ones = twos = 0
    for y in y1:
        x = indicator >> y1[-1] - y
        twos |= ones & x
        ones |= x
    return ones, twos


def verify_coverage(s: CanonicalSet, w: WitnessWindow) -> VerificationReport:
    """Confirm every integer in the safe inner window is reached.

    C1-residue integers must be reached through the periodic part,
    C2-residue integers through the exceptional offsets; the first
    uncovered integer is reported.

    The C1 side works per residue class: it tests the first integer of
    each class mod lcm(T, m) in the safe window against the least element
    of each class mod m below the end of that first stretch, found by a
    bisection: min(W, lcm(T, m)) * min(m, |D|) bit tests, W the safe
    window's length, at most T * m when m | T.  The other classes are
    checked on bitmasks: the integers that some d + y reaches, ANDed out
    of those classes tiled over the safe window, leave the uncovered
    ones, lowest first.  That costs the window's one read of D, if the
    other check has not made it, plus word-level work over at most
    MASK_STRETCH times |D|*|Y1| integers.

    When the window does not fit (see ``_masks_fit``), the check walks
    instead: the set of the |D|*|Y1| sums, and per class mod T the first
    integer not in it, up to the first class whose first integer is not
    reached: O(|D|*|Y1| + |C1|) steps, whatever the window length.
    """
    inner_lo, inner_hi = _safe_interval(w)
    if inner_lo > inner_hi:
        return VerificationReport(
            False, (f"safe interval [{inner_lo}, {inner_hi}] is empty",)
        )
    T, m, y1 = w.T, s.m, s.y1
    ds = w._sorted
    # Two integers of one class mod lcm(T, m) share the C1 test and the
    # classes of D that reach them, so only the first in the window counts.
    c1_end = min(inner_lo + lcm(T, m), inner_hi + 1)
    # n is reached through m*N + X iff some d <= n has (n - d) % m in X;
    # the least element of d's class mod m then works too.
    least: dict[int, int] = {}
    for d in reversed(ds[:bisect_left(ds, c1_end)]):
        least[d % m] = d
    width = inner_hi - inner_lo + 1
    a, b = inner_lo - max(y1, default=0), inner_hi - min(y1, default=0)
    uncovered = []
    for r in w.c1.members():
        for n in range(inner_lo + (r - inner_lo) % T, c1_end, T):
            if not any(d <= n and s.x_m.mask >> (n - d) % m & 1
                       for d in least.values()):
                uncovered.append(n)
                break
    if _masks_fit(w, y1, a, b):
        reached_mask = _sources(_cut(w, a, b), y1)[0]
        missed = _pattern(~w.c1.mask, T, inner_lo, width) & ~reached_mask
        if missed:
            uncovered.append(inner_lo + (missed & -missed).bit_length() - 1)
    else:
        reached = {d + y for d in w.d_elements for y in y1}
        for first in range(inner_lo, min(inner_lo + T, inner_hi + 1)):
            if not w.c1.mask >> first % T & 1:
                n = first
                while n in reached:
                    n += T
                if n <= inner_hi:
                    uncovered.append(n)
                    if n == first:  # later classes hold only larger ones
                        break

    if uncovered:
        n = min(uncovered)
        return VerificationReport(False, (f"uncovered integer {n}",), n)
    return VerificationReport(True)


def _minimal_by_masks(s: CanonicalSet, w: WitnessWindow,
                      inner_lo: int, inner_hi: int) -> bool:
    """Whether ``verify_local_minimality`` finds no failure, decided on
    bitmasks.

    The elements' classes are tested on the cut of D to the safe window
    widened by span = max(Y1) - min(Y1) on each side, and one by one for
    the few elements beyond it.  Every source of a sum d + y of an
    interior d lies in that stretch, so the reached-once and
    reached-twice masks are exact for those sums; the private ones are
    reached once and lie in a C2 class.  Shifting them back by each y in
    Y1 marks the elements that own one, and every interior element must
    be marked.
    """
    y1, T = s.y1, w.T
    span = y1[-1] - y1[0]
    ds = w._sorted
    a, b = inner_lo - span, inner_hi + span
    i, j = bisect_left(ds, a), bisect_right(ds, b)
    indicator = _cut(w, a, b)
    if indicator & ~_pattern(w.c.mask, T, a, b - a + 1) or not all(
            w.c.mask >> d % T & 1 for d in ds[:i] + ds[j:]):
        return False
    # bit k of ones, twos and private is about the sum a + max(Y1) + k
    ones, twos = _sources(indicator, y1)
    width = inner_hi - inner_lo + 1
    private = ones & ~twos & _pattern(w.c2.mask, T, a + y1[-1], width + span)
    owners = 0
    for y in y1:
        owners |= private << y1[-1] - y
    # bit k of the indicator and of owners is about the integer a + k
    return not (indicator & ~owners) >> span & (1 << width) - 1


def verify_local_minimality(s: CanonicalSet, w: WitnessWindow) -> VerificationReport:
    """Check each interior element owns a private target: some d + y (y in
    Y1) in a C2 class that no other element of D reaches.

    Complete on the window because a private target has a C2 residue, so
    no periodic-part sum from the C classes can reach it, and subtracting
    the finite exceptions enumerates every other candidate element.  The
    targets are not taken from the record but found from D and Y1.

    The checks run first on bitmasks (see ``_minimal_by_masks``): the
    window's one read of D, if coverage has not made it, and word-level
    work over the safe window widened by max(Y1) - min(Y1) on each side.
    When they find a failure, or the window does not fit, the walk below
    names every failure.  It collects the |D|*|Y1| sums d + y in sets of
    those reached once and twice, keeps the private ones, and marks their
    |Y1| possible owners: O(|D|*|Y1|) set operations and bit tests,
    whatever the window length; the bitmasks read at most MASK_STRETCH
    times |D|*|Y1| integers.  An empty safe interval fails, as it does for
    coverage, rather than passing with nothing checked.
    """
    inner_lo, inner_hi = _safe_interval(w)
    if inner_lo > inner_hi:
        return VerificationReport(
            False, (f"safe interval [{inner_lo}, {inner_hi}] is empty",)
        )
    y1 = s.y1
    span = y1[-1] - y1[0] if y1 else 0
    if (_masks_fit(w, y1, inner_lo - span, inner_hi + span)
            and _minimal_by_masks(s, w, inner_lo, inner_hi)):
        return VerificationReport(True)
    T, c_mask, c2_mask = w.T, w.c.mask, w.c2.mask
    if any(not c_mask >> r & 1 for r in {d % T for d in w.d_elements}):
        return VerificationReport(False, tuple(
            f"witness element {d} lies outside the certificate's classes"
            for d in w.d_elements if not c_mask >> d % T & 1
        ))
    # the sums d + y reached at least once, and at least twice, as in _sources
    d_set, ones, twos = set(w.d_elements), set(), set()
    for y in y1:
        sums = {d + y for d in d_set}
        twos |= ones & sums
        ones |= sums
    # d owns a private target iff d + y is one for some y in Y1
    owners = {n - y for n in ones - twos if c2_mask >> n % T & 1 for y in y1}
    failures = tuple(f"element {d} has no private target" for d in w.d_elements
                     if inner_lo <= d <= inner_hi and d not in owners)
    return VerificationReport(not failures, failures)
