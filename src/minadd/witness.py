"""Witnesses: a periodic minimal complement of W on all of Z, listed on a
window.

Lemma.  Let (T, C) pass condition (a) and the sufficient (b) at T, with
m | T and T > span(Y1) = max(Y1) - min(Y1).  Then D = C + T*Z is a
minimal complement of W.

Proof.  A sum in m*N + X or in Y0 has its class mod m in X, so mod T it
lies in X_T; a sum in Y1 lies in Y1 mod T.  Coverage: take n in Z.  By
(a), n = c + u (mod T) for some c in C and u in X_T | Y1.  If u is in
Y1, then n - u is in D, and n = (n - u) + u.  If u is in X_T, take the
elements d = c (mod T) of D, which run to -infinity, and one with
d <= n: then n - d >= 0, and (n - d) mod m = u mod m is in X since m | T,
so n - d is in m*N + X.  Minimality: take d in D, in the class c.  (b)
gives y in Y1 with c + y outside (C \\ {c}) + (X_T | Y1) mod T.  Suppose
d + y = d' + w with d' in D, d' != d and w in W.  If d' lies in another
class c' of C, then c + y = c' + w mod T with w mod T in X_T | Y1,
against (b).  If d' lies in the class c, then w - y = d - d' is a nonzero
multiple of T.  A w in m*N + X or Y0 would give y mod m in X, as m | T,
but Y1 lies outside X; and a w in Y1 has |w - y| <= span(Y1) < T.  So
d + y is private to d, D \\ {d} misses it, and D is minimal.

``build_witness`` turns a sufficient certificate (T, C) into one that
meets the lemma, (P', C') with m | P' and P' > span(Y1).  When
T > span(Y1) it is (T, C).  Otherwise it prunes the integers of the C
classes greedily from the top down: a candidate goes when every target it
reaches, an integer d + y (y in Y1) of a class of C2 = Z_T \\ (C + X_T),
keeps another source, a candidate in the target's class minus Y1.  A kept
candidate thus owns a target that no other survivor reaches, and no
target loses its last source.  A candidate's fate depends only on its
class mod T and on which of the span(Y1) integers above it were pruned,
so by blocks of T integers the prune is a function of that state.  The
walk starts with nothing pruned and stops at the first repeated state:
the blocks between the two occurrences, P integers with T | P, repeat
from there on down, and their survivors, counted from the cycle's
bottom, are D mod P.  (P', C') is that set tiled to P', the least
multiple of P above span(Y1).  It passes (a), since every class of C
keeps a survivor in each cycle: the private target c + y of c has all
its sources in the class c.  It passes the sufficient (b) at P', since a
survivor's private target sees only sources within span(Y1) of it, where
the periodic set agrees with the cycle, and P' > span(Y1) turns a second
source mod P' into a second source in Z.  The checks below re-test both.

The walk takes O(|Y1|) Python steps per candidate, in at most as many
blocks as the window [lo, hi] spans; a window that ends before a state
repeats raises WindowTooSmall.  No other bound is put on the window:
when T > span(Y1) nothing is walked, and every window builds, an empty
one (hi < lo) with an empty listing.  The record lists the lift
C' + P'*Z cut to [lo, hi] as ``d_elements``, in time linear in the
listing.

The checks read the record's (T, C) = (P', C') and listing, with the
conditions of ``check``; nothing here imports ``criteria``, the search:
``verify_certificate`` that m | T and the margins are the set's,
``verify_coverage`` condition (a) at T and that the listing is the cut,
``verify_local_minimality`` the sufficient (b) at T and T > span(Y1).
Passing all three proves, by the lemma, that the lift of (T, C) is a
minimal complement of W on all of Z, and that ``d_elements`` is its cut.
They cost the lift of the set to T and O(|C| * T / 64) word operations
for (a) and (b), plus O(|C|) Python steps and O(|D| + |C|) steps at C
speed for the listing, whatever the window's length.  A window that
``build_witness`` has just built lists the cut by construction, so its
coverage is checked by ``verify_condition_a``, the half of
``verify_coverage`` that reads no listing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count
from operator import ne

from .check import SUFFICIENT, Certificate, check_certificate, cond_a, cond_b_sufficient
from .errors import CertificateInvalid, WindowTooSmall
from .residues import ResidueSubset, tile
from .sets import (CanonicalSet, ConditionContext, Margins, lift_period, margins,
                   read_part)


@dataclass(frozen=True)
class VerificationReport:
    """What one check found wrong, one message per failure; it passes
    when there is none."""

    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {"ok": self.ok, "failures": list(self.failures)}


@dataclass(frozen=True)
class WitnessWindow:
    """A periodic certificate (T, C) whose lift C + T*Z is a minimal
    complement of W, with the margins of the set, and the lift's elements
    in [lo, hi] in ``d_elements``, ascending."""

    lo: int
    hi: int
    c: ResidueSubset
    margins: Margins
    d_elements: tuple[int, ...]

    @property
    def T(self) -> int:
        return self.c.modulus

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "T": self.T,
            "c": list(self.c.members()),
            "y_plus": self.margins.y_plus,
            "y_minus": self.margins.y_minus,
            "d_elements": list(self.d_elements),
        }

    @classmethod
    def from_dict(cls, d) -> "WitnessWindow":
        """The window that ``to_dict`` wrote as ``d``, as ``read_part``
        reads it.  A missing field, a non-integer, or a ``c`` that is not
        strictly ascending raises MinaddError, which ``verify-witness``
        reports with exit 2; ``d_elements`` may hold any integers in any
        order, since ``verify_coverage`` compares it with the lift."""
        lo, hi, T, y_plus, y_minus, c, d_elements = read_part(
            d, "lo hi T y_plus y_minus", "c", "d_elements")
        return cls(lo, hi, ResidueSubset.of(T, c), Margins(y_plus, y_minus),
                   tuple(d_elements))


def _lift(s: CanonicalSet, T: int) -> ConditionContext:
    if T % s.m:
        raise CertificateInvalid(f"certificate modulus {T} is not a multiple of {s.m}")
    return lift_period(s, T // s.m)


def build_witness(
    s: CanonicalSet, cert: Certificate, lo: int, hi: int
) -> WitnessWindow:
    """A periodic minimal complement from a sufficient certificate, listed
    on [lo, hi]; see the module docstring.  Deterministic in all inputs.

    The certificate is re-verified first.  Only a T up to span(Y1) walks
    the prune, in at most the window's (hi - lo + 1) // T blocks, and a
    window whose blocks end before the prune's state repeats raises
    WindowTooSmall.  So with T > span(Y1) every window builds, an empty
    one (hi < lo) with an empty listing; with T up to span(Y1) an empty
    window, which has no blocks, raises WindowTooSmall.
    """
    if cert.variant != SUFFICIENT:
        raise CertificateInvalid("witness construction needs a sufficient-variant certificate")
    ctx = _lift(s, cert.T)
    if not check_certificate(ctx, cert):
        raise CertificateInvalid("certificate failed re-verification")
    T = cert.T
    # (b) holds, so Y1 is nonempty
    span = s.y1[-1] - s.y1[0]
    P, mask = T, cert.c.mask
    if T <= span:
        c2 = cert.c.sumset(ctx.x_t).complement()
        P, mask = _steady_state(T, cert.c, c2, s.y1, max(0, (hi - lo + 1) // T))
    k = span // P + 1
    c = ResidueSubset(k * P, tile(mask, P, k))
    return WitnessWindow(lo, hi, c, margins(s), _lift_cut(c, lo, hi))


def _block_rules(T: int, c: ResidueSubset, c2: ResidueSubset,
                 y1: tuple[int, ...]) -> list:
    """(p, rules) for each candidate p of a block of the residues 0..T-1,
    top first.

    A candidate d has one rule per target d + y it reaches: the mask of
    bits j - 1 for its sources d + j above it (1 <= j <= span), and how
    many of those may be removed while the target keeps another source.
    """
    sources = [sum(c.mask >> (t - y) % T & 1 for y in y1) for t in range(T)]
    block = []
    for p in range(T - 1, -1, -1):
        if c.mask >> p & 1:
            block.append((p, [
                (sum(1 << y - z - 1 for z in y1[:k]
                     if c.mask >> (p + y - z) % T & 1),
                 sources[(p + y) % T] - 2)
                for k, y in enumerate(y1) if c2.mask >> (p + y) % T & 1
            ]))
    return block


def _steady_state(T: int, c: ResidueSubset, c2: ResidueSubset,
                  y1: tuple[int, ...], blocks: int) -> tuple[int, int]:
    """(P, mask): the period of the prune's steady state, and bit i of
    ``mask`` set iff the integer i above the bottom of a cycle survives.

    The prune walks blocks of T integers from the top, the state of a
    block being which of the span integers above it were removed; it
    stops at the first repeated state, or raises WindowTooSmall after
    ``blocks`` blocks.
    """
    block = _block_rules(T, c, c2, y1)
    low_span = (1 << y1[-1] - y1[0]) - 1
    seen: dict[int, int] = {}  # state -> the index of the block it was seen at
    rows = []  # per block, bit p set iff its integer p survives
    state = 0
    while state not in seen:
        if len(rows) == blocks:
            raise WindowTooSmall(
                f"the prune's state does not repeat within {blocks} blocks of {T}")
        seen[state] = len(rows)
        x = state << T  # bit i: the integer i above the block's bottom was removed
        for p, rules in block:
            if all((x >> p + 1 & above).bit_count() <= slack
                   for above, slack in rules):
                x |= 1 << p
        rows.append(c.mask & ~x)
        state = x & low_span
    cycle = rows[seen[state]:]
    mask = 0
    for row in cycle:  # top block first, so it ends at the top
        mask = mask << T | row
    return len(cycle) * T, mask


def _lift_cut(c: ResidueSubset, lo: int, hi: int) -> tuple[int, ...]:
    """The elements of C + T*Z in [lo, hi], ascending: with ``offsets``
    the n - lo of its elements n in [lo, lo + T), ascending, the k-th of
    them, for k = q * |C| + i, is lo + q * T + offsets[i]."""
    T = c.modulus
    offsets = sorted((r - lo) % T for r in c.members())
    size = 0
    if hi >= lo:
        periods, rest = divmod(hi - lo, T)
        size = len(offsets) * periods + bisect_right(offsets, rest)
    out = [0] * size
    for i, o in enumerate(offsets):
        out[i::len(offsets)] = range(lo + o, hi + 1, T)
    return tuple(out)


def _first_difference(ds: tuple[int, ...], cut: tuple[int, ...]) -> int:
    """The least integer at which the listing ``ds``, read in order, and
    ``cut``, a prefix of the lift's cut to [lo, hi] that is either the
    whole cut or longer than ``ds``, part: the first listed integer that
    is not the cut's next one, or the cut's next one if it is smaller or
    the listing has ended.  The pairs are compared at C speed.  Called
    only when the two differ."""
    i = next(compress(count(), map(ne, ds, cut)), min(len(ds), len(cut)))
    if i == len(ds):
        return cut[i]
    if i == len(cut):
        return ds[i]
    return min(ds[i], cut[i])


def verify_certificate(s: CanonicalSet, w: WitnessWindow) -> VerificationReport:
    """T is a multiple of m, and the margins are the set's."""
    failures = []
    if w.T % s.m:
        failures.append(f"certificate modulus {w.T} is not a multiple of {s.m}")
    if w.margins != margins(s):
        failures.append("margins differ from their values recomputed from the set")
    return VerificationReport(tuple(failures))


def verify_condition_a(s: CanonicalSet, w: WitnessWindow) -> VerificationReport:
    """Condition (a) at T, so the lift covers Z: the half of
    ``verify_coverage`` that reads no listing.  ``witness`` reports it
    alone, since the window ``build_witness`` just built lists the lift's
    cut by construction, and the listing half would compare that cut with
    itself."""
    try:
        ctx = _lift(s, w.T)
    except CertificateInvalid as exc:
        return VerificationReport((str(exc),))
    if not cond_a(ctx, w.c):
        return VerificationReport((f"condition (a) fails at T = {w.T}",))
    return VerificationReport()


def _verify_listing(w: WitnessWindow) -> VerificationReport:
    """``d_elements`` is exactly the lift's cut to [lo, hi]; C must be
    nonempty.

    The cut is built only over the first |D| // |C| + 1 periods from lo,
    more than |D| elements and at most |D| + |C|, and compared with the
    listing at C speed, so a forged ``hi`` costs nothing.
    """
    ds = w.d_elements
    periods = len(ds) // len(w.c) + 1
    cut = _lift_cut(w.c, w.lo, min(w.hi, w.lo + periods * w.T - 1))
    if ds == cut:
        return VerificationReport()
    n = _first_difference(ds, cut)
    return VerificationReport(
        (f"d_elements and the lift of (T, C) differ at {n}",))


def verify_coverage(s: CanonicalSet, w: WitnessWindow) -> VerificationReport:
    """Condition (a) at T, so the lift covers Z, and ``d_elements`` is
    exactly the lift's cut to [lo, hi]: ``verify_condition_a``, then,
    when it passes, the listing half.  A record read from a file needs
    both."""
    report = verify_condition_a(s, w)
    # (a) holds, so C is nonempty, as the listing half needs
    return _verify_listing(w) if report.ok else report


def verify_local_minimality(s: CanonicalSet, w: WitnessWindow) -> VerificationReport:
    """The sufficient (b) at T, and T > span(Y1): by the lemma of the
    module docstring, every element of the lift owns a private target.
    An empty C, which (b) passes with nothing to check, fails."""
    try:
        ctx = _lift(s, w.T)
    except CertificateInvalid as exc:
        return VerificationReport((str(exc),))
    failures = [] if w.c else ["the certificate has no classes"]
    if s.y1 and w.T <= s.y1[-1] - s.y1[0]:
        failures.append(f"T = {w.T} is not above span(Y1) = {s.y1[-1] - s.y1[0]}")
    if not cond_b_sufficient(ctx, w.c):
        failures.append(f"condition (b) fails at T = {w.T}")
    return VerificationReport(tuple(failures))
