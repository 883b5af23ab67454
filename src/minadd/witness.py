"""Explicit windowed minimal-complement construction.

Given a sufficient-variant certificate (T, C), the residues split into
C1 = (C + X_T) mod T, covered through the periodic part, and its
complement C2, which only the finite exceptions can reach.  The witness
materializes the window part of a minimal complement D': all integers in
the C classes, greedily pruned in descending order until the remaining
elements form an irredundant cover of the C2-residue targets via the
exceptional offsets.  Each survivor keeps a *private target* — a covered
integer no other survivor can reach — which is the local evidence of
minimality.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional

from .criteria import SUFFICIENT, Certificate, check_certificate
from .errors import CertificateInvalid, WindowTooSmall
from .residues import ResidueSubset
from .sets import CanonicalSet, Margins, lift_period, margins


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: tuple[str, ...] = ()
    first_uncovered: Optional[int] = None


@dataclass(frozen=True)
class WitnessWindow:
    """The window part of a minimal complement, with minimality evidence.

    ``provenance`` maps each kept element to its private target, or None
    for elements kept only because their coverage footprint crosses the
    window boundary (pruning never touches those).
    """

    lo: int
    hi: int
    T: int
    c: ResidueSubset
    c1: ResidueSubset
    c2: ResidueSubset
    margins: Margins
    d_elements: tuple[int, ...]
    provenance: dict[int, Optional[int]]

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
            "provenance": {str(d): t for d, t in self.provenance.items()},
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
            {int(k): v for k, v in d["provenance"].items()},
        )


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

    Pipeline: compute C1/C2 at modulus T; collect the C2-residue targets
    in [lo, hi] and the candidate pool of C-class integers whose sums can
    reach them; prune candidates in descending order whenever the rest
    still covers every target through the exceptional offsets; record a
    private target for each survivor.  Deterministic in all inputs.
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

    targets = _class_integers(c2, lo, hi)
    pool = _class_integers(cert.c, lo - marg.y_plus, hi - marg.y_minus)

    target_set = set(targets)
    covers: dict[int, list[int]] = {}  # d -> targets it reaches
    count: dict[int, int] = {t: 0 for t in targets}
    for d in pool:
        reached = [d + y for y in s.y1 if d + y in target_set]
        covers[d] = reached
        for t in reached:
            count[t] += 1

    kept = set(pool)
    for d in sorted(pool, reverse=True):
        # Only prune elements whose whole footprint sits inside the window;
        # boundary elements stay to avoid edge artifacts.
        if d + marg.y_minus < lo or d + marg.y_plus > hi:
            continue
        if all(count[t] >= 2 for t in covers[d]):
            kept.discard(d)
            for t in covers[d]:
                count[t] -= 1

    provenance: dict[int, Optional[int]] = {}
    for d in sorted(kept):
        private = next((t for t in covers[d] if count[t] == 1), None)
        provenance[d] = private

    return WitnessWindow(
        lo, hi, T, cert.c, c1, c2, marg, tuple(sorted(kept)), provenance
    )


def _class_integers(classes: ResidueSubset, lo: int, hi: int) -> list[int]:
    """The integers of [lo, hi] whose residue lies in ``classes``, class
    by class."""
    T = classes.modulus
    out: list[int] = []
    for r in classes.members():
        out.extend(range(lo + (r - lo) % T, hi + 1, T))
    return out


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


def verify_coverage(s: CanonicalSet, w: WitnessWindow) -> VerificationReport:
    """Confirm every integer in the safe inner window is reached.

    C1-residue integers must be reached through the periodic part,
    C2-residue integers through the exceptional offsets; the first
    uncovered integer is reported.

    The check works per residue class: it visits the first integer of
    each class mod T in the safe window, and on the C1 side the first
    integer of each class mod lcm(T, m).  With W the safe window's length
    it takes O(|D|*|Y1| + min(W, T)) steps plus
    min(W, lcm(T, m)) * min(m, |D|) bit tests; on a record with m | T
    that is at most T * m tests, whatever the window length.
    """
    inner_lo, inner_hi = _safe_interval(w)
    if inner_lo > inner_hi:
        return VerificationReport(
            False, (f"safe interval [{inner_lo}, {inner_hi}] is empty",)
        )
    T, m = w.T, s.m
    # n is reached through m*N + X iff some d <= n has (n - d) % m in X;
    # the least element of d's class mod m then works too.
    least: dict[int, int] = {}
    for d in w.d_elements:
        if d < least.get(d % m, d + 1):
            least[d % m] = d
    reached = {d + y for d in w.d_elements for y in s.y1}
    # Two integers of one class mod lcm(T, m) share the C1 test and the
    # classes of D that reach them, so only the first in the window counts.
    c1_end = min(inner_lo + lcm(T, m), inner_hi + 1)
    uncovered = []
    for first in range(inner_lo, min(inner_lo + T, inner_hi + 1)):
        if w.c1.mask >> first % T & 1:
            for n in range(first, c1_end, T):
                if not any(d <= n and s.x_m.mask >> (n - d) % m & 1
                           for d in least.values()):
                    uncovered.append(n)
                    break
        else:
            n = first
            while n in reached:
                n += T
            if n <= inner_hi:
                uncovered.append(n)

    if uncovered:
        n = min(uncovered)
        return VerificationReport(False, (f"uncovered integer {n}",), n)
    return VerificationReport(True)


def verify_local_minimality(s: CanonicalSet, w: WitnessWindow) -> VerificationReport:
    """Check each interior element's private target is reachable only by it.

    Complete on the window because a private target has a C2 residue, so
    no periodic-part sum from the C classes can reach it, and subtracting
    the finite exceptions enumerates every other candidate element.

    Cost: O(|D|*|Y1|) set lookups plus one bit test per element on the
    T-bit masks of C and C2, whatever the window length hi - lo.
    """
    outside = tuple(
        f"witness element {d} lies outside the certificate's classes"
        for d in w.d_elements if not w.c.mask >> d % w.T & 1
    )
    if outside:
        return VerificationReport(False, outside)
    inner_lo, inner_hi = _safe_interval(w)
    d_set, y1 = set(w.d_elements), set(s.y1)
    failures = []
    for d in w.d_elements:
        if not inner_lo <= d <= inner_hi:
            continue
        n_d = w.provenance.get(d)
        if n_d is None:
            failures.append(f"element {d} has no private target")
            continue
        if not w.c2.mask >> n_d % w.T & 1:
            failures.append(f"target {n_d} of {d} is not in an uncovered class")
            continue
        if n_d - d not in y1:
            failures.append(f"element {d} does not reach its target {n_d}")
            continue
        for y in s.y1:
            other = n_d - y
            if other != d and other in d_set:
                failures.append(
                    f"target {n_d} of {d} is also reached by {other} + {y}"
                )
                break
    return VerificationReport(not failures, tuple(failures))
