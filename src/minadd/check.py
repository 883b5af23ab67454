"""The certificate and its conditions: what a certificate is, and when it
is valid.

A certificate for a set in canonical form is a working modulus T (a
multiple of the period) together with a subset C of Z_T such that

  (a) C + (X_T | Y1) covers every residue mod T, and
  (b) every c in C owns an exceptional sum c + y that no other element
      can reproduce.

Condition (b) comes in two strengths.  The *necessary* form (failure
refutes existence) asks that c + y escape C + X_T.  The *sufficient* form
(success proves existence) asks that c + y escape (C \\ {c}) + (X_T | Y1).

Both forms are one count.  Sum the members' F-translates bit-sliced into
``ones`` (residues reached at least once) and ``twos`` (at least twice),
with F = X_T in the necessary form and F = X_T | Y1 in the sufficient
form.  A residue is *blocked* if it is in ``ones`` (necessary) or in
``twos`` (sufficient), and (b) holds iff every member's Y1 + c keeps an
unblocked residue; those residues are the member's *private mask*.  The
checker and both searches of ``criteria`` read (b) off this count.

This module imports only ``residues``, ``sets`` and ``errors``, so to
trust a certificate one reads it and those three, not the search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MinaddError
from .residues import ResidueSubset
from .sets import ConditionContext

NECESSARY = "necessary"
SUFFICIENT = "sufficient"


@dataclass(frozen=True, init=False)
class Certificate:
    """A (T, C) pair passing condition (a) and one variant of (b).

    Normalized so that 0 is in C; among all valid normalized subsets the
    search returns the one whose sorted element list is lexicographically
    smallest.  Its constructor stores its arguments directly (see
    ``ResidueSubset``).
    """

    T: int
    c: ResidueSubset
    variant: str

    def __init__(self, T: int, c: ResidueSubset, variant: str) -> None:
        d = self.__dict__
        d["T"] = T
        d["c"] = c
        d["variant"] = variant

    def to_dict(self) -> dict:
        return {"T": self.T, "c": list(self.c.members()), "variant": self.variant}


def cond_a(ctx: ConditionContext, c: ResidueSubset) -> bool:
    """Covering condition: C + (X_T | Y1) hits every residue mod T."""
    return c.sumset(ctx.x_t.union(ctx.y1_res)).is_full()


def _cond_b(ctx: ConditionContext, c: ResidueSubset, necessary: bool) -> bool:
    """Condition (b) for C, as one count of how often each residue is
    reached.

    The members' F-translates are summed bit-sliced: ``ones`` holds the
    residues that at least one F + c reaches and ``twos`` those that at
    least two reach, where F is X_T in the necessary form and X_T | Y1 in
    the sufficient form.  A residue is *blocked* if it is in ``ones``
    (necessary) or in ``twos`` (sufficient), and (b) holds iff every
    member's Y1 + c keeps an unblocked residue.  The sufficient case is
    exact because Y1 + c lies inside F + c: a residue of it that only one
    translate reaches is reached by c alone, so it escapes the translates
    of every other member.  Cost: 2|C| shifts of doubled masks, read
    below bit T only.
    """
    T = ctx.T
    if c.modulus != T:
        raise MinaddError(
            f"candidate modulus {c.modulus} does not match context T={T}")
    x_mask, y_mask = ctx.x_t.mask, ctx.y1_res.mask
    f_mask = x_mask if necessary else x_mask | y_mask
    f2, y2 = f_mask | f_mask << T, y_mask | y_mask << T
    members = c.members()
    ones = twos = 0
    for r in members:
        f = f2 >> (T - r)
        twos |= ones & f
        ones |= f
    unblocked = ~(ones if necessary else twos) & ((1 << T) - 1)
    return all(y2 >> (T - r) & unblocked for r in members)


def cond_b_necessary(ctx: ConditionContext, c: ResidueSubset) -> bool:
    """Every c in C has some y with c + y outside C + X_T (mod T)."""
    return _cond_b(ctx, c, True)


def cond_b_sufficient(ctx: ConditionContext, c: ResidueSubset) -> bool:
    """Every c in C has some y with c + y outside (C \\ {c}) + (X_T | Y1)."""
    return _cond_b(ctx, c, False)


def check_certificate(ctx: ConditionContext, cert: Certificate) -> bool:
    """Re-verify a certificate from scratch against its context."""
    if cert.T != ctx.T:
        return False
    b = cond_b_sufficient if cert.variant == SUFFICIENT else cond_b_necessary
    return cond_a(ctx, cert.c) and b(ctx, cert.c)
