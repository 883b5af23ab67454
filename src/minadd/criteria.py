"""Covering/witness conditions and the certificate search.

A certificate for a set in canonical form is a working modulus T (a
multiple of the period) together with a subset C of Z_T such that

  (a) C + (X_T | Y1) covers every residue mod T, and
  (b) every c in C owns an exceptional sum c + y that no other element
      can reproduce.

Condition (b) comes in two strengths.  The *necessary* form (failure
refutes existence) asks that c + y escape C + X_T.  The *sufficient* form
(success proves existence) asks that c + y escape (C \\ {c}) + (X_T | Y1).
The decision engine checks the necessary form once, at the base modulus,
and then scans lifted moduli for a sufficient certificate.

Up to EXHAUSTIVE_LIMIT the search at one modulus is complete: a
lexicographic DFS over the subsets that contain 0, forward-checked
against (b).  Both forms of (b) are antimonotone in C, so a candidate
that fails next to the current members is dropped from the whole
subtree, each node carries one private mask per member, and a full cover
is valid as soon as it is reached.  A node costs O(|survivors| *
|members|) mask operations, and the benchmark's 1 409 pool sets take
4 511 nodes in all, where testing (b) only at full covers took 10.6 M.
Above the limit a budgeted cover-driven heuristic can only prove
existence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import BudgetExceeded, ModulusMismatch, ValidationError
from .residues import ResidueSubset, mask_members, rotate
from .sets import CanonicalSet, ConditionContext, lift_period

NECESSARY = "necessary"
SUFFICIENT = "sufficient"

#: Moduli up to this are scanned completely; above it only the heuristic runs.
EXHAUSTIVE_LIMIT = 24
#: Node budget of one heuristic search.
HEURISTIC_BUDGET = 200_000


@dataclass(frozen=True)
class Certificate:
    """A (T, C) pair passing condition (a) and one variant of (b).

    Normalized so that 0 is in C; among all valid normalized subsets the
    search returns the one whose sorted element list is lexicographically
    smallest.
    """

    T: int
    c: ResidueSubset
    variant: str

    def to_dict(self) -> dict:
        return {"T": self.T, "c": list(self.c.members()), "variant": self.variant}

    @classmethod
    def from_dict(cls, d: dict) -> "Certificate":
        return cls(d["T"], ResidueSubset.of(d["T"], d["c"]), d["variant"])


@dataclass
class SearchConfig:
    """The search bound: ``decide`` scans T = m, 2m, ... up to t_max.

    t_max defaults to 8 * m when unset.
    """

    t_max: Optional[int] = None


@dataclass
class SearchStats:
    """Counters of one ``decide`` or ``find_certificate`` call.

    ``subsets_examined`` counts search nodes: each subset the complete
    search reaches, which passes (b) by construction, and each node the
    heuristic expands, over every modulus and variant searched.
    """

    subsets_examined: int = 0
    wall_time: float = 0.0
    budget_exhausted: bool = False

    def to_dict(self) -> dict:
        return {
            "subsets_examined": self.subsets_examined,
            "wall_time": self.wall_time,
            "budget_exhausted": self.budget_exhausted,
        }


class Outcome(Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not-exists"
    UNKNOWN = "unknown"


class Reason(Enum):
    EMPTY_SET = "empty-set"
    FINITE_SET = "finite-set"
    QUASIPERIODIC = "quasiperiodic"
    NECESSARY_FAILED = "necessary-condition-failed"
    CERTIFICATE_AT_BASE = "certificate-at-base-period"
    CERTIFICATE_AT_LIFT = "certificate-at-lifted-period"
    SEARCH_EXHAUSTED = "search-exhausted"


@dataclass(frozen=True)
class Verdict:
    """Decision output: does a minimal additive complement exist?

    ``modulus`` carries the working modulus at which the deciding event
    fired (the base modulus m for NECESSARY_FAILED, the certificate's T
    for the certificate reasons, t_max for SEARCH_EXHAUSTED).
    """

    outcome: Outcome
    reason: Reason
    modulus: Optional[int] = None
    certificate: Optional[Certificate] = None
    stats: SearchStats = field(default_factory=SearchStats)

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "reason": self.reason.value,
            "modulus": self.modulus,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "stats": self.stats.to_dict(),
        }


# ---------------------------------------------------------------------------
# Condition predicates


def _check_modulus(ctx: ConditionContext, c: ResidueSubset) -> None:
    if c.modulus != ctx.T:
        raise ModulusMismatch(
            f"candidate modulus {c.modulus} does not match context T={ctx.T}"
        )


def cond_a(ctx: ConditionContext, c: ResidueSubset) -> bool:
    """Covering condition: C + (X_T | Y1) hits every residue mod T."""
    return c.sumset(ctx.x_t.union(ctx.y1_res)).is_full()


def _cond_b(members, rot_y, rot_f, necessary: bool) -> bool:
    """Condition (b) for the subset C of Z_T listed by ``members``.

    ``rot_y[r]`` is Y1 + r and ``rot_f[r]`` is F + r as masks mod T, for
    each member r, where F is X_T in the necessary form and X_T | Y1 in
    the sufficient form.  Every c in C must have some c + y outside the
    union of F + c' over all c' in C (necessary) or over all c' != c
    (sufficient).  The masks are nonnegative, so ``rot_y[r] & ~f`` has no
    bits outside Z_T.
    """
    if necessary:
        cover = 0
        for r in members:
            cover |= rot_f[r]
        return all(rot_y[r] & ~cover for r in members)
    # forbidden for member i = union of rot_f over all other members
    suf = [0] * (len(members) + 1)
    for i in range(len(members) - 1, -1, -1):
        suf[i] = suf[i + 1] | rot_f[members[i]]
    pre = 0
    for i, r in enumerate(members):
        if not rot_y[r] & ~(pre | suf[i + 1]):
            return False
        pre |= rot_f[r]
    return True


class _Rotations(dict):
    """mask + r (mod T) for each residue r looked up, computed once."""

    def __init__(self, mask: int, T: int) -> None:
        super().__init__()
        self.mask, self.T = mask, T

    def __missing__(self, r: int) -> int:
        rot = self[r] = rotate(self.mask, r, self.T)
        return rot


def cond_b_necessary(ctx: ConditionContext, c: ResidueSubset) -> bool:
    """Every c in C has some y with c + y outside C + X_T (mod T)."""
    _check_modulus(ctx, c)
    return _cond_b(c.members(), _Rotations(ctx.y1_res.mask, ctx.T),
                   _Rotations(ctx.x_t.mask, ctx.T), True)


def cond_b_sufficient(ctx: ConditionContext, c: ResidueSubset) -> bool:
    """Every c in C has some y with c + y outside (C \\ {c}) + (X_T | Y1)."""
    _check_modulus(ctx, c)
    u = ctx.x_t.mask | ctx.y1_res.mask
    return _cond_b(c.members(), _Rotations(ctx.y1_res.mask, ctx.T),
                   _Rotations(u, ctx.T), False)


def check_certificate(ctx: ConditionContext, cert: Certificate) -> bool:
    """Re-verify a certificate from scratch against its context."""
    if cert.T != ctx.T:
        return False
    b = cond_b_sufficient if cert.variant == SUFFICIENT else cond_b_necessary
    return cond_a(ctx, cert.c) and b(ctx, cert.c)


# ---------------------------------------------------------------------------
# Exhaustive search (forward-checked lexicographic DFS over subsets with 0)


def _search_exhaustive(
    ctx: ConditionContext, variant: str, stats: SearchStats
) -> Optional[Certificate]:
    """Find the lexicographically smallest valid C containing 0, or None.

    Children append elements above the largest member, so the DFS meets
    subsets in lexicographic order of their sorted element lists.  Each
    member keeps a *private mask*: Y1 + c minus the F-translates of the
    members that can reach it, F + c itself included in the necessary
    form.  A node passes (b) iff every private mask is nonempty, and (b)
    is antimonotone: a candidate that fails next to the members fails
    next to every superset of them.  So a node carries as *survivors* only
    the candidates above its last member that can still join.  A child k
    ANDs ~(F + k) into each private mask, appends its own, and keeps a
    later survivor j while j's own mask stays nonempty and F + j covers
    no member's mask.  A node whose cover is full is then valid by
    construction, and the first one reached is the smallest valid C,
    because a dropped candidate lies in no valid superset.  Branching
    stops at the first survivor from which the survivors' cover cannot
    complete the node's.

    Cost: O(|survivors| * |members|) mask operations per node.  The scan
    is complete, so None means no valid C exists at this T.
    """
    T = ctx.T
    full = (1 << T) - 1
    x_mask, y_mask = ctx.x_t.mask, ctx.y1_res.mask
    u_mask = x_mask | y_mask
    necessary = variant == NECESSARY
    rot_u = [rotate(u_mask, r, T) for r in range(T)]
    rot_y = [rotate(y_mask, r, T) for r in range(T)]
    rot_f = [rotate(x_mask, r, T) for r in range(T)] if necessary else rot_u
    # k's private mask once it joins is own[k] minus the members' F + c
    own = [y & ~f for y, f in zip(rot_y, rot_f)] if necessary else rot_y

    def children(node):
        members, cover, or_f, private, candidates = node
        survivors = [j for j in candidates if own[j] & ~or_f
                     and all(p & ~rot_f[j] for p in private)]
        # reach[i]: the cover that survivors i, i + 1, ... can still add
        reach = [0] * (len(survivors) + 1)
        for i in range(len(survivors) - 1, -1, -1):
            reach[i] = reach[i + 1] | rot_u[survivors[i]]
        for i, k in enumerate(survivors):
            if cover | reach[i] != full:
                return
            yield (members + [k], cover | rot_u[k], or_f | rot_f[k],
                   [p & ~rot_f[k] for p in private] + [own[k] & ~or_f],
                   survivors[i + 1:])

    # a node: (members, cover, OR of F + c, private masks, candidates);
    # 0 is in every C, so if it fails (b) alone no valid C exists
    node = ([0], rot_u[0], rot_f[0], [own[0]], range(1, T)) if own[0] else None
    examined = 0
    stack = []
    while node is not None:
        examined += 1
        if node[1] == full:
            break
        stack.append(children(node))
        node = None
        while stack and node is None:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
    stats.subsets_examined += examined
    if node is None:
        return None
    return Certificate(T, ResidueSubset.of(T, node[0]), variant)


# ---------------------------------------------------------------------------
# Heuristic search (cover-driven DFS for large T)


def _search_heuristic(
    ctx: ConditionContext, variant: str, budget: int, stats: SearchStats
) -> Optional[Certificate]:
    """Branch on preimages of the least uncovered residue.

    Sound for existence only: any hit is re-verified before being
    returned; exhausting the budget raises BudgetExceeded.  The path can
    be as deep as T, so the DFS keeps an explicit stack of child
    iterators, and a rotation is computed the first time it is needed.
    """
    T = ctx.T
    full = (1 << T) - 1
    u_mask = ctx.x_t.mask | ctx.y1_res.mask
    if not u_mask:
        return None
    offsets = mask_members(u_mask)
    necessary = variant == NECESSARY
    rot_u = _Rotations(u_mask, T)
    rot_y = _Rotations(ctx.y1_res.mask, T)
    rot_f = _Rotations(ctx.x_t.mask, T) if necessary else rot_u

    def children(c_mask: int, cover: int):
        uncovered = ~cover & full
        r = (uncovered & -uncovered).bit_length() - 1
        # any c with r in c + U, i.e. c in r - U
        for offset in offsets:
            c = (r - offset) % T
            if not c_mask >> c & 1:
                yield c_mask | 1 << c, cover | rot_u[c]

    nodes = 0
    node = (1, u_mask)
    stack = []
    try:
        while node is not None:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"heuristic search exceeded {budget} nodes")
            c_mask, cover = node
            if cover != full:
                stack.append(children(c_mask, cover))
            elif _cond_b(mask_members(c_mask), rot_y, rot_f, necessary):
                break
            node = None
            while stack and node is None:
                node = next(stack[-1], None)
                if node is None:
                    stack.pop()
    finally:
        stats.subsets_examined += nodes
    if node is None:
        return None
    cert = Certificate(T, ResidueSubset(T, node[0]), variant)
    if not check_certificate(ctx, cert):
        raise AssertionError("heuristic search produced an invalid candidate")
    return cert


def find_certificate(
    ctx: ConditionContext,
    variant: str = SUFFICIENT,
    stats: Optional[SearchStats] = None,
) -> Optional[Certificate]:
    """Search for a valid C at the context's modulus.

    Up to EXHAUSTIVE_LIMIT the scan is complete, forward-checked against
    (b) (see ``_search_exhaustive``): it returns the lexicographically
    smallest valid C, and None means no valid C exists.  Above it the
    heuristic runs under HEURISTIC_BUDGET nodes, and None (or
    BudgetExceeded) only means "not found".
    """
    if variant not in (NECESSARY, SUFFICIENT):
        raise ValueError(f"unknown variant {variant!r}")
    stats = stats if stats is not None else SearchStats()
    if ctx.T <= EXHAUSTIVE_LIMIT:
        return _search_exhaustive(ctx, variant, stats)
    return _search_heuristic(ctx, variant, HEURISTIC_BUDGET, stats)


def decide(s: CanonicalSet, cfg: Optional[SearchConfig] = None) -> Verdict:
    """Decide whether a minimal additive complement to the set exists.

    The necessary condition is searched once, at T = m (when m <=
    EXHAUSTIVE_LIMIT): a complete miss there is a sound NotExists.  No
    lifted modulus can refute what T = m does not, because the preimage
    of a necessary certificate at m passes (a) and the necessary (b) at
    every k*m (the lift lemma).  Then T = m, 2m, ... up to t_max is
    scanned for a sufficient certificate, which proves Exists; past
    EXHAUSTIVE_LIMIT only heuristic proofs remain.  Up to the limit a
    modulus costs the forward-checked scan's nodes, summed in
    ``stats.subsets_examined``, at O(|survivors| * |members|) mask
    operations each.  Unknown is a value, not an error.  A t_max below m
    leaves no modulus to scan, so it is refused with ValidationError
    rather than answered Unknown.
    """
    cfg = cfg or SearchConfig()
    t_max = cfg.t_max if cfg.t_max is not None else 8 * s.m
    if t_max < s.m:
        raise ValidationError(
            f"t_max {t_max} is below the period {s.m}: no modulus to scan")
    stats = SearchStats()
    t0 = time.perf_counter()

    def done(outcome, reason, modulus=None, certificate=None):
        stats.wall_time = time.perf_counter() - t0
        return Verdict(outcome, reason, modulus, certificate, stats)

    if s.is_empty:
        return done(Outcome.NOT_EXISTS, Reason.EMPTY_SET)
    if s.is_finite:
        # Finite nonempty sets always admit a minimal complement; no
        # certificate is produced on this branch.
        return done(Outcome.EXISTS, Reason.FINITE_SET)
    if not s.y1:
        return done(Outcome.NOT_EXISTS, Reason.QUASIPERIODIC)

    k = 1
    while k * s.m <= t_max:
        T = k * s.m
        ctx = lift_period(s, k)
        if (k == 1 and T <= EXHAUSTIVE_LIMIT
                and find_certificate(ctx, NECESSARY, stats) is None):
            return done(Outcome.NOT_EXISTS, Reason.NECESSARY_FAILED, T)
        try:
            suf = find_certificate(ctx, SUFFICIENT, stats)
        except BudgetExceeded:
            stats.budget_exhausted = True
            suf = None
        if suf is not None:
            reason = (
                Reason.CERTIFICATE_AT_BASE if k == 1 else Reason.CERTIFICATE_AT_LIFT
            )
            return done(Outcome.EXISTS, reason, T, suf)
        k += 1
    return done(Outcome.UNKNOWN, Reason.SEARCH_EXHAUSTED, t_max)
