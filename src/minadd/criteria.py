"""Covering/witness conditions and the certificate search.

A certificate for a set in canonical form is a working modulus T (a
multiple of the period) together with a subset C of Z_T such that

  (a) C + (X_T | Y1) covers every residue mod T, and
  (b) every c in C owns an exceptional sum c + y that no other element
      can reproduce.

Condition (b) comes in two strengths.  The *necessary* form (failure
refutes existence) asks that c + y escape C + X_T.  The *sufficient* form
(success proves existence) asks that c + y escape (C \\ {c}) + (X_T | Y1).
The decision engine scans the base and lifted moduli for a sufficient
certificate, and searches the necessary form only at the base modulus,
when the sufficient search there finds nothing.

Both forms are one count.  Sum the members' F-translates bit-sliced into
``ones`` (residues reached at least once) and ``twos`` (at least twice),
with F = X_T in the necessary form and F = X_T | Y1 in the sufficient
form.  A residue is *blocked* if it is in ``ones`` (necessary) or in
``twos`` (sufficient), and (b) holds iff every member's Y1 + c keeps an
unblocked residue; those residues are the member's *private mask*.  The
checker and both searches read (b) off this count.

The certificate search is one walk, ``_search_exhaustive``, complete at
every T.  It yields every valid C that contains 0, lazily, in
lexicographic order of the sorted element lists, so its first item is
the smallest valid C.  It adds each node to ``stats`` as it reaches it
and raises BudgetExceeded once it reaches more than its budget, which
can end it mid-enumeration.  ``find_certificate`` takes its first item
under NODE_BUDGET nodes: the lexicographically smallest valid C, or None
when no valid C exists at that T.  The walk is a lexicographic DFS over
the subsets that contain 0, forward-checked against (b).  Both forms of
(b) are antimonotone in C, so a candidate that fails next to the current
members is dropped from the whole subtree, and a full cover is valid as
soon as it is reached, as is every node below it.  A node keeps its
members, cover, ``ones``, ``twos``, survivors and ruled-out candidates
as T-bit masks, and derives a member's private mask only when a join
shrinks it.  It costs O(|Y1|) rotations to drop the candidates
whose own mask dies, O(min(|U|, |survivors|)) per cover test, and on a
join O(|Y1|) to find the members whose masks shrink plus O(|Y1|) for
each of them and for the joining element, where U is X_T | Y1; no table
indexed by T is built, and the path holds O(depth) masks.  Before its
first node a call builds only a few masks and Y1's residues, in O(|Y1|)
Python steps, and reverses F's row through T/8 bytes, so it holds
nothing larger than a mask and a T that the masks fit is searched; it
builds nothing on first use, as the cover test reads U off its mask.
``decide`` takes 3 130 nodes in all on the benchmark's 1 409 pool sets,
where testing (b) only at full covers took 10.6 M.

``decide`` runs it at the base modulus, in both forms, and at lifted
moduli up to EXHAUSTIVE_LIMIT.  Lifted moduli above the limit take a
cover-driven DFS in the sufficient form, under the same node budget.
There F = U, so a node's cover is its ``ones``; a child costs one
rotation and a full cover's (b) test one AND-NOT per member.  It is
complete too, so the limit picks which certificate is returned, never
the outcome.
"""

from __future__ import annotations

import time
from dataclasses import MISSING, dataclass, field
from enum import Enum
from itertools import count
from typing import Iterator, Optional

from .errors import BudgetExceeded, ModulusMismatch, ValidationError
from .residues import ResidueSubset, mask_members, reverse
from .sets import CanonicalSet, ConditionContext, lift_period

NECESSARY = "necessary"
SUFFICIENT = "sufficient"

#: Lifted moduli above this take the cover-driven search.  Both searches are
#: complete, so this picks the certificate, not the outcome.
EXHAUSTIVE_LIMIT = 24
#: Node budget of one search at one modulus, in either search.
NODE_BUDGET = 200_000


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

    ``subsets_examined`` counts search nodes: each subset the lexicographic
    walk reaches, which passes (b) by construction and is counted as it is
    reached, and each node the cover-driven search expands, over every
    modulus and variant searched.
    ``budget_exhausted`` is set when a search ran out of its budget;
    every other scan was complete.
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


# ``decide`` reads the members through these names: a read through the
# Enum class costs about 0.2 us on Python 3.11, a module global 20 ns.
_EXISTS, _NOT_EXISTS, _UNKNOWN = Outcome.EXISTS, Outcome.NOT_EXISTS, Outcome.UNKNOWN
_EMPTY_SET, _FINITE_SET, _QUASIPERIODIC = (
    Reason.EMPTY_SET, Reason.FINITE_SET, Reason.QUASIPERIODIC)
_NECESSARY_FAILED, _SEARCH_EXHAUSTED = Reason.NECESSARY_FAILED, Reason.SEARCH_EXHAUSTED
_AT_BASE, _AT_LIFT = Reason.CERTIFICATE_AT_BASE, Reason.CERTIFICATE_AT_LIFT


@dataclass(frozen=True, init=False)
class Verdict:
    """Decision output: does a minimal additive complement exist?

    ``modulus`` carries the working modulus at which the deciding event
    fired (the base modulus m for NECESSARY_FAILED, the certificate's T
    for the certificate reasons, t_max for SEARCH_EXHAUSTED).  Its
    constructor stores its arguments directly (see ``ResidueSubset``);
    ``stats`` left out is a fresh SearchStats.
    """

    outcome: Outcome
    reason: Reason
    modulus: Optional[int] = None
    certificate: Optional[Certificate] = None
    stats: SearchStats = field(default_factory=SearchStats)

    def __init__(self, outcome: Outcome, reason: Reason,
                 modulus: Optional[int] = None,
                 certificate: Optional[Certificate] = None,
                 stats: SearchStats = MISSING) -> None:
        d = self.__dict__
        d["outcome"] = outcome
        d["reason"] = reason
        d["modulus"] = modulus
        d["certificate"] = certificate
        d["stats"] = SearchStats() if stats is MISSING else stats

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
        raise ModulusMismatch(
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


# ---------------------------------------------------------------------------
# Exhaustive search (forward-checked lexicographic DFS over subsets with 0)


def _search_exhaustive(
    ctx: ConditionContext, variant: str, budget: int, stats: SearchStats
) -> Iterator[Certificate]:
    """Yield every valid C containing 0, in lexicographic order, lazily.

    Children append elements above the largest member, so the DFS meets
    subsets in lexicographic order of their sorted element lists.  A
    member's *private mask* is Y1 + c minus the residues that (b) blocks
    (see ``_cond_b``).  A node passes (b) iff every private mask is
    nonempty, and (b) is antimonotone: a candidate that fails next to the
    members fails next to every superset of them.  So a node carries as
    *survivors* only the candidates above its last member that can still
    join: j stays while j's own mask is nonempty and F + j empties no
    member's mask.  A node whose cover is full is then valid by
    construction, and so is every node below it: the walk yields it and
    goes on into its survivors.  It yields every valid C containing 0,
    because a dropped candidate lies in no valid superset, and the first
    one is the smallest.  Branching stops at the first survivor from which
    the survivors' cover cannot complete the node's, and a frame whose
    survivors are used up is popped.

    Every set below is a T-bit mask, and r + S (mod T) is read off the
    doubled mask S | S << T as ``>> (T - r)``.  A node keeps the members'
    F-translates summed bit-sliced into ``ones`` and ``twos``, and derives
    a private mask only when a join needs it.  The survivors of a node are
    its candidates minus two masks.  The candidates whose own mask dies
    are the AND of ones - y over y in Y1: X_T and Y1 are disjoint, so a
    joining k's own mask is Y1 + k minus ``ones`` in both forms.  The
    candidates that would empty a private mask p are ``ruled(p)``, the AND
    of t - F over the bits t of p; a node keeps the OR of ``ruled`` over
    its members, which only grows down a path, because private masks only
    shrink.  A joining k shrinks the masks of the members in B - Y1, where
    B holds the residues that k newly blocks; those masks, and k's own,
    are derived afresh.  The cover test at survivor k is U plus the
    survivors from k up, at min(|U|, |survivors|) rotations: the
    translates of U by the survivors, or of the survivors by U, each read
    off its mask.

    Before its first node a call builds the full mask, Y1's residues in
    |Y1| Python steps, the doubled masks of U, Y1 and F, and F's row
    reversed (``residues.reverse``, through T/8 bytes) and doubled;
    nothing else, and nothing on first use.  The two searches at T = m
    each build their own: the part they share costs less to build than to
    keep on the context.
    Cost per node: |Y1| rotations for the dying candidates,
    min(|U|, |survivors|) for each cover test, and on a join |Y1|
    rotations to find the members whose masks shrink (none when B is
    empty), then for each of them and for k one rotation to derive its
    mask and at most |Y1| to rule candidates out, with no table indexed by
    T.  The path holds one frame of six T-bit masks per node and nothing
    else.  The walk is complete, so when it yields nothing no valid C
    exists at this T.  Each node is added to ``stats`` as it is reached,
    so a caller that stops after an item has the nodes up to it counted,
    and node ``budget`` + 1 raises BudgetExceeded, which can end the walk
    after some items.
    """
    T = ctx.T
    full = (1 << T) - 1
    x_mask, y_mask = ctx.x_t.mask, ctx.y1_res.mask
    # 0 is in every C, so if it fails (b) alone no valid C exists
    if not y_mask:
        return
    necessary = variant == NECESSARY
    u_mask = x_mask | y_mask
    u_count = u_mask.bit_count()
    f_mask = x_mask if necessary else u_mask
    ys = mask_members(y_mask)
    u2, y2, f2 = u_mask | u_mask << T, y_mask | y_mask << T, f_mask | f_mask << T
    # F's row reversed puts f at bit T - 1 - f, so t - F (mod T) is the
    # doubled row >> (T - 1 - t), below bit T
    rf = reverse(f_mask, T)
    rf2 = rf | rf << T

    def ruled(p):
        # the j with p inside F + j
        acc = full
        while p:
            low = p & -p
            acc &= rf2 >> (T - low.bit_length())
            p ^= low
        return acc

    # the node {0}, whose private mask is all of Y1
    c_mask, cover, ones, twos = 1, u_mask, f_mask, 0
    ruled_or = ruled(y_mask)
    candidates = full ^ 1
    # one frame per node on the path: its survivors not yet branched on,
    # cover, ones, twos, OR of ruled, and members
    stack = []
    for examined in count(1):
        stats.subsets_examined += 1
        if examined > budget:
            raise BudgetExceeded(f"search exceeded {budget} nodes")
        if cover == full:
            # valid, and so is every node below it
            yield Certificate(T, ResidueSubset(T, c_mask), variant)
        o2 = ones | ones << T
        dead = full
        for y in ys:
            dead &= o2 >> y
        stack.append([candidates & ~dead & ~ruled_or,
                      cover, ones, twos, ruled_or, c_mask])
        while stack:
            frame = stack[-1]
            rest, cover, ones, twos, ruled_or, c_mask = frame
            # rest + U, as the translates of U by rest or of rest by U,
            # whichever set is smaller
            s, s2 = (rest, u2) if rest.bit_count() < u_count else (
                u_mask, rest | rest << T)
            reach = 0
            while s:
                low = s & -s
                reach |= s2 >> (T + 1 - low.bit_length())
                s ^= low
            if not rest or (cover | reach) & full != full:
                stack.pop()
                continue
            low = rest & -rest
            k = low.bit_length() - 1
            candidates = frame[0] = rest ^ low
            f_k = f2 >> (T - k) & full
            # the residues that k newly blocks, and k's own mask
            newly = f_k & (~ones if necessary else ones & ~twos)
            ruled_or |= ruled(y2 >> (T - k) & ~ones & full)
            twos |= ones & f_k
            ones |= f_k
            if newly:
                # the members whose masks lose a residue, in newly - Y1
                n2 = newly | newly << T
                shrunk = 0
                for y in ys:
                    shrunk |= n2 >> y
                shrunk &= c_mask
                unblocked = full & ~(ones if necessary else twos)
                while shrunk:
                    bit = shrunk & -shrunk
                    ruled_or |= ruled(y2 >> (T + 1 - bit.bit_length()) & unblocked)
                    shrunk ^= bit
            c_mask |= low
            cover |= u2 >> (T - k) & full
            break
        if not stack:
            return


# ---------------------------------------------------------------------------
# Cover-driven search (sufficient form, lifted moduli above EXHAUSTIVE_LIMIT)


def _search_heuristic(
    ctx: ConditionContext, budget: int, stats: SearchStats
) -> Optional[Certificate]:
    """Branch on preimages of the least uncovered residue, in the
    sufficient form.

    Complete within its budget.  Every valid C containing 0 holds some
    preimage r - u of the least residue r that the members leave
    uncovered, so some branch stays inside C until it reaches a full
    cover; that cover passes (b) because (b) is antimonotone.  So None
    means no valid C exists at this T, and exhausting the budget raises
    BudgetExceeded.  A hit is re-verified before it is returned.  The
    path can be as deep as T, so the DFS keeps an explicit stack of child
    iterators.  A node carries its members and their U-translates summed
    into ``ones`` and ``twos`` (see ``_cond_b``, with F = U).  Its cover
    C + U is ``ones``, so a child costs one rotation of a doubled mask and
    a full cover's (b) test one AND-NOT per member.
    """
    T = ctx.T
    full = (1 << T) - 1
    y_mask = ctx.y1_res.mask
    # 0 is in every C, so if it fails (b) alone no valid C exists
    if not y_mask:
        return None
    u_mask = ctx.x_t.mask | y_mask
    offsets = mask_members(u_mask)
    u2, y2 = (m | m << T for m in (u_mask, y_mask))

    def children(c_mask: int, ones: int, twos: int):
        uncovered = ~ones & full
        r = (uncovered & -uncovered).bit_length() - 1
        # any c with r in c + U, i.e. c in r - U
        for offset in offsets:
            c = (r - offset) % T
            if not c_mask >> c & 1:
                f = u2 >> (T - c) & full
                yield c_mask | 1 << c, ones | f, twos | ones & f

    def passes_b(c_mask: int, twos: int) -> bool:
        unblocked = full & ~twos
        return all(y2 >> (T - c) & unblocked for c in mask_members(c_mask))

    nodes = 0
    node = (1, u_mask, 0)
    stack = []
    try:
        while node is not None:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"search exceeded {budget} nodes")
            c_mask, ones, twos = node
            if ones != full:
                stack.append(children(*node))
            elif passes_b(c_mask, twos):
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
    cert = Certificate(T, ResidueSubset(T, node[0]), SUFFICIENT)
    if not check_certificate(ctx, cert):
        raise AssertionError("cover-driven search produced an invalid candidate")
    return cert


def find_certificate(
    ctx: ConditionContext,
    variant: str = SUFFICIENT,
    stats: Optional[SearchStats] = None,
) -> Optional[Certificate]:
    """The lexicographically smallest valid C at the context's modulus.

    The first item of the walk (``_search_exhaustive``), which yields
    every valid C containing 0 in lexicographic order and is complete at
    every T: that C, or None when no valid C exists.  The walk stops at
    its first item, whose nodes are in ``stats``; it raises BudgetExceeded
    when it reaches more than NODE_BUDGET nodes first.
    """
    if variant not in (NECESSARY, SUFFICIENT):
        raise ValueError(f"unknown variant {variant!r}")
    stats = stats if stats is not None else SearchStats()
    return next(_search_exhaustive(ctx, variant, NODE_BUDGET, stats), None)


def decide(s: CanonicalSet, cfg: Optional[SearchConfig] = None) -> Verdict:
    """Decide whether a minimal additive complement to the set exists.

    T = m, 2m, ... up to t_max is scanned for a sufficient certificate,
    which proves Exists.  When the search at T = m finds none, the
    necessary search runs there, and its finished miss is a sound
    NotExists.  It does not run after a hit: every C that passes the
    sufficient (b) passes the necessary one, so it could only hit too,
    which proves nothing.  No lifted modulus can refute what T = m does
    not, because the preimage of a necessary certificate at m passes (a)
    and the necessary (b) at every k*m (the lift lemma).  Both searches
    are complete, so Unknown means no sufficient certificate exists at
    any scanned T, unless ``stats.budget_exhausted`` is set: then some
    search ran out of its budget.

    The base modulus and lifted moduli up to EXHAUSTIVE_LIMIT take
    ``find_certificate``; lifted moduli above it take the cover-driven
    search (``_search_heuristic``), which has only the sufficient form.
    Both run under NODE_BUDGET nodes per modulus.

    A base sufficient search that runs out skips the necessary search at
    T = m, which could only hit or run out too.  Suppose the necessary
    search finishes with a miss.  Then every node of the sufficient tree
    is a node of the necessary tree.  Both trees have the same root, and
    a node's survivors are the candidates above its last member that can
    join it and keep (b); the sufficient (b) implies the necessary one,
    so the sufficient survivors are a subset of the necessary ones, and
    so is the reach of the survivors from any k up.  Where the sufficient
    search branches on k, the necessary one, which walks its whole tree,
    branches on k too.  A sufficient node with a full cover would be a
    necessary node with a full cover, which is a hit, so there is none,
    and the sufficient tree has no more nodes than the necessary one.  A
    sufficient run-out therefore means the necessary search could not
    have finished with a miss within the same budget.

    Each modulus costs the searches' nodes, summed in
    ``stats.subsets_examined``.  Unknown is a value, not an error.  A
    t_max below m leaves no modulus to scan, so it is refused with
    ValidationError rather than answered Unknown.
    """
    cfg = cfg or SearchConfig()
    m = s.m
    t_max = cfg.t_max if cfg.t_max is not None else 8 * m
    if t_max < m:
        raise ValidationError(
            f"t_max {t_max} is below the period {m}: no modulus to scan")
    stats = SearchStats()
    t0 = time.perf_counter()
    modulus = certificate = None
    if s.is_finite:
        # Finite nonempty sets always admit a minimal complement; no
        # certificate is produced on this branch.
        outcome, reason = (
            (_NOT_EXISTS, _EMPTY_SET) if s.is_empty else (_EXISTS, _FINITE_SET))
    elif not s.y1:
        outcome, reason = _NOT_EXISTS, _QUASIPERIODIC
    else:
        outcome, reason, modulus = _UNKNOWN, _SEARCH_EXHAUSTED, t_max
        for k in range(1, t_max // m + 1):
            T = k * m
            ctx = lift_period(s, k)
            try:
                if k > 1 and T > EXHAUSTIVE_LIMIT:
                    suf = _search_heuristic(ctx, NODE_BUDGET, stats)
                else:
                    suf = find_certificate(ctx, SUFFICIENT, stats)
                if (suf is None and k == 1
                        and find_certificate(ctx, NECESSARY, stats) is None):
                    outcome, reason, modulus = _NOT_EXISTS, _NECESSARY_FAILED, T
                    break
            except BudgetExceeded:
                stats.budget_exhausted = True
                suf = None
            if suf is not None:
                outcome, modulus, certificate = _EXISTS, T, suf
                reason = _AT_BASE if k == 1 else _AT_LIFT
                break
    stats.wall_time = time.perf_counter() - t0
    return Verdict(outcome, reason, modulus, certificate, stats)
