"""Inductive construction of a non-eventually-periodic set with a
minimal complement.

The construction keeps three sequences: excluded anchors d_i (the largest
negative integer the partial sumset misses), complement elements c_i, and
a growing prefix W_i of the target set, stored as maximal runs.  Each step
appends the interval [-2c_{i-1}, -2c_i - 1] minus the points -c_i + d_j,
which punches single-integer holes so consecutive elements always differ
by 1 or 2.  That interval starts inside or just past the prefix's top
run, and every excluded point lies above the prefix, so a step appends
its runs above the prefix, the first one extending the top run: the runs
stay sorted and disjoint without a merge.  A step thus only adds to the
prefix and to the c's, so the integers of (d_{i-1}, -1], all covered
when d_{i-1} was found, stay covered, and each anchor walk starts at
the previous anchor rather than at -1.  The free negative offset
("slack") in the choice of c_i is the injection point for breaking
eventual periodicity.

A ``GeneratorState`` holds four fields: d_seq, c_seq, the runs and the
slack of each step after the first.  ``generate`` is the one way to build
one from the base case.  The run starts, which every probe bisects, are
derived from the runs and no caller can pass them, so a state cannot
carry starts that disagree with its runs; ``generate`` hands over the
list it wrote beside the runs rather than read them off again.

``verify`` re-checks an N-step prefix on the one window its answer rests
on, [d_N, -c_{N-1} - 1]: the gaps, the coverage of that window, and the
unique representation of each anchor.  Non-periodicity belongs to the
limit set and is not something a finite prefix can show, so it is not
probed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .errors import ExclusionCollision, InvalidConstructParameter, PrefixTooShort

Runs = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class GeneratorState:
    """Prefix of the construction after len(d_seq) steps: the anchors,
    the c's, the prefix's runs and the slack of each step after the first.

    ``starts`` is read off ``runs`` once, so the two cannot disagree; it
    is no field, so it takes no part in equality or in the record.
    """

    d_seq: tuple[int, ...]
    c_seq: tuple[int, ...]
    runs: Runs
    slack_seq: tuple[int, ...]

    @property
    def steps(self) -> int:
        return len(self.d_seq)

    @cached_property
    def starts(self) -> tuple[int, ...]:
        """The run starts, which ``next_d`` and ``verify`` bisect."""
        return tuple(a for a, _ in self.runs)

    def to_dict(self) -> dict:
        return {
            "d_seq": list(self.d_seq),
            "c_seq": list(self.c_seq),
            "slack_seq": list(self.slack_seq),
            "runs": [list(r) for r in self.runs],
        }


class _Prefix:
    """A prefix under construction: the fields of a ``GeneratorState`` as
    lists, which ``_extend`` appends to in place, and the run starts beside
    the runs.  It starts from the fixed base case d_1 = -1, c_1 = -3,
    W_1 = {1, ..., 12}, and reads like a state to ``next_d`` and
    ``choose_c``."""

    __slots__ = ("d_seq", "c_seq", "runs", "slack_seq", "starts")

    def __init__(self):
        self.d_seq = [-1]
        self.c_seq = [-3]
        self.runs = [(1, 12)]
        self.slack_seq = []
        self.starts = [1]

    def freeze(self) -> GeneratorState:
        """The prefix as a state, whose ``starts`` are the ones ``_extend``
        appended beside the runs, handed over rather than read off again."""
        state = GeneratorState(
            tuple(self.d_seq),
            tuple(self.c_seq),
            tuple(self.runs),
            tuple(self.slack_seq),
        )
        state.__dict__["starts"] = tuple(self.starts)
        return state


def _translates_at(
    runs: Sequence[tuple[int, int]], starts: Sequence[int],
    c_seq: Sequence[int], n: int,
) -> tuple[int, int, list[int]]:
    """The runs of prefix + c, over c in c_seq, that contain n, as
    (low, high, cs): the lowest start and the highest end among them, and
    their c's in the order of c_seq.  When none holds n, low is n + 1,
    high is n - 1 and cs is empty.

    ``starts`` lists the run starts.  Exact when the runs are sorted and
    disjoint, as a step leaves them, for any order of c_seq.  A run
    holding n - c lies inside the prefix's span [min W, max W], read off
    the first and last run, so a c outside [n - max W, n - min W] is
    skipped without a bisection.  For any other c, the only run that can
    hold n - c is the last one starting at or below it, and one
    ``bisect_right`` finds it.
    """
    c_lo, c_hi = n - runs[-1][1], n - runs[0][0]
    low, high, cs = n + 1, n - 1, []
    for c in c_seq:
        if c_lo <= c <= c_hi:
            w = n - c
            a, b = runs[bisect_right(starts, w) - 1]
            if b >= w:
                if a + c < low:
                    low = a + c
                if b + c > high:
                    high = b + c
                cs.append(c)
    return low, high, cs


def next_d(state: GeneratorState | _Prefix, start: int) -> int:
    """Largest integer <= start missed by W_prefix + {c_1, ..., c_i}.

    This is the next anchor, the largest negative integer the sumset
    misses, whenever (start, -1] is covered; each step passes the
    previous anchor d_{i-1}, which qualifies because a step only adds to
    W and C: it refills from the top run's start and appends above it,
    so what was covered below zero stays covered.  Start -1 needs no
    such premise.

    Walks down from start without building the sumset: while n is
    covered, every integer from the lowest start of a translate-run
    holding n up to n is covered too, so the walk jumps to one below
    that start.  A probe bisects only for the c's whose translate can
    reach n, those with n - c in the prefix's span [min W, max W], in
    whatever order c_seq lists them; near an anchor that is about one or
    two of them.  From d_{i-1} the walk takes two probes per step on
    every slack tried; from -1 it takes about i.
    """
    runs, starts, c_seq = state.runs, state.starts, state.c_seq
    n = start
    while (low := _translates_at(runs, starts, c_seq, n)[0]) <= n:
        n = low - 1
    return n


def choose_c(state: GeneratorState | _Prefix, d_i: int, slack: int) -> int:
    """Next complement element.

    The first term keeps c_i strictly below d_i + 2*c_{i-1} (slack >= 1);
    the second keeps every excluded point -c_i + d_j above the current
    prefix maximum, which the bare inequality alone does not guarantee on
    the very first step.
    """
    if slack < 1:
        raise InvalidConstructParameter(f"slack must be >= 1, got {slack}")
    c_prev = state.c_seq[-1]
    d_prev = state.d_seq[-1]
    return min(d_i + 2 * c_prev - slack, d_prev - state.runs[-1][1] - 1)


def _extend(prefix: _Prefix, slack: int) -> None:
    """One induction step on ``prefix``, in place: extend d, c, and the
    prefix runs.

    The new interval [lo, hi] starts inside or just past the prefix's top
    run, and every excluded point lies above the prefix, so the pieces
    between consecutive excluded points are appended in order, the first
    one extending the top run.
    """
    d_i = next_d(prefix, prefix.d_seq[-1])
    c_i = choose_c(prefix, d_i, slack)
    c_prev = prefix.c_seq[-1]
    assert d_i <= prefix.d_seq[-1] - 2, "anchor sequence must drop by >= 2"

    lo, hi = -2 * c_prev, -2 * c_i - 1
    runs, starts = prefix.runs, prefix.starts
    top_lo, w_max = runs[-1]
    assert top_lo <= lo <= w_max + 1, "the new interval must meet the top run"
    excluded = sorted(-c_i + d_j for d_j in prefix.d_seq)
    assert len(set(excluded)) == len(excluded)
    if excluded[0] <= w_max:
        raise ExclusionCollision(
            f"excluded point {excluded[0]} already lies in the prefix"
        )
    if excluded[0] <= lo or excluded[-1] > -c_i - 1:
        raise ExclusionCollision(
            f"excluded points {excluded} not all in ({lo}, {-c_i - 1}]"
        )

    runs.pop()
    starts.pop()
    cur = top_lo
    for p in excluded:
        if cur <= p - 1:
            runs.append((cur, p - 1))
            starts.append(cur)
        cur = p + 1
    if cur <= hi:
        runs.append((cur, hi))
        starts.append(cur)
    prefix.d_seq.append(d_i)
    prefix.c_seq.append(c_i)
    prefix.slack_seq.append(slack)


def generate(
    k: int, slack_fn: Callable[[int], int] = lambda i: 1
) -> GeneratorState:
    """Run k induction steps from the base case; slack_fn(i) supplies the
    offset at step i.  This is the construction's one entry point:
    ``generate(1)`` is the base case, and a record's ``slack_seq`` replays
    as ``generate(len(d_seq), lambda i: slack_seq[i - 2])``.

    The steps extend one prefix in place, and one state is frozen at the
    end: building a state per step would copy the whole prefix, about
    i²/2 runs at step i, at every step."""
    if k < 1:
        raise InvalidConstructParameter(f"step count must be >= 1, got {k}")
    prefix = _Prefix()
    for i in range(2, k + 1):
        _extend(prefix, slack_fn(i))
    return prefix.freeze()


@dataclass(frozen=True)
class GeneratorReport:
    """What ``verify`` found on the window [d_N, window_hi]: whether the
    gaps are all 1 or 2, the least integer of the window that no
    translate covers (None when every one is covered), and the anchors
    that fail unique representation.  Coverage passes exactly when
    ``first_uncovered`` is None."""

    window_hi: int
    gaps_ok: bool
    first_uncovered: Optional[int]
    uniqueness_failures: tuple[str, ...]

    @property
    def coverage_ok(self) -> bool:
        return self.first_uncovered is None

    @property
    def ok(self) -> bool:
        return self.gaps_ok and self.coverage_ok and not self.uniqueness_failures

    def to_dict(self) -> dict:
        return {
            "window_hi": self.window_hi,
            "gaps_ok": self.gaps_ok,
            "coverage_ok": self.coverage_ok,
            "first_uncovered": self.first_uncovered,
            "uniqueness_failures": list(self.uniqueness_failures),
        }


def verify(state: GeneratorState) -> GeneratorReport:
    """Re-check everything the construction promises, on its prefix.

    (1) consecutive prefix elements differ by 1 or 2; (2) every integer
    of the window [d_N, -c_{N-1} - 1] is a prefix element plus some c;
    (3) each d_j is reachable from exactly the matching c_j.  The window
    ends at -c_{N-1} - 1, the authoritative bound of an N-step prefix:
    above it, coverage may rest on elements that later steps add.
    Eventual non-periodicity is a property of the limit set, which no
    finite prefix can certify, so it is not checked.

    Every check works on the prefix runs, never integer by integer.
    Coverage (2) walks up from d_N the way ``next_d`` walks down: while n
    is covered it jumps to one above the highest end of a translate-run
    holding n.  The walk builds no sumset and is exact because the runs
    are sorted and disjoint.  Each probe bisects only for the c's whose
    translate can reach n, those with n - c in the prefix's span
    [min W, max W], which holds for any order of c_seq, so a forged or
    mutated state is checked as exactly as a generated one.  Each probe
    but the last passes the end of at least one translate-run in the
    window.  Uniqueness (3) needs the c's of the translate-runs holding
    each d_j, and reads them off the walk's probe at d_j.  On a generated
    state the walk probes every anchor, so verify makes at most N + 1
    probes, where a second probe per anchor made 2N + 1.  An anchor the
    walk does not probe gets a probe of its own: on a forged state, one
    outside [d_N, window_hi], one above the uncovered integer where the
    walk stops, or one between two of its probes.  Each probe is exact
    wherever it lands, so the check stays exact on any state, and it
    reports its failures in d_seq order.
    """
    if state.steps < 2:
        raise PrefixTooShort("need at least two steps before verification")
    runs, starts, c_seq = state.runs, state.starts, state.c_seq
    window_hi = -c_seq[-2] - 1

    gaps_ok = all(
        runs[i + 1][0] - runs[i][1] == 2 for i in range(len(runs) - 1)
    )

    # n is the least integer of the window not yet known to be covered.
    # at_anchor keeps the c's the walk's probe found at each anchor.
    at_anchor = dict.fromkeys(state.d_seq)
    n = state.d_seq[-1]
    while n <= window_hi:
        _, high, cs = _translates_at(runs, starts, c_seq, n)
        if n in at_anchor:
            at_anchor[n] = cs
        if high < n:
            break
        n = high + 1

    uniqueness_failures = []
    for d_j, c_j in zip(state.d_seq, c_seq):
        cs = at_anchor[d_j]
        if cs is None:
            cs = at_anchor[d_j] = _translates_at(runs, starts, c_seq, d_j)[2]
        if cs != [c_j]:
            uniqueness_failures.append(
                f"anchor {d_j} reached via {cs}, expected [{c_j}]"
            )

    return GeneratorReport(
        window_hi,
        gaps_ok,
        None if n > window_hi else n,
        tuple(uniqueness_failures),
    )
