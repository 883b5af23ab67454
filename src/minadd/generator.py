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

``verify`` re-checks an N-step prefix on the one window its answer rests
on, [d_N, -c_{N-1} - 1]: the gaps, the coverage of that window, and the
unique representation of each anchor.  Non-periodicity belongs to the
limit set and is not something a finite prefix can show, so it is not
probed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .errors import ExclusionCollision, InvalidConstructParameter, PrefixTooShort

Runs = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class GeneratorState:
    """Prefix of the construction after len(d_seq) steps.

    ``starts`` lists the run starts, which ``next_d`` and ``verify``
    bisect.  ``step`` carries it from state to state; left unset, it is
    read off ``runs``.  It is derived, so it takes no part in equality or
    in the record.
    """

    d_seq: tuple[int, ...]
    c_seq: tuple[int, ...]
    runs: Runs
    slack_seq: tuple[int, ...] = ()
    starts: Optional[tuple[int, ...]] = field(
        default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.starts is None:
            object.__setattr__(self, "starts", tuple(a for a, _ in self.runs))

    @property
    def steps(self) -> int:
        return len(self.d_seq)

    @property
    def w_max(self) -> int:
        return self.runs[-1][1]

    def to_dict(self) -> dict:
        return {
            "d_seq": list(self.d_seq),
            "c_seq": list(self.c_seq),
            "slack_seq": list(self.slack_seq),
            "runs": [list(r) for r in self.runs],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorState":
        return cls(
            tuple(d["d_seq"]),
            tuple(d["c_seq"]),
            tuple(tuple(r) for r in d["runs"]),
            tuple(d["slack_seq"]),
        )


def initial_state() -> GeneratorState:
    """Fixed base case: d_1 = -1, c_1 = -3, W_1 = {1, ..., 12}."""
    return GeneratorState((-1,), (-3,), ((1, 12),), (), (1,))


def _translates_at(
    runs: Runs, starts: Sequence[int], c_seq: Sequence[int], n: int
) -> list[tuple[int, int, int]]:
    """The runs of prefix + c, over c in c_seq, that contain n, each as
    (start, end, c), in the order of c_seq.

    ``starts`` lists the run starts.  Exact when the runs are sorted and
    disjoint, as ``step`` leaves them: then the only run that can hold
    n - c is the last one starting at or below it, and one
    ``bisect_right`` per c finds it.
    """
    hits = []
    for c in c_seq:
        i = bisect_right(starts, n - c) - 1
        if i >= 0 and runs[i][1] >= n - c:
            a, b = runs[i]
            hits.append((a + c, b + c, c))
    return hits


def next_d(state: GeneratorState, start: int) -> int:
    """Largest integer <= start missed by W_prefix + {c_1, ..., c_i}.

    This is the next anchor, the largest negative integer the sumset
    misses, whenever (start, -1] is covered; ``step`` passes the previous
    anchor d_{i-1}, which qualifies because a step only adds to W and C:
    it refills from the top run's start and appends above it, so what
    was covered below zero stays covered.  Start -1 needs no such
    premise.

    Walks down from start without building the sumset: while n is
    covered, every integer from the lowest start of a translate-run
    holding n up to n is covered too, so the walk jumps to one below
    that start.  Each probe costs one bisection per c.  From d_{i-1} the
    walk takes two probes per step on every slack tried; from -1 it
    takes about i.
    """
    n = start
    while hits := _translates_at(state.runs, state.starts, state.c_seq, n):
        n = min(a for a, _, _ in hits) - 1
    return n


def choose_c(state: GeneratorState, d_i: int, slack: int) -> int:
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
    return min(d_i + 2 * c_prev - slack, d_prev - state.w_max - 1)


def step(state: GeneratorState, slack: int = 1) -> GeneratorState:
    """One induction step: extend d, c, and the prefix runs.

    The new interval [lo, hi] starts inside or just past the prefix's top
    run, and every excluded point lies above the prefix, so the pieces
    between consecutive excluded points are appended in order, the first
    one extending the top run.
    """
    d_i = next_d(state, state.d_seq[-1])
    c_i = choose_c(state, d_i, slack)
    c_prev = state.c_seq[-1]
    assert d_i <= state.d_seq[-1] - 2, "anchor sequence must drop by >= 2"

    lo, hi = -2 * c_prev, -2 * c_i - 1
    top_lo, w_max = state.runs[-1][0], state.w_max
    assert top_lo <= lo <= w_max + 1, "the new interval must meet the top run"
    excluded = sorted(-c_i + d_j for d_j in state.d_seq)
    assert len(set(excluded)) == len(excluded)
    if excluded[0] <= w_max:
        raise ExclusionCollision(
            f"excluded point {excluded[0]} already lies in the prefix"
        )
    if excluded[0] <= lo or excluded[-1] > -c_i - 1:
        raise ExclusionCollision(
            f"excluded points {excluded} not all in ({lo}, {-c_i - 1}]"
        )

    runs, starts = list(state.runs[:-1]), list(state.starts[:-1])
    cur = top_lo
    for p in excluded:
        if cur <= p - 1:
            runs.append((cur, p - 1))
            starts.append(cur)
        cur = p + 1
    if cur <= hi:
        runs.append((cur, hi))
        starts.append(cur)

    return GeneratorState(
        state.d_seq + (d_i,),
        state.c_seq + (c_i,),
        tuple(runs),
        state.slack_seq + (slack,),
        tuple(starts),
    )


def generate(
    k: int, slack_fn: Callable[[int], int] = lambda i: 1
) -> GeneratorState:
    """Run k induction steps; slack_fn(i) supplies the offset at step i."""
    if k < 1:
        raise InvalidConstructParameter(f"step count must be >= 1, got {k}")
    state = initial_state()
    for i in range(2, k + 1):
        state = step(state, slack_fn(i))
    return state


@dataclass(frozen=True)
class GeneratorReport:
    """What ``verify`` found on the window [d_N, window_hi]."""

    window_hi: int
    gaps_ok: bool
    coverage_ok: bool
    first_uncovered: Optional[int]
    uniqueness_failures: tuple[str, ...]

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
    are sorted and disjoint.  Each probe costs one bisection per c, and
    each probe but the last passes the end of at least one translate-run
    in the window.  Uniqueness (3) takes the c of each translate-run
    holding d_j from the same probe.
    """
    if state.steps < 2:
        raise PrefixTooShort("need at least two steps before verification")
    runs, starts, c_seq = state.runs, state.starts, state.c_seq
    window_hi = -c_seq[-2] - 1

    gaps_ok = all(
        runs[i + 1][0] - runs[i][1] == 2 for i in range(len(runs) - 1)
    )

    # n is the least integer of the window not yet known to be covered.
    n = state.d_seq[-1]
    while n <= window_hi and (hits := _translates_at(runs, starts, c_seq, n)):
        n = max(b for _, b, _ in hits) + 1
    coverage_ok = n > window_hi
    first_uncovered = None if coverage_ok else n

    uniqueness_failures = []
    for d_j, c_j in zip(state.d_seq, c_seq):
        hits = [c for *_, c in _translates_at(runs, starts, c_seq, d_j)]
        if hits != [c_j]:
            uniqueness_failures.append(
                f"anchor {d_j} reached via {hits}, expected [{c_j}]"
            )

    return GeneratorReport(
        window_hi,
        gaps_ok,
        coverage_ok,
        first_uncovered,
        tuple(uniqueness_failures),
    )
