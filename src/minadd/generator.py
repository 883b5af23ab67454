"""Inductive construction of a non-eventually-periodic set with a
minimal complement.

The construction keeps three sequences: anchors d_i, complement elements
c_i, and a growing prefix W_i of the target set, stored as maximal runs.
It starts from d_1 = -1, c_1 = -3 and W_1 = {1, ..., 12}.  Step i >= 2
takes as d_i the largest negative integer that W_{i-1} + {c_1, ...,
c_{i-1}} misses, chooses

    c_i = min(d_i + 2c_{i-1} - s_i, d_{i-1} - max W_{i-1} - 1)

for a slack s_i >= 1, and appends to the prefix the interval
I_i = [-2c_{i-1}, -2c_i - 1] minus the excluded points
E_i = {-c_i + d_j : j < i}.  The slack is the free negative offset in the
choice of c_i, the injection point for breaking eventual periodicity.
Four facts about every slack sequence carry the code: (i) each step
appends above the prefix, (a) the anchors have a closed form, (ii) the
limit set is not eventually periodic, and (iii) {c_i} is a minimal
complement of it.  (ii) and (iii) together are the paper's second result.

Lemma (i).  At every step i >= 2, d_i <= d_{i-1} - 2; the points of E_i
are distinct and lie in (max W_{i-1}, -c_i - 1]; and I_i starts inside or
just past the top run of W_{i-1}.  So W_i is [1, max W_i] minus the
excluded points of steps 2 to i, and its runs are the gaps between those
points, in order: a step closes one run below each of its points and
never re-reads the prefix.  For i >= 3 the first term of c_i is the
smaller: the second, the guard, binds only at step 2.  For i >= 2 the
top run of W_i is [-c_i, -2c_i - 1], so max W_i = -2c_i - 1.

Lemma (a).  d_k = c_{k-1} for k <= 3, and d_k = c_{k-1} - c_{k-2} - 1
for k >= 4.

Proof of (i) and (a), together by induction on the step.  Step 2:
W_1 + c_1 = [-2, 9] and -3 - c_1 = 0 is not in W_1, so d_2 = -3 = c_1.
The guard makes c_2 <= d_1 - 12 - 1 = -14, so E_2's one point
-c_2 + d_1 = -c_2 - 1 >= 13 lies above W_1, inside I_2 = [6, -2c_2 - 1],
which meets the top run [1, 12].  So W_2 = [1, -c_2 - 2] | [-c_2, -2c_2 - 1].
Then d_3 = c_2: W_2 + c_1 holds [-2, 9] and W_2 + c_2 holds [c_2 + 1, -2],
while c_2 - c_1 < 1 and c_2 - c_2 = 0 miss W_2.  And d_3 <= -14 < d_2.

Step i >= 3, given both lemmas for the steps before it.  The top run of
W_{i-1} is [-c_{i-1}, -2c_{i-1} - 1], so I_i starts just past it.  The
guard term is d_{i-1} + 2c_{i-1}, above the first term since d_i < d_{i-1}
and s_i >= 1; so c_i = d_i + 2c_{i-1} - s_i, and each excluded point
-c_i + d_j = -2c_{i-1} + s_i + (d_j - d_i) is at least -2c_{i-1} + s_i + 2
and at most -c_i - 1, as d_j <= -1.  The d_j are distinct, and so are
these points.  The largest of them is -c_i - 1, so the top run of W_i is
[-c_i, -2c_i - 1].

The anchor after step i >= 3 is n = c_i - c_{i-1} - 1.  n is missed:
for j < i, n - c_j < 0, since c_i - c_{i-1} = d_i + c_{i-1} - s_i < c_j;
and n - c_i = -c_{i-1} + d_1, a point of E_{i-1}, which lies above
W_{i-2} and below I_i and every later interval.  (n, -1] is covered:
(d_i, -1] was covered by the previous prefix, and [n + 1, d_i] is c_i
plus [-c_{i-1}, -2c_{i-1} + s_i], the top run of W_{i-1} followed by the
start of I_i, which lies below E_i.  Finally d_{i+1} = d_i + c_{i-1} -
s_i - 1 <= d_i - 5.

Lemma (ii).  For i >= 2, the limit W = W_1 | W_2 | ... has the maximal
run [-c_i, -c_{i+1} + d_i - 1], with at least |c_i| elements, so W is
not eventually periodic.  Proof: the holes -c_i - 1 = -c_i + d_1 and
-c_{i+1} + d_i lie in E_i and E_{i+1}, and every later interval starts at
-2c_{i+1} or above, so they stay holes.  Between them lie the top run of
W_i and the part of I_{i+1} below E_{i+1}, with
|c_i| + (d_i - d_{i+1}) + s_{i+1} elements.  Were W periodic with period
P above some N, a hole above N would repeat every P integers, so no run
above it would have P elements; but |c_i| grows without bound.

Lemma (iii).  C = {c_1, c_2, ...} is a minimal complement of the limit
W.  Three facts carry it.  (1) The windows [d_N, -c_{N-1} - 1], N >= 2,
nest and exhaust Z: d_{N+1} <= d_N - 2 and -c_N - 1 > -c_{N-1} - 1, so
each end moves out by at least one integer per step.  (2) A step only
adds: W_N lies in W_{N+1} and c_1, ..., c_N stay in C, so an integer
that W_N + {c_1, ..., c_N} covers stays covered in W + C.
(3) No later step reaches an earlier anchor.
Proof.  Coverage: by (1) and (2) it is enough that W_N + {c_1, ..., c_N}
covers window N.  For n in it, n - c_N lies in I_N = [-2c_{N-1},
-2c_N - 1]: n - c_N >= d_N - c_N >= -2c_{N-1} + s_N by the first term of
c_N, and n - c_N <= -c_{N-1} - 1 - c_N <= -2c_N - 1.  So n - c_N is in
W_N unless it is an excluded point -c_N + d_j, that is, unless n = d_j
for some j < N; and d_j is covered by c_j, as d_1 - c_1 = 2 is in W_1
and, for j >= 2, d_j - c_j lies in I_j by the same bound and outside E_j,
since the anchors are distinct.  Minimality: each d_j is reached through
c_j alone, so C minus c_j misses d_j.  For i > j, d_j - c_i = -c_i + d_j
is a point of E_i: it lies above W_{i-1} by lemma (i), and every later
interval starts at -2c_i or above, so no step adds it.  For i < j,
d_j - c_i is missed by W_{j-1}, as lemma (a)'s anchor d_j is missed by
W_{j-1} + {c_1, ..., c_{j-1}}; and d_j - c_i <= -3 - c_{j-1} < max W_{j-1},
below everything a later step adds.  So each window's coverage and each
anchor's unique representation, which ``verify`` re-checks on an N-step
prefix, hold for the limit as well.

A ``GeneratorState`` holds four fields: d_seq, c_seq, the runs and the
slack of each step after the first.  ``generate`` is the one way to build
one from the base case.  The state holds no run starts: ``verify`` reads
them off the runs into a local list, which every probe bisects, so no
caller can pass starts that disagree with the runs.

``verify`` re-checks an N-step prefix on the one window its answer rests
on, [d_N, -c_{N-1} - 1]: the gaps, the coverage of that window, and the
unique representation of each anchor.  It checks what the prefix holds,
and does not read the lemmas, so a wrong anchor fails its coverage or
uniqueness check.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import MinaddError

Runs = tuple[tuple[int, int], ...]


@dataclass(frozen=True, init=False)
class GeneratorState:
    """Prefix of the construction after len(d_seq) steps: the anchors,
    the c's, the prefix's runs and the slack of each step after the first.

    Its constructor stores its arguments directly (see
    ``residues.ResidueSubset``), and ``to_dict`` hands the tuples to the
    JSON encoder as they are, which writes each as an array.
    """

    d_seq: tuple[int, ...]
    c_seq: tuple[int, ...]
    runs: Runs
    slack_seq: tuple[int, ...]

    def __init__(self, d_seq: tuple[int, ...], c_seq: tuple[int, ...],
                 runs: Runs, slack_seq: tuple[int, ...]) -> None:
        d = self.__dict__
        d["d_seq"] = d_seq
        d["c_seq"] = c_seq
        d["runs"] = runs
        d["slack_seq"] = slack_seq

    @property
    def steps(self) -> int:
        return len(self.d_seq)

    def to_dict(self) -> dict:
        return {
            "d_seq": self.d_seq,
            "c_seq": self.c_seq,
            "slack_seq": self.slack_seq,
            "runs": self.runs,
        }


def _translates_at(
    runs: Sequence[tuple[int, int]], starts: Sequence[int],
    c_seq: Sequence[int], n: int,
) -> tuple[int, list[int]]:
    """The runs of prefix + c, over c in c_seq, that contain n, as
    (high, cs): the highest end among them, and their c's in the order of
    c_seq.  When none holds n, high is n - 1 and cs is empty.

    ``starts`` lists the run starts.  Exact when the runs are sorted and
    disjoint, as a step leaves them, for any order of c_seq.  A run
    holding n - c lies inside the prefix's span [min W, max W], read off
    the first and last run, so a c outside [n - max W, n - min W] is
    skipped without a bisection.  For any other c, the only run that can
    hold n - c is the last one starting at or below it, and one
    ``bisect_right`` finds it.
    """
    c_lo, c_hi = n - runs[-1][1], n - runs[0][0]
    high, cs = n - 1, []
    for c in c_seq:
        if c_lo <= c <= c_hi:
            w = n - c
            b = runs[bisect_right(starts, w) - 1][1]
            if b >= w:
                if b + c > high:
                    high = b + c
                cs.append(c)
    return high, cs


def generate(
    k: int, slack_fn: Callable[[int], int] = lambda i: 1
) -> GeneratorState:
    """Run k induction steps from the base case; slack_fn(i) supplies the
    offset at step i.  This is the construction's one entry point:
    ``generate(1)`` is the base case, and a record's ``slack_seq`` replays
    as ``generate(len(d_seq), lambda i: slack_seq[i - 2])``.

    The loop follows the recurrences: d_i by lemma (a), c_i by the
    paper's rule with max W_{i-1} by lemma (i), and the runs as the gaps
    between the excluded points, which by lemma (i) each step places above
    the last step's.  So a step closes one run below each of its points,
    and the run above the last point stays open until the end.  One state
    is built at the end: a state per step would copy the whole prefix,
    about i²/2 runs at step i, at every step."""
    if k < 1:
        raise MinaddError(f"step count must be >= 1, got {k}")
    d, c, slacks, runs = [-1], [-3], [], []
    lo, top = 1, 12  # the open run's start, and max W_{i-1}
    for i in range(2, k + 1):
        slack = slack_fn(i)
        if slack < 1:
            raise MinaddError(f"slack must be >= 1, got {slack}")
        d_i = c[-1] if i <= 3 else c[-1] - c[-2] - 1
        c_i = min(d_i + 2 * c[-1] - slack, d[-1] - top - 1)
        assert top < -c_i + d[-1] and d_i <= d[-1] - 2, "lemma (i)"
        for d_j in reversed(d):
            runs.append((lo, -c_i + d_j - 1))
            lo = -c_i + d_j + 1
        d.append(d_i)
        c.append(c_i)
        slacks.append(slack)
        top = -2 * c_i - 1
    runs.append((lo, top))
    return GeneratorState(tuple(d), tuple(c), tuple(runs), tuple(slacks))


@dataclass(frozen=True, init=False)
class GeneratorReport:
    """What ``verify`` found on the window [d_N, window_hi]: whether the
    gaps are all 1 or 2, the least integer of the window that no
    translate covers (None when every one is covered), and the anchors
    that fail unique representation.  Coverage passes exactly when
    ``first_uncovered`` is None.  Its constructor and ``to_dict`` work
    as ``GeneratorState``'s do."""

    window_hi: int
    gaps_ok: bool
    first_uncovered: Optional[int]
    uniqueness_failures: tuple[str, ...]

    def __init__(self, window_hi: int, gaps_ok: bool,
                 first_uncovered: Optional[int],
                 uniqueness_failures: tuple[str, ...]) -> None:
        d = self.__dict__
        d["window_hi"] = window_hi
        d["gaps_ok"] = gaps_ok
        d["first_uncovered"] = first_uncovered
        d["uniqueness_failures"] = uniqueness_failures

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
            "uniqueness_failures": self.uniqueness_failures,
        }


def verify(state: GeneratorState) -> GeneratorReport:
    """Re-check everything the construction promises, on its prefix.

    (1) consecutive prefix elements differ by 1 or 2; (2) every integer
    of the window [d_N, -c_{N-1} - 1] is a prefix element plus some c;
    (3) each d_j is reachable from exactly the matching c_j.  The window
    ends at -c_{N-1} - 1, the authoritative bound of an N-step prefix:
    above it, coverage may rest on elements that later steps add.
    Non-periodicity belongs to the limit set, and lemma (ii) proves it for
    every slack sequence, so it is not checked here.

    Every check works on the prefix runs, never integer by integer.
    Coverage (2) walks up from d_N: while n is covered it jumps to one
    above the highest end of a translate-run holding n.  The walk builds
    no sumset.  Each probe bisects only for the c's whose translate can
    reach n, those with n - c in the prefix's span [min W, max W], which
    holds for any order of c_seq.  Each probe but the last passes the end
    of at least one translate-run in the window.  Uniqueness (3) needs the
    c's of the translate-runs holding each d_j, and reads them off the
    walk's probe at d_j.  On a generated state the walk probes every
    anchor, so verify makes at most N + 1 probes, where a second probe per
    anchor made 2N + 1.  An anchor the walk does not probe gets a probe of
    its own: on a forged state, one outside [d_N, window_hi], one above
    the uncovered integer where the walk stops, or one between two of its
    probes.  The failures are reported in d_seq order.

    Every check is exact when the runs ascend and are disjoint, as
    ``generate`` leaves them, whatever d_seq and c_seq hold: a forged
    anchor, a shuffled c_seq, a dropped run or a punched hole is checked
    as exactly as a generated state.  The probes bisect the run starts,
    so on runs that do not ascend they can miss a run, and
    ``first_uncovered`` and ``uniqueness_failures`` may be wrong there.
    Such a state still fails: where a run (a', b') follows a run (a, b)
    with a' < a <= b, a' - b is negative, not 2, so ``gaps_ok`` is False,
    and so is ``ok``.  The order is not checked apart, so a generated
    state pays nothing for it.
    """
    if state.steps < 2:
        raise MinaddError("need at least two steps before verification")
    runs, c_seq = state.runs, state.c_seq
    window_hi = -c_seq[-2] - 1

    # Each run starts two past the end of the run before it.
    starts = [a for a, _ in runs]
    gaps_ok = starts[1:] == [b + 2 for _, b in runs[:-1]]

    # n is the least integer of the window not yet known to be covered.
    # at_anchor keeps the c's the walk's probe found at each anchor.
    at_anchor = dict.fromkeys(state.d_seq)
    n = state.d_seq[-1]
    while n <= window_hi:
        high, cs = _translates_at(runs, starts, c_seq, n)
        if n in at_anchor:
            at_anchor[n] = cs
        if high < n:
            break
        n = high + 1

    uniqueness_failures = []
    for d_j, c_j in zip(state.d_seq, c_seq):
        cs = at_anchor[d_j]
        if cs is None:
            cs = at_anchor[d_j] = _translates_at(runs, starts, c_seq, d_j)[1]
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
