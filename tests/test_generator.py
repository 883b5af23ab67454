import random
import time
from bisect import bisect_right

import pytest

from conftest import bounded_work, merge_runs, runs_contains
from minadd import generator
from minadd.cli import parse_slack_spec
from minadd.errors import MinaddError
from minadd.generator import (
    GeneratorReport,
    GeneratorState,
    _translates_at,
    generate,
    verify,
)

# The fixed base case d_1 = -1, c_1 = -3, W_1 = {1, ..., 12}, written out
# so the reference step does not start from generate's own.
BASE = GeneratorState((-1,), (-3,), ((1, 12),), ())


def extended(state, slack=1):
    """``state`` with one more step at ``slack``: its ``slack_seq`` and
    ``slack`` replayed through ``generate`` from the base case."""
    slacks = state.slack_seq + (slack,)
    return generate(state.steps + 1, lambda i: slacks[i - 2])


def test_initial_state():
    st = generate(1)
    assert st.d_seq == (-1,)
    assert st.c_seq == (-3,)
    assert st.runs == ((1, 12),)


def test_merge_runs():
    assert merge_runs([(1, 3), (5, 7), (4, 4)]) == ((1, 7),)
    assert merge_runs([(1, 2), (5, 6)]) == ((1, 2), (5, 6))
    assert merge_runs([]) == ()


def test_runs_contains():
    runs = ((1, 12), (14, 27))
    assert runs_contains(runs, 12) and runs_contains(runs, 14)
    assert not runs_contains(runs, 13) and not runs_contains(runs, 0)


def test_second_anchor():
    # W_1 + {-3} = {-2..9}; the largest missed negative is -3
    assert generate(2).d_seq[-1] == reference_next_d(generate(1)) == -3


def test_third_anchor():
    # W_2 + {-3, -14} covers {-13..24}
    assert generate(3).d_seq[-1] == reference_next_d(generate(2)) == -14


def test_choose_c_first_step():
    # bare inequality would allow -10, but the excluded point -c+d_1 must
    # clear the prefix maximum 12, forcing -14
    assert generate(2).c_seq[-1] == -14


def test_choose_c_second_step():
    # d_3 = -14 and c_2 = -14, so c_3 = -14 + 2*(-14) - 1
    assert generate(3).c_seq[-1] == -43


def test_step_two_prefix():
    st = generate(2)
    assert st.d_seq == (-1, -3)
    assert st.c_seq == (-3, -14)
    assert st.runs == ((1, 12), (14, 27))


def test_excluded_points_distinct_and_above_prefix():
    st = generate(1)
    for _ in range(8):
        prev_max = st.runs[-1][1]
        prev_c = st.c_seq[-1]
        st = extended(st)
        c_i = st.c_seq[-1]
        excluded = [-c_i + d for d in st.d_seq[:-1]]
        assert len(set(excluded)) == len(excluded)
        for p in excluded:
            assert prev_max < p
            assert -2 * prev_c < p <= -c_i - 1 < -2 * c_i - 1
            assert not runs_contains(st.runs, p)


def test_anchor_monotonicity():
    st = generate(20)
    for a, b in zip(st.d_seq, st.d_seq[1:]):
        assert b <= a - 2
    for a, b in zip(st.c_seq, st.c_seq[1:]):
        assert b < a


def test_gap_property():
    st = generate(12)
    for i in range(len(st.runs) - 1):
        assert st.runs[i + 1][0] - st.runs[i][1] == 2


def test_anchor_not_in_prior_sumset():
    st = generate(1)
    for _ in range(10):
        nxt = extended(st)
        d = nxt.d_seq[-1]
        assert not any(runs_contains(st.runs, d - c) for c in st.c_seq)
        st = nxt


def test_generate_one_is_initial():
    assert generate(1) == BASE


def test_generate_two():
    st = generate(2)
    assert st.d_seq == (-1, -3)
    assert st.c_seq == (-3, -14)


def test_verify_default_slack():
    st = generate(10)
    report = verify(st)
    assert report.gaps_ok and report.coverage_ok
    assert not report.uniqueness_failures


def test_verify_unique_representation_of_second_anchor():
    st = generate(4)
    # -3 = c + w admits only c_2 = -14 (then w = 11 is in the prefix)
    hits = [c for c in st.c_seq if runs_contains(st.runs, -3 - c)]
    assert hits == [-14]


def test_verify_rejects_short_prefix():
    with pytest.raises(MinaddError,
                       match="need at least two steps before verification"):
        verify(generate(1))


def random_slacks(rng, steps):
    """A slack sequence for ``steps`` steps, its slacks drawn up to a bound
    that is itself drawn from 1 to 10**6."""
    top = rng.choice((1, 2, 5, 10, 1000, 10**6))
    slacks = [rng.randint(1, top) for _ in range(steps - 1)]
    return lambda i: slacks[i - 2]


def test_varying_slack_breaks_small_periods():
    # Lemma (ii): for i >= 2 the run [-c_i, -c_{i+1} + d_i - 1] is maximal,
    # has at least |c_i| elements, and no later step touches it, so the
    # limit set has arbitrarily long runs between holes and no period.
    rng = random.Random(1802)
    for _ in range(150):
        k = rng.randint(3, 12)
        slack_fn = random_slacks(rng, k + 2)
        states = [generate(j, slack_fn) for j in (k, k + 1, k + 2)]
        d, c = states[0].d_seq, states[0].c_seq
        for i in range(1, k - 1):  # 0-based: i is step i + 1 >= 2
            run = (-c[i], -c[i + 1] + d[i] - 1)
            assert run[1] - run[0] + 1 >= -c[i]
            assert all(run in st.runs for st in states)


def test_windows_nest_and_exhaust():
    # Lemma (iii), fact (1): window N = [d_N, -c_{N-1} - 1] lies inside
    # window N + 1 with both ends moved out, so the windows exhaust Z.
    rng = random.Random(3702)
    for _ in range(150):
        k = rng.randint(3, 20)
        slack_fn = random_slacks(rng, k)
        windows = [(st.d_seq[-1], -st.c_seq[-2] - 1)
                   for st in (generate(n, slack_fn) for n in range(2, k + 1))]
        for (lo, hi), (next_lo, next_hi) in zip(windows, windows[1:]):
            assert next_lo < lo <= hi < next_hi


def test_a_step_only_adds():
    # Lemma (iii), fact (2): every run of generate(N) lies inside a run of
    # generate(N + 1), and the c's stay, so coverage found stays.
    rng = random.Random(3703)
    for _ in range(300):
        k = rng.randint(1, 20)
        slack_fn = random_slacks(rng, k + 1)
        st, nxt = generate(k, slack_fn), generate(k + 1, slack_fn)
        assert nxt.c_seq[:-1] == st.c_seq
        starts = [a for a, _ in nxt.runs]
        for a, b in st.runs:
            i = bisect_right(starts, a) - 1
            assert i >= 0 and b <= nxt.runs[i][1], (a, b)


def test_last_translate_covers_the_window_but_the_earlier_anchors():
    # Lemma (iii)'s coverage, integer by integer: on window N, n - c_N lies
    # in W_N for every n but the earlier anchors d_1, ..., d_{N-1}, and
    # each of those is reached through its own c_j.
    rng = random.Random(3704)
    for _ in range(40):
        k = rng.randint(2, 8)
        st = generate(k, lambda i: rng.randint(1, 5))
        d, c = st.d_seq, st.c_seq
        missed = [n for n in range(d[-1], -c[-2])
                  if not runs_contains(st.runs, n - c[-1])]
        assert missed == sorted(d[:-1])
        assert all(runs_contains(st.runs, d_j - c_j)
                   for d_j, c_j in zip(d, c))


def test_random_slacks():
    rng = random.Random(13)
    for _ in range(10):
        slacks = [rng.randint(1, 5) for _ in range(21)]
        st = generate(20, lambda i: slacks[i - 1])
        report = verify(st)
        assert report.gaps_ok and report.coverage_ok
        assert not report.uniqueness_failures


def reference_coverage(state):
    """Integer-by-integer coverage of [d_N, -c_{N-1} - 1] by prefix + c."""
    for n in range(state.d_seq[-1], -state.c_seq[-2]):
        if not any(runs_contains(state.runs, n - c) for c in state.c_seq):
            return False, n
    return True, None


def mutate(rng, state):
    """Drop a run or punch a hole into one, keeping d, c and slacks."""
    runs = list(state.runs)
    i = rng.randrange(len(runs))
    a, b = runs[i]
    if rng.random() < 0.5 and len(runs) > 1:
        del runs[i]
    elif b - a >= 2:
        p = rng.randint(a + 1, b - 1)
        runs[i:i + 1] = [(a, p - 1), (p + 1, b)]
    return GeneratorState(state.d_seq, state.c_seq, tuple(runs),
                          state.slack_seq)


def test_run_coverage_matches_reference():
    rng = random.Random(2017)
    uncovered = 0
    for k in range(2, 9):
        slacks = [rng.randint(1, 5) for _ in range(k + 1)]
        base = generate(k, lambda i: slacks[i])
        for trial in range(30):
            st = base if trial == 0 else mutate(rng, base)
            report = verify(st)
            want = reference_coverage(st)
            assert (report.coverage_ok, report.first_uncovered) == want
            assert report == reference_verify(st)
            uncovered += not want[0]
    assert uncovered > 0  # the mutations must exercise the failing branch


def reference_sumset_runs(state):
    """W_prefix + {c_1, ..., c_i} merged and sorted into maximal runs."""
    return merge_runs(
        [(a + c, b + c) for a, b in state.runs for c in state.c_seq]
    )


def reference_next_d(state):
    """Largest negative integer missed by the merged sumset's runs."""
    n = -1
    for a, b in reversed(reference_sumset_runs(state)):
        if n > b:
            break
        if n >= a:
            n = a - 1
    return n


SLACK_SPECS = ("const:1", "const:2", "cycle:1,2,3", "cycle:3,1,4,1,5")


def test_anchors_match_reference_on_random_slacks():
    # generate takes each anchor from lemma (a), without looking at the
    # sumset; the reference reads it off the merged sumset of the prefix.
    rng = random.Random(3601)
    for _ in range(300):
        k = rng.randint(2, 12)
        st = generate(k, random_slacks(rng, k))
        prefix = generate(k - 1, lambda i: st.slack_seq[i - 2])
        assert st.d_seq[-1] == reference_next_d(prefix), st.slack_seq


def test_guard_binds_only_at_step_two():
    # Lemma (i): from step 3 on, the rule's first term is the smaller, so
    # its guard term d_{i-1} - max W_{i-1} - 1 decides c_i at step 2 only.
    rng = random.Random(3602)
    bound_at = []
    for _ in range(300):
        k = rng.randint(2, 12)
        slack_fn = random_slacks(rng, k)
        prev = generate(1)
        for i in range(2, k + 1):
            st = generate(i, slack_fn)
            first = st.d_seq[-1] + 2 * prev.c_seq[-1] - slack_fn(i)
            guard = prev.d_seq[-1] - prev.runs[-1][1] - 1
            if guard < first:
                bound_at.append(i)
            prev = st
    assert set(bound_at) == {2}
    assert 0 < len(bound_at) < 300  # at step 2 it binds in some sequences


def assert_runs_contains_matches_members(runs):
    """Every integer from two below the first run to two above the last;
    the reference writes the runs out element by element."""
    members = {n for a, b in runs for n in range(a, b + 1)}
    span = range(runs[0][0] - 2, runs[-1][1] + 3)
    assert [runs_contains(runs, n) for n in span] == [n in members for n in span]


@pytest.mark.parametrize("spec", ["cycle:1,2,3"])
def test_runs_contains_matches_members(spec):
    # Only the test reference is checked here; the package's lookup is
    # test_one_point_windows_match_membership's.  One spec and nine
    # steps, about 30 000 integers, keep the reference honest.
    slack_fn = parse_slack_spec(spec)
    for k in range(1, 10):
        assert_runs_contains_matches_members(generate(k, slack_fn).runs)


def test_runs_contains_matches_members_on_mutated_states():
    rng = random.Random(4)
    for k in range(2, 9):
        base = generate(k, lambda i: rng.randint(1, 5))
        for _ in range(20):
            assert_runs_contains_matches_members(mutate(rng, base).runs)


@pytest.mark.parametrize("spec", SLACK_SPECS)
def test_generate_matches_reference(spec):
    # Each anchor of 25 steps under the spec, against the reference walk
    # over the sumset of the prefix before it.
    slack_fn = parse_slack_spec(spec)
    got = [generate(k, slack_fn) for k in range(1, 26)]
    for prefix, st in zip(got, got[1:]):
        assert st.d_seq[-1] == reference_next_d(prefix), (spec, st.steps)


def reference_step(state, slack=1):
    """The step as a generic union, its anchor read off the merged sumset
    and c_i by the paper's rule, with max W_{i-1} read off the prefix's
    top run: the excluded points are asserted to lie outside the prefix and
    inside the new interval, as lemma (i) says, and the new pieces are
    merged with all of the prefix runs."""
    d_i = reference_next_d(state)
    c_i = min(d_i + 2 * state.c_seq[-1] - slack,
              state.d_seq[-1] - state.runs[-1][1] - 1)
    lo, hi = -2 * state.c_seq[-1], -2 * c_i - 1
    excluded = sorted(-c_i + d_j for d_j in state.d_seq)
    pieces = list(state.runs)
    cur = lo
    for p in excluded:
        assert not runs_contains(state.runs, p) and lo < p <= -c_i - 1, p
        if cur <= p - 1:
            pieces.append((cur, p - 1))
        cur = p + 1
    if cur <= hi:
        pieces.append((cur, hi))
    runs = merge_runs(pieces)
    return GeneratorState(state.d_seq + (d_i,), state.c_seq + (c_i,), runs,
                          state.slack_seq + (slack,))


def reference_verify(state):
    """``verify`` on the merged sumset runs and by membership tests."""
    window_hi = -state.c_seq[-2] - 1
    gaps_ok = all(b[0] - a[1] == 2 for a, b in zip(state.runs, state.runs[1:]))
    n = state.d_seq[-1]
    for a, b in reference_sumset_runs(state):
        if a <= n <= b:
            n = b + 1
    failures = []
    for d_j, c_j in zip(state.d_seq, state.c_seq):
        hits = [c for c in state.c_seq if runs_contains(state.runs, d_j - c)]
        if hits != [c_j]:
            failures.append(f"anchor {d_j} reached via {hits}, expected [{c_j}]")
    return GeneratorReport(window_hi, gaps_ok,
                           None if n > window_hi else n, tuple(failures))


_cycles = random.Random(1703)
RANDOM_CYCLES = tuple(
    "cycle:" + ",".join(str(_cycles.randint(1, 9))
                        for _ in range(_cycles.randint(2, 6)))
    for _ in range(10))


def assert_generate_matches_reference_chain(slack_fn, steps):
    """generate(k) for k = 1..steps, and verify's report on each, equal
    the reference_step chain from BASE and reference_verify's reports."""
    got = [generate(k, slack_fn) for k in range(1, steps + 1)]
    reports = [verify(st) for st in got[1:]]
    want = [BASE]
    for i in range(2, steps + 1):
        want.append(reference_step(want[-1], slack_fn(i)))
    assert got == want
    assert reports == [reference_verify(st) for st in want[1:]]
    assert all(report.ok for report in reports)


@pytest.mark.parametrize("spec", SLACK_SPECS[:3] + RANDOM_CYCLES)
def test_step_appends_what_a_merge_gives(spec):
    assert_generate_matches_reference_chain(parse_slack_spec(spec), 40)


def test_step_matches_the_reference_on_large_slacks():
    # Slacks up to 10**6 move the excluded points far apart and far above
    # the prefix, where the spec slacks of 1 to 9 keep them close.
    rng = random.Random(3701)
    for _ in range(30):
        steps = rng.randint(2, 20)
        assert_generate_matches_reference_chain(random_slacks(rng, steps), steps)


def forge(rng, state, kind):
    """``state`` with its anchors or c's moved as a hand-written state might
    move them: d_seq shuffled (kind 0), one anchor repeated (1), one anchor
    moved below d_N or above the window (2), or c_seq shuffled (3)."""
    d_seq, c_seq = list(state.d_seq), list(state.c_seq)
    if kind == 0:
        rng.shuffle(d_seq)
    elif kind == 1:
        i, j = rng.sample(range(len(d_seq)), 2)
        d_seq[i] = d_seq[j]
    elif kind == 2:
        window_hi, off = -c_seq[-2] - 1, rng.randint(1, 5)
        d_seq[rng.randrange(len(d_seq) - 1)] = rng.choice(
            (d_seq[-1] - off, window_hi + off))
    else:
        rng.shuffle(c_seq)
    return GeneratorState(tuple(d_seq), tuple(c_seq), state.runs,
                          state.slack_seq)


def test_verify_matches_reference_on_forged_states(monkeypatch):
    # On a forged state an anchor can lie where the coverage walk never
    # probes: below d_N, above the window, above the uncovered integer
    # where the walk stops, or between two of its probes.  verify then
    # probes that anchor itself, and it still probes no integer twice.
    rng = random.Random(3407)
    probed = []

    def probing(runs, starts, c_seq, n):
        probed.append(n)
        return _translates_at(runs, starts, c_seq, n)

    monkeypatch.setattr(generator, "_translates_at", probing)
    unique_failed = uncovered = unreached = 0
    for k in range(2, 9):
        base = generate(k, lambda i: rng.randint(1, 5))
        for trial in range(24):
            st = forge(rng, base, trial % 4)
            for _ in range(trial % 3):
                st = mutate(rng, st)
            probed.clear()
            report = verify(st)
            assert len(probed) == len(set(probed))
            assert report == reference_verify(st)
            stop = (report.window_hi if report.coverage_ok
                    else report.first_uncovered)
            unreached += any(not st.d_seq[-1] <= d <= stop for d in st.d_seq)
            unique_failed += bool(report.uniqueness_failures)
            uncovered += not report.coverage_ok
    # 162, 27 and 96 of the 168 states: both of verify's paths run.
    assert unique_failed >= 100 and uncovered >= 10 and unreached >= 50


def test_swapped_runs_fail_the_gaps():
    # verify is exact when the runs ascend and are disjoint.  Its probes
    # bisect the run starts, so with two adjacent runs swapped they can
    # miss a run: generate(2) under slack 5 with its two runs swapped
    # reads -3 as uncovered.  Such a state still fails, on its gaps.
    rng = random.Random(4001)
    swapped_states = 0
    for k in range(2, 9):
        for _ in range(5):
            st = generate(k, lambda i: rng.randint(1, 5))
            for i in range(len(st.runs) - 1):
                runs = list(st.runs)
                runs[i], runs[i + 1] = runs[i + 1], runs[i]
                swapped = GeneratorState(st.d_seq, st.c_seq, tuple(runs),
                                         st.slack_seq)
                report = verify(swapped)
                assert not report.gaps_ok and not report.ok, swapped
                assert not reference_verify(swapped).ok
                swapped_states += 1
    assert swapped_states >= 400


def test_verify_reads_the_starts_off_the_runs(monkeypatch):
    # generate(3) with a hole punched at 29.  A state that carried its run
    # starts as a field could carry (1, 14, 14, 41, 43) here, and verify,
    # bisecting those, passed it; verify reads the true starts off the
    # runs, and they show -14 uncovered.
    st = generate(3)
    assert st.runs == ((1, 12), (14, 39), (41, 41), (43, 85))
    punched = GeneratorState(st.d_seq, st.c_seq,
                             ((1, 12), (14, 28), (30, 39), (41, 41), (43, 85)),
                             st.slack_seq)
    bisected = set()

    def probing(runs, starts, c_seq, n):
        bisected.add(tuple(starts))
        return _translates_at(runs, starts, c_seq, n)

    monkeypatch.setattr(generator, "_translates_at", probing)
    report = verify(punched)
    assert bisected == {(1, 14, 30, 41, 43)}
    assert report == reference_verify(punched)
    assert report.first_uncovered == -14
    assert report.uniqueness_failures == (
        "anchor -14 reached via [], expected [-43]",)


@pytest.mark.parametrize("spec", SLACK_SPECS)
def test_generate_replays_its_slacks(spec):
    # A construct record's slack_seq rebuilds its state through generate,
    # on every state the construct benchmark builds.
    slack_fn = parse_slack_spec(spec)
    for steps in range(1, 13):
        st = generate(steps, slack_fn)
        replayed = generate(st.steps, lambda i: st.slack_seq[i - 2])
        assert replayed == st


@pytest.mark.parametrize("slack", [1, 2, 3, 4])
def test_unguarded_choice_collides(slack):
    # Lemma (i) needs the rule's guard at step 2: without it, c_2 would be
    # d_2 + 2c_1 - slack and the excluded point -c_2 + d_1 would fall
    # inside W_1 = {1, ..., 12}.  With it, c_2 = d_1 - 12 - 1 and that
    # point lies above W_1.
    d_1, c_1, d_2 = BASE.d_seq[0], BASE.c_seq[0], reference_next_d(BASE)
    unguarded = d_2 + 2 * c_1 - slack
    assert runs_contains(BASE.runs, -unguarded + d_1)
    c_2 = generate(2, lambda i: slack).c_seq[-1]
    assert c_2 == d_1 - BASE.runs[-1][1] - 1 < unguarded
    assert -c_2 + d_1 > BASE.runs[-1][1]


def test_window_end():
    # verify checks the authoritative window [d_N, -c_{N-1} - 1], which
    # always holds an integer, so construct never checks an empty window.
    for steps in range(2, 13):
        st = generate(steps)
        report = verify(st)
        assert report.window_hi == -st.c_seq[-2] - 1 >= st.d_seq[-1]
        assert report.coverage_ok


def test_one_point_windows_match_membership():
    # The probe at every integer of the authoritative window, run ends and
    # starts of each translate included, and at each end of every
    # translate's span and one past it, so an off-by-one in a probe or in
    # its range test shows: it finds exactly the translate-runs of the
    # prefix that hold n.  Half the states list their c's shuffled, so the
    # range test is shown not to lean on c_seq decreasing.
    rng = random.Random(31)
    shuffled_states = 0
    for k in range(2, 7):
        base = generate(k, lambda i: rng.randint(1, 5))
        for trial in range(16):
            st = base if trial == 0 else mutate(rng, base)
            if trial % 2:
                c_seq = list(st.c_seq)
                rng.shuffle(c_seq)
                st = GeneratorState(st.d_seq, tuple(c_seq), st.runs,
                                    st.slack_seq)
                shuffled_states += c_seq != sorted(c_seq, reverse=True)
            w_min, w_max = st.runs[0][0], st.runs[-1][1]
            starts = [a for a, _ in st.runs]
            span_ends = {e for c in st.c_seq for e in (
                w_min + c - 1, w_min + c, w_max + c, w_max + c + 1)}
            for n in sorted({*range(st.d_seq[-1], -st.c_seq[-2]), *span_ends}):
                want = [(a + c, b + c, c) for c in st.c_seq
                        for a, b in st.runs if a <= n - c <= b]
                high = max((b for _, b, _ in want), default=n - 1)
                cs = [c for *_, c in want]
                got = _translates_at(st.runs, starts, st.c_seq, n)
                assert got == (high, cs)
    assert shuffled_states >= 30


def test_probes_bisect_only_translates_that_reach_them(monkeypatch):
    # The work of a probe, pinned as counts that repeat on any host:
    # generation takes its anchors from lemma (a) and bisects nothing, a
    # probe bisects only for the c's whose translate can reach it, and
    # verify probes each anchor once, reading the uniqueness check off the
    # coverage walk's probe there.  An anchor walk made generation's 28 and
    # 292 bisections at 12 and 100 steps.  One bisection per c per probe
    # made 132 and 300 bisections at 12 steps, and 9 900 and 20 100 at 100
    # steps; a second probe per anchor made verify's 186 and 10 394
    # bisections in 25 and 201 probes.
    calls = probes = 0

    def counting(a, x):
        nonlocal calls
        calls += 1
        return bisect_right(a, x)

    def probing(*args):
        nonlocal probes
        probes += 1
        return _translates_at(*args)

    monkeypatch.setattr(generator, "bisect_right", counting)
    slack_fn = parse_slack_spec("const:1")
    got, verify_probes = [], []
    for k in (12, 100):
        calls = 0
        st = generate(k, slack_fn)
        built = calls
        probes = 0
        with monkeypatch.context() as m:
            m.setattr(generator, "_translates_at", probing)
            assert verify(st).ok
        got.append((built, calls - built))
        verify_probes.append(probes)
    assert got == [(0, 99), (0, 5_247)]
    assert verify_probes == [13, 101]


def test_generate_and_verify_work_is_bounded():
    # Generation makes no probes, and verify probes each anchor once; an
    # anchor walk from -1 at every step ran over the budget.
    with bounded_work():
        assert verify(generate(80)).ok


def test_generate_keeps_no_run_starts():
    # generate keeps no run starts, while it builds or in the state, and
    # verify reads them off the runs.  generate(100) runs about 16 000
    # lines; extending a prefix object through a step function that
    # re-sorted each step's excluded points ran about 27 000, an anchor
    # walk with starts carried beside the runs about 55 000, and
    # rebuilding the starts at every step 221 505.
    with bounded_work(max_lines=20_000):
        st = generate(100)
    assert tuple(vars(st)) == ("d_seq", "c_seq", "runs", "slack_seq")


def test_generate_freezes_one_state(monkeypatch):
    # generate appends each step's runs to one list and builds one state at
    # the end.  A state per step copied the whole prefix, about i²/2 runs at
    # step i, at every step: cubic work in C-level tuple copies, which
    # bounded_work's line count does not see.
    built = []
    init = GeneratorState.__init__

    def counting(self, *args):
        init(self, *args)
        built.append(self.steps)

    monkeypatch.setattr(GeneratorState, "__init__", counting)
    generate(100, parse_slack_spec("cycle:1,2,3"))
    assert built == [100]  # the one built at the end


def test_full_authoritative_window_is_fast():
    st = generate(40)
    t0 = time.perf_counter()
    report = verify(st)
    elapsed = time.perf_counter() - t0
    assert report.ok and report.first_uncovered is None
    assert elapsed < 2.0


def test_determinism():
    a = generate(8, lambda i: 1 + (i % 2))
    b = generate(8, lambda i: 1 + (i % 2))
    assert a == b
