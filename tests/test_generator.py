import random
import time

import pytest

from conftest import bounded_work, merge_runs, runs_contains
from minadd import generator
from minadd.cli import parse_slack_spec
from minadd.errors import ExclusionCollision, PrefixTooShort
from minadd.generator import (
    GeneratorReport,
    GeneratorState,
    _translates_at,
    choose_c,
    generate,
    initial_state,
    next_d,
    step,
    verify,
)


def test_initial_state():
    st = initial_state()
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
    assert next_d(initial_state(), -1) == -3


def test_third_anchor():
    st = step(initial_state())
    # sumset covers {-13..24}
    assert next_d(st, -1) == -14


def test_choose_c_first_step():
    # bare inequality would allow -10, but the excluded point -c+d_1 must
    # clear the prefix maximum 12, forcing -14
    assert choose_c(initial_state(), -3, 1) == -14


def test_choose_c_second_step():
    st = step(initial_state())
    assert st.c_seq[-1] == -14
    assert choose_c(st, -14, 1) == -43


def test_step_two_prefix():
    st = step(initial_state())
    assert st.d_seq == (-1, -3)
    assert st.c_seq == (-3, -14)
    assert st.runs == ((1, 12), (14, 27))


def test_excluded_points_distinct_and_above_prefix():
    st = initial_state()
    for _ in range(8):
        prev_max = st.w_max
        prev_c = st.c_seq[-1]
        st = step(st)
        c_i = st.c_seq[-1]
        excluded = [-c_i + d for d in st.d_seq[:-1]]
        assert len(set(excluded)) == len(excluded)
        for p in excluded:
            assert prev_max < p
            assert -2 * prev_c < p <= -c_i - 1 < -2 * c_i - 1
            assert not runs_contains(st.runs, p)


def test_anchor_monotonicity():
    st = initial_state()
    for _ in range(19):
        st = step(st)
    for a, b in zip(st.d_seq, st.d_seq[1:]):
        assert b <= a - 2
    for a, b in zip(st.c_seq, st.c_seq[1:]):
        assert b < a


def test_gap_property():
    st = generate(12)
    for i in range(len(st.runs) - 1):
        assert st.runs[i + 1][0] - st.runs[i][1] == 2


def test_anchor_not_in_prior_sumset():
    st = initial_state()
    for _ in range(10):
        d = next_d(st, -1)
        assert not any(runs_contains(st.runs, d - c) for c in st.c_seq)
        st = step(st)


def test_generate_one_is_initial():
    assert generate(1) == initial_state()


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
    with pytest.raises(PrefixTooShort):
        verify(initial_state())


def periodic_candidates(state, period_max=50):
    """The periods 1..period_max under which no hole of the prefix has a
    prefix element that many below it.  A finite prefix cannot certify
    periodicity of the limit set, so this is only a probe of the prefix."""
    holes = [state.runs[i][1] + 1 for i in range(len(state.runs) - 1)]
    w_min = state.runs[0][0]
    return tuple(
        P for P in range(1, period_max + 1)
        if not any(h - P >= w_min and runs_contains(state.runs, h - P)
                   for h in holes))


def test_varying_slack_breaks_small_periods():
    st = generate(15, lambda i: 1 + (i % 3))
    assert verify(st).ok
    assert periodic_candidates(st) == ()


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
    return GeneratorState(state.d_seq, state.c_seq, tuple(runs), state.slack_seq)


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


@pytest.mark.parametrize("spec", SLACK_SPECS)
def test_next_d_matches_reference(spec):
    slack_fn = parse_slack_spec(spec)
    st = initial_state()
    for i in range(2, 31):
        want = reference_next_d(st)
        assert next_d(st, -1) == want, (spec, st.steps)
        assert next_d(st, st.d_seq[-1]) == want, (spec, st.steps)
        st = step(st, slack_fn(i))


def test_next_d_matches_reference_on_mutated_states():
    rng = random.Random(1706)
    moved = 0
    for k in range(2, 13):
        base = generate(k, lambda i: rng.randint(1, 5))
        d_base = reference_next_d(base)
        for _ in range(40):
            st = mutate(rng, base)
            want = reference_next_d(st)
            assert next_d(st, -1) == want
            moved += want != d_base
    assert moved > 0  # some mutations must open a hole above the anchor


def assert_runs_contains_matches_members(runs):
    """Every integer from two below the first run to two above the last;
    the reference writes the runs out element by element."""
    members = {n for a, b in runs for n in range(a, b + 1)}
    span = range(runs[0][0] - 2, runs[-1][1] + 3)
    assert [runs_contains(runs, n) for n in span] == [n in members for n in span]


@pytest.mark.parametrize("spec", SLACK_SPECS[:3])
def test_runs_contains_matches_members(spec):
    slack_fn = parse_slack_spec(spec)
    for k in range(1, 13):
        assert_runs_contains_matches_members(generate(k, slack_fn).runs)


def test_runs_contains_matches_members_on_mutated_states():
    rng = random.Random(4)
    for k in range(2, 9):
        base = generate(k, lambda i: rng.randint(1, 5))
        for _ in range(20):
            assert_runs_contains_matches_members(mutate(rng, base).runs)


@pytest.mark.parametrize("spec", SLACK_SPECS)
def test_generate_matches_reference(spec, monkeypatch):
    slack_fn = parse_slack_spec(spec)
    got = [generate(k, slack_fn) for k in range(1, 26)]
    monkeypatch.setattr(generator, "next_d",
                        lambda state, start: reference_next_d(state))
    assert got == [generate(k, slack_fn) for k in range(1, 26)]


def reference_step(state, slack=1):
    """The step as a generic union, its anchor walked down from -1: the
    excluded points are tested for membership in the prefix, and the new
    pieces are merged with all of the prefix runs."""
    d_i = generator.next_d(state, -1)
    c_i = generator.choose_c(state, d_i, slack)
    lo, hi = -2 * state.c_seq[-1], -2 * c_i - 1
    excluded = sorted(-c_i + d_j for d_j in state.d_seq)
    pieces = list(state.runs)
    cur = lo
    for p in excluded:
        if runs_contains(state.runs, p) or not lo < p <= -c_i - 1:
            raise ExclusionCollision(f"excluded point {p}")
        if cur <= p - 1:
            pieces.append((cur, p - 1))
        cur = p + 1
    if cur <= hi:
        pieces.append((cur, hi))
    return GeneratorState(state.d_seq + (d_i,), state.c_seq + (c_i,),
                          merge_runs(pieces), state.slack_seq + (slack,))


def reference_verify(state):
    """``verify`` on the merged sumset runs and by membership tests."""
    window_hi = -state.c_seq[-2] - 1
    gaps_ok = all(b[0] - a[1] == 2 for a, b in zip(state.runs, state.runs[1:]))
    n = state.d_seq[-1]
    for a, b in reference_sumset_runs(state):
        if a <= n <= b:
            n = b + 1
    coverage_ok = n > window_hi
    failures = []
    for d_j, c_j in zip(state.d_seq, state.c_seq):
        hits = [c for c in state.c_seq if runs_contains(state.runs, d_j - c)]
        if hits != [c_j]:
            failures.append(f"anchor {d_j} reached via {hits}, expected [{c_j}]")
    return GeneratorReport(window_hi, gaps_ok, coverage_ok,
                           None if coverage_ok else n, tuple(failures))


_cycles = random.Random(1703)
RANDOM_CYCLES = tuple(
    "cycle:" + ",".join(str(_cycles.randint(1, 9))
                        for _ in range(_cycles.randint(2, 6)))
    for _ in range(10))


@pytest.mark.parametrize("spec", SLACK_SPECS[:3] + RANDOM_CYCLES)
def test_step_appends_what_a_merge_gives(spec):
    slack_fn = parse_slack_spec(spec)
    got = [generate(k, slack_fn) for k in range(1, 41)]
    reports = [verify(st) for st in got[1:]]
    want = [initial_state()]
    for i in range(2, 41):
        want.append(reference_step(want[-1], slack_fn(i)))
    assert got == want
    assert reports == [reference_verify(st) for st in want[1:]]
    assert all(report.ok for report in reports)


@pytest.mark.parametrize("slack", [1, 2, 3, 4])
def test_unguarded_choice_collides(slack, monkeypatch):
    # Without its prefix guard, choose_c puts the first excluded point
    # inside W_1 = {1, ..., 12}; only the collision check stops the step.
    def unguarded(state, d_i, slack):
        return d_i + 2 * state.c_seq[-1] - slack

    monkeypatch.setattr(generator, "choose_c", unguarded)
    with pytest.raises(ExclusionCollision):
        reference_step(initial_state(), slack)
    with pytest.raises(ExclusionCollision):
        step(initial_state(), slack)


def test_window_end():
    # verify checks the authoritative window [d_N, -c_{N-1} - 1], which
    # always holds an integer, so construct never checks an empty window.
    for steps in range(2, 13):
        st = generate(steps)
        report = verify(st)
        assert report.window_hi == -st.c_seq[-2] - 1 >= st.d_seq[-1]
        assert report.coverage_ok


def test_one_point_windows_match_membership():
    # The probe of the coverage walk at every integer of the authoritative
    # window, run ends and starts of each translate included, so an
    # off-by-one in a probe shows: it finds exactly the translate-runs of
    # the prefix that hold n.
    rng = random.Random(31)
    for k in range(2, 7):
        base = generate(k, lambda i: rng.randint(1, 5))
        for trial in range(8):
            st = base if trial == 0 else mutate(rng, base)
            starts = [a for a, _ in st.runs]
            for n in range(st.d_seq[-1], -st.c_seq[-2]):
                want = [(a + c, b + c, c) for c in st.c_seq
                        for a, b in st.runs if a <= n - c <= b]
                assert _translates_at(st.runs, starts, st.c_seq, n) == want


def test_generate_and_verify_work_is_bounded():
    # Each anchor walk starts at the previous anchor, so each of 80 steps
    # takes two probes; a walk from -1 at every step runs over the
    # budget.
    with bounded_work():
        assert verify(generate(80)).ok


def test_generate_carries_the_run_starts():
    # step extends the starts with its new runs rather than rebuilding them
    # from the prefix's runs, so generate(100) runs about 65 000 lines,
    # where a rebuild at every step ran 221 505.
    with bounded_work(max_lines=80_000):
        st = generate(100)
    assert st.starts == tuple(a for a, _ in st.runs)
    assert GeneratorState.from_dict(st.to_dict()).starts == st.starts


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


def test_serialization_round_trip():
    st = generate(6, lambda i: 2)
    assert GeneratorState.from_dict(st.to_dict()) == st
