import json
import random
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import pytest

from conftest import (
    bounded_work,
    certificate_from_dict,
    enumerate_contexts,
    random_canonical,
    random_context,
    reference_search,
    shifted_copy,
    walk_first,
)
from minadd import criteria, oracle
from minadd.check import cond_a, cond_b_necessary, cond_b_sufficient
from minadd.criteria import (
    NECESSARY,
    NODE_BUDGET,
    SUFFICIENT,
    Certificate,
    Outcome,
    Reason,
    SearchConfig,
    SearchStats,
    _search_exhaustive,
    _search_heuristic,
    check_certificate,
    decide,
    find_certificate,
)
from minadd.errors import BudgetExceeded, MinaddError
from minadd.oracle import naive_find_certificate
from minadd.residues import ResidueSubset, rotate
from minadd.sets import ConditionContext, lift_period, validate_canonical


def ctx_of(T, x, y):
    return ConditionContext(T, ResidueSubset.of(T, x), ResidueSubset.of(T, y))


def subset(T, members):
    return ResidueSubset.of(T, members)


class TestCondA:
    def test_cover_by_two_elements(self):
        assert cond_a(ctx_of(3, [0], [1]), subset(3, [0, 2]))

    def test_empty_candidate_fails(self):
        assert not cond_a(ctx_of(3, [0], [1]), ResidueSubset(3, 0))

    def test_partial_cover_fails(self):
        # {0,1} + {2,3,4} = {0,2,3,4}: residue 1 uncovered
        assert not cond_a(ctx_of(5, [2, 3], [4]), subset(5, [0, 1]))

    def test_modulus_mismatch(self):
        # cond_a fails in the sumset; both forms of (b) at their own guard
        ctx = ctx_of(3, [0], [1])
        for cond, message in (
            (cond_a, "moduli differ: 4 vs 3"),
            (cond_b_necessary, "candidate modulus 4 does not match context T=3"),
            (cond_b_sufficient, "candidate modulus 4 does not match context T=3"),
        ):
            with pytest.raises(MinaddError) as exc:
                cond(ctx, subset(4, [0]))
            assert str(exc.value) == message


class TestCondBNecessary:
    def test_escape_blocked(self):
        # c=0: 0+1=1 lands in C+X={0,1}
        assert not cond_b_necessary(ctx_of(3, [0], [1]), subset(3, [0, 1]))

    def test_no_exceptions_no_witness(self):
        assert not cond_b_necessary(ctx_of(3, [0, 1], []), subset(3, [0]))

    def test_both_elements_escape(self):
        # C+X={0,2}; 0+1=1 and 2+1=3 both escape
        assert cond_b_necessary(ctx_of(4, [0, 2], [1]), subset(4, [0, 2]))


class TestCondBSufficient:
    def test_singleton_vacuous(self):
        assert cond_b_sufficient(ctx_of(2, [0], [1]), subset(2, [0]))

    def test_collision_with_other_element(self):
        # c=0, y=4: 4 == 2 + 2 mod 5
        assert not cond_b_sufficient(ctx_of(5, [2, 3], [4]), subset(5, [0, 2]))

    def test_two_element_pass(self):
        assert cond_b_sufficient(ctx_of(4, [0, 2], [1]), subset(4, [0, 2]))


class TestFindCertificate:
    def test_smallest_case(self):
        cert = find_certificate(ctx_of(2, [0], [1]), SUFFICIENT)
        assert cert is not None and cert.c.members() == (0,)

    def test_three_classes_refuted(self):
        assert find_certificate(ctx_of(3, [0], [1]), NECESSARY) is None

    def test_reference_example_refuted(self):
        assert find_certificate(ctx_of(5, [2, 3], [4]), NECESSARY) is None

    def test_unknown_variant_rejected(self):
        with pytest.raises(MinaddError, match="unknown variant 'strict'"):
            find_certificate(ctx_of(2, [0], [1]), "strict")

    def test_lex_minimal_result(self):
        ctx = ctx_of(3, [0], [1, 2])
        cert = find_certificate(ctx, SUFFICIENT)
        assert cert.c.members() == (0,)

    def test_heuristic_mode_finds_and_reverifies(self):
        ctx = ctx_of(4, [0, 2], [1, 3])
        cert = _search_heuristic(ctx, 10**9, SearchStats())
        assert cert is not None and cert.variant == SUFFICIENT
        assert cond_a(ctx, cert.c) and cond_b_sufficient(ctx, cert.c)

    def test_heuristic_budget_exhausted(self):
        ctx = ctx_of(8, [0], [1])
        stats = SearchStats()
        with pytest.raises(BudgetExceeded):
            _search_heuristic(ctx, 1, stats)
        assert stats.subsets_examined == 2

    def test_lexicographic_budget_exhausted(self, monkeypatch):
        # the nodes reached are counted before the search gives up
        monkeypatch.setattr(criteria, "NODE_BUDGET", 999)
        stats = SearchStats()
        with pytest.raises(BudgetExceeded):
            find_certificate(lift_period(EVENS, 1), SUFFICIENT, stats)
        assert stats.subsets_examined == 1000

    def test_decide_survives_heuristic_budget(self, monkeypatch):
        # The lexicographic search refutes the README example at T = m
        # within 5 nodes; the set below has no certificate at T = 5, so
        # the lifted search at T = 10 runs, cover-driven, and runs out.
        monkeypatch.setattr(criteria, "EXHAUSTIVE_LIMIT", 1)
        monkeypatch.setattr(criteria, "NODE_BUDGET", 5)
        s = validate_canonical(5, [2, 3], [-3], [-1, 4])
        v = decide(s, SearchConfig(t_max=10))
        assert v.outcome is Outcome.NOT_EXISTS
        assert v.reason is Reason.NECESSARY_FAILED
        s = validate_canonical(5, [0, 1], [], [-2, 9])
        v = decide(s, SearchConfig(t_max=10))
        assert v.outcome is Outcome.UNKNOWN
        assert v.reason is Reason.BUDGET_EXHAUSTED

    def test_serial_matches_oracle(self):
        rng = random.Random(3)
        for _ in range(25):
            ctx = random_context(rng, 4, 9)
            for variant in (NECESSARY, SUFFICIENT):
                fast = find_certificate(ctx, variant)
                slow = naive_find_certificate(ctx, variant)
                assert (fast is None) == (slow is None)
                if fast is not None:
                    assert fast.c == slow.c


def test_search_matches_plain_dfs():
    """The forward-checked search finds what the plain lexicographic DFS
    finds, the same certificate or none, on the context grid and on
    random contexts, under both variants."""
    rng = random.Random(14)
    contexts = [*enumerate_contexts(10),
                *(random_context(rng, 1, 12) for _ in range(1000))]
    outcomes = Counter()
    for ctx in contexts:
        for variant in (NECESSARY, SUFFICIENT):
            cert = find_certificate(ctx, variant)
            assert cert == reference_search(ctx, variant), (ctx, variant)
            outcomes[cert is None] += 1
    assert len(contexts) >= 4000
    assert outcomes[False] >= 1500 and outcomes[True] >= 1500, outcomes


def test_walk_enumerates_every_valid_subset_in_order():
    """The lexicographic walk yields every valid C containing 0, in
    lexicographic order, as the naive enumeration finds them by
    definition, for every T up to 12 and in both forms.  A budget below
    the walk's node count ends it mid-enumeration: what it yielded is a
    prefix, and node budget + 1 is counted when it stops."""
    rng = random.Random(19)
    contexts = [*enumerate_contexts(6),
                *(random_context(rng, T, T) for T in range(1, 13) for _ in range(8))]
    valid = several = cut = 0
    for ctx in contexts:
        for variant in (NECESSARY, SUFFICIENT):
            stats = SearchStats()
            walk = list(_search_exhaustive(ctx, variant, 10**9, stats))
            naive = [c for c in oracle.naive_certificates(ctx, variant) if 0 in c.c]
            assert walk == naive, (ctx, variant)
            valid += len(walk)
            several += len(walk) > 1
            if len(walk) > 1 and stats.subsets_examined > 1:
                budget = stats.subsets_examined - 1
                stats, prefix = SearchStats(), []
                with pytest.raises(BudgetExceeded):
                    for cert in _search_exhaustive(ctx, variant, budget, stats):
                        prefix.append(cert)
                assert prefix == walk[:len(prefix)], (ctx, variant)
                assert stats.subsets_examined == budget + 1
                cut += len(prefix) > 0
    assert {ctx.T for ctx in contexts} == set(range(1, 13))
    assert valid >= 2000 and several >= 300 and cut >= 300, (valid, several, cut)


def test_cover_driven_search_is_complete():
    """With no budget to run out of, the cover-driven search finds a
    sufficient certificate exactly when the lexicographic one does: the
    contract that lets ``decide`` call it the scan's answer above
    EXHAUSTIVE_LIMIT."""
    rng = random.Random(16)
    contexts = [*enumerate_contexts(8),
                *(random_context(rng, 9, 16) for _ in range(3000))]
    found = 0
    for ctx in contexts:
        cert = _search_heuristic(ctx, 10**9, SearchStats())
        complete = walk_first(ctx, SUFFICIENT, 10**9, SearchStats())
        assert (cert is None) == (complete is None), ctx
        assert cert is None or check_certificate(ctx, cert), ctx
        found += cert is not None
    assert len(contexts) >= 3700
    assert 500 <= found <= len(contexts) - 500, found


def restate(m, x, y0, y1, k):
    """The same set described with period k*m: X repeated k times."""
    return validate_canonical(k * m, [r + j * m for j in range(k) for r in x],
                              y0, y1)


# Pool not-exists sets restated at the least multiple of m in 25..40, so
# that the base modulus lies above EXHAUSTIVE_LIMIT: the base search is
# lexicographic at every m.
RESTATED_NOT_EXISTS = [
    restate(5, [1, 2, 3], [-9], [-15], 5),
    restate(3, [0], [], [-7], 9),
    restate(4, [0, 1], [-8], [-9], 7),
    restate(10, [0, 2, 4, 6, 7, 8, 9], [], [15], 3),
    restate(8, [0, 1, 2, 4, 7], [-20, -17], [-18], 4),
]


@pytest.mark.parametrize("s", RESTATED_NOT_EXISTS, ids=lambda s: f"m{s.m}")
def test_refutes_above_the_limit(s):
    assert s.m > criteria.EXHAUSTIVE_LIMIT
    v = decide(s, SearchConfig(t_max=s.m))
    assert v.outcome is Outcome.NOT_EXISTS
    assert v.reason is Reason.NECESSARY_FAILED and v.modulus == s.m
    assert walk_first(lift_period(s, 1), NECESSARY, NODE_BUDGET,
                      SearchStats()) is None


def restated_pool():
    """The pool's stratum not-exists sets, restated at the least multiple
    of m in 25..40."""
    return [restate(s.m, s.x_m.members(), s.y0, s.y1, -(-25 // s.m))
            for s, e in pool_entries("strata")
            if e["expected"]["outcome"] == "not-exists"]


def test_restated_pool_refuted_at_base():
    """Every pool not-exists set, restated above EXHAUSTIVE_LIMIT, is refuted
    at T = m with no budget spent: the lexicographic search forward-checks
    (b), so a refutation takes a few nodes at any m."""
    sets = restated_pool()
    nodes = 0
    for s in sets:
        v = decide(s, SearchConfig(t_max=s.m))
        assert v.outcome is Outcome.NOT_EXISTS, s
        assert v.reason is Reason.NECESSARY_FAILED and v.modulus == s.m, s
        nodes += v.stats.subsets_examined
    assert len(sets) == 278
    assert nodes == 1_194, nodes


def census_set(rng):
    """A set with m in 25..48, a random X and a sparse nonempty Y1 in
    [-40, 60)."""
    while True:
        m = rng.randint(25, 48)
        x = [r for r in range(m) if rng.random() < 0.5] or [0]
        y1 = [y for y in range(-40, 60) if y % m not in x and rng.random() < 0.05]
        if y1:
            return validate_canonical(m, x, [], y1)


def test_base_census_above_the_limit():
    """On sets whose period is above EXHAUSTIVE_LIMIT, the search at T = m
    never runs out, and every certificate it finds re-verifies."""
    rng = random.Random(5)
    outcomes = Counter()
    for _ in range(400):
        s = census_set(rng)
        v = decide(s, SearchConfig(t_max=s.m))
        assert v.reason is not Reason.BUDGET_EXHAUSTED, s
        if v.certificate is not None:
            assert check_certificate(lift_period(s, 1), v.certificate), s
        outcomes[v.outcome] += 1
    assert outcomes[Outcome.EXISTS] >= 200, outcomes
    assert outcomes[Outcome.NOT_EXISTS] >= 80, outcomes


def sparse_context(rng, t_lo, t_hi):
    """A context whose Y1 holds each residue outside X_T with chance 1/10."""
    T = rng.randint(t_lo, t_hi)
    x_mask = rng.getrandbits(T)
    y_mask = sum(1 << r for r in range(T)
                 if not x_mask >> r & 1 and rng.random() < 0.1)
    return ConditionContext(T, ResidueSubset(T, x_mask), ResidueSubset(T, y_mask))


def test_sufficient_tree_within_necessary_miss():
    """The premise of decide's budget skip at T = m: when the necessary
    search misses, the sufficient search misses too, in no more nodes, so
    under one budget a sufficient run-out never pairs with a finished
    necessary miss."""
    rng = random.Random(18)
    contexts = [*(lift_period(s, 1) for s in restated_pool()),
                *(sparse_context(rng, 2, 40) for _ in range(3000))]
    misses = 0
    for ctx in contexts:
        nec, suf = SearchStats(), SearchStats()
        if walk_first(ctx, NECESSARY, 10**9, nec) is not None:
            continue
        assert walk_first(ctx, SUFFICIENT, 10**9, suf) is None, ctx
        assert suf.subsets_examined <= nec.subsets_examined, ctx
        misses += 1
    assert misses >= 2000, misses


def test_searches_agree_above_the_limit():
    """Above EXHAUSTIVE_LIMIT, the lexicographic search and the cover-driven
    one agree on whether a sufficient certificate exists, and every hit is
    a certificate.  The pool's not-exists sets, restated above the limit,
    give the misses: those whose cover-driven tree ends within 1 000 nodes
    are compared."""
    rng = random.Random(17)
    pool = [lift_period(s, 1) for s in restated_pool()]
    contexts = [*((lift_period(s, 1), 10**9) for s in RESTATED_NOT_EXISTS),
                *((ctx, 1000) for ctx in pool),
                *((random_context(rng, 25, 40), 10**9) for _ in range(300))]
    outcomes = Counter()
    for ctx, limit in contexts:
        try:
            cert = _search_heuristic(ctx, limit, SearchStats())
        except BudgetExceeded:
            continue
        lexicographic = walk_first(ctx, SUFFICIENT, 10**9, SearchStats())
        assert (cert is None) == (lexicographic is None), ctx
        for found in (cert, lexicographic):
            assert found is None or check_certificate(ctx, found), ctx
        outcomes[lexicographic is None] += 1
    assert len(pool) == 278
    assert outcomes[True] >= 100 and outcomes[False] >= 250, outcomes


EVENS = validate_canonical(2000, [0], [], [1])


@pytest.mark.parametrize("variant", [NECESSARY, SUFFICIENT])
def test_lexicographic_search_at_large_period(variant):
    """At T = 2000 the path is 1 000 members deep; a node's work does not
    grow with T or with the number of members."""
    stats = SearchStats()
    with bounded_work():
        cert = walk_first(lift_period(EVENS, 1), variant, NODE_BUDGET, stats)
    assert cert.c.members() == tuple(range(0, 2000, 2))
    assert stats.subsets_examined == 1000


def test_decide_at_large_period_without_the_limit():
    # The base modulus T = 2000 takes the lexicographic search, within the
    # work bound of tests/test_cli.py::TestDecide::test_large_period; it
    # hits, so the necessary search is not run.
    with bounded_work():
        v = decide(EVENS, SearchConfig(t_max=2000))
    assert v.outcome is Outcome.EXISTS and v.reason is Reason.CERTIFICATE_AT_BASE
    assert v.certificate.c.members() == tuple(range(0, 2000, 2))
    assert v.stats.subsets_examined == 1000


def test_decide_survives_sufficient_budget(monkeypatch):
    """A base sufficient search that runs out proves nothing, and skips the
    necessary search at T = m, which could only hit or run out under the
    same budget (see test_sufficient_tree_within_necessary_miss): decide
    goes on to the lifted moduli, which above EXHAUSTIVE_LIMIT take the
    cover-driven search, and answers budget-exhausted if none of them
    hits."""
    calls = []
    search = criteria.find_certificate
    heuristic = criteria._search_heuristic

    def base_runs_out(ctx, variant, stats=None):
        calls.append((ctx.T, variant))
        if ctx.T == 26:
            raise BudgetExceeded("base search ran out")
        return search(ctx, variant, stats)

    def recording(ctx, budget, stats):
        calls.append((ctx.T, "cover-driven"))
        return heuristic(ctx, budget, stats)

    monkeypatch.setattr(criteria, "find_certificate", base_runs_out)
    monkeypatch.setattr(criteria, "_search_heuristic", recording)
    s = restate(2, [0], [], [1], 13)
    v = decide(s, SearchConfig(t_max=s.m))
    assert calls == [(26, SUFFICIENT)]
    assert v.outcome is Outcome.UNKNOWN and v.reason is Reason.BUDGET_EXHAUSTED
    calls.clear()
    v = decide(s, SearchConfig(t_max=2 * s.m))
    assert calls == [(26, SUFFICIENT), (52, "cover-driven")]
    assert v.outcome is Outcome.EXISTS and v.reason is Reason.CERTIFICATE_AT_LIFT
    assert v.modulus == 52
    assert check_certificate(lift_period(s, 2), v.certificate)


DECIDE_POOL = Path(__file__).resolve().parents[1] / "bench" / "data" / "decide_pool.json"
README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_tables_every_reason():
    rows = README.read_text(encoding="utf-8").splitlines()
    for reason in Reason:
        assert any(row.startswith(f"| `{reason.value}` |") for row in rows), reason


def pool_entries(kind):
    """(set, entry) for the decide pool's stratum sets or deep instances."""
    pool = json.loads(DECIDE_POOL.read_text())
    entries = (pool["deep"] if kind == "deep" else
               [e for stratum in pool["strata"] for e in stratum["entries"]])
    for e in entries:
        st = e["set"]
        yield validate_canonical(st["m"], st["x"], st["y0"], st["y1"]), e


@pytest.mark.parametrize("name", ["roadmap-m5", "roadmap-m10"])
def test_deep_instances_scan_to_twenty_in_few_nodes(name):
    # The plain DFS took 540 558 (roadmap-m5) and 525 175 nodes here.
    s = next(s for s, e in pool_entries("deep") if e["name"] == name)
    with bounded_work():
        v = decide(s, SearchConfig(t_max=20))
    assert v.outcome is Outcome.UNKNOWN and v.reason is Reason.SEARCH_EXHAUSTED
    assert 0 < v.stats.subsets_examined <= 50, v.stats


@pytest.mark.parametrize("name, nodes", [("roadmap-m5", 84_991),
                                         ("roadmap-m10", 15_077)])
def test_deep_instances_scan_to_thirty(name, nodes):
    """T = 25..30 take the cover-driven search, whose tree is pinned by its
    node count.  On roadmap-m10 its work is bounded too: the scan runs
    about 686 000 Python lines, and a (b) test that rebuilds each member's
    blocked set from prefix and suffix unions at every full cover runs
    861 579."""
    s = next(s for s, e in pool_entries("deep") if e["name"] == name)
    with bounded_work(max_lines=775_000) if name == "roadmap-m10" else nullcontext():
        v = decide(s, SearchConfig(t_max=30))
    assert v.outcome is Outcome.UNKNOWN and v.reason is Reason.SEARCH_EXHAUSTED
    assert v.stats.subsets_examined == nodes


def test_stratum_sets_node_count():
    """Node counts, not wall time, are the search's regression signal, and
    any change to the search tree changes this one: the plain DFS took
    10.6 M nodes over these 1 409 sets.  Each verdict keeps the pool's
    outcome, modulus and certificate."""
    nodes = sets = 0
    for s, e in pool_entries("strata"):
        v = decide(s, SearchConfig(t_max=e["t_max"]))
        expected = e["expected"]
        assert v.outcome.value == expected["outcome"], e
        assert v.modulus == expected["modulus"], e
        cert = v.certificate and {"T": v.certificate.T,
                                  "c": list(v.certificate.c.members())}
        assert cert == expected["certificate"], e
        nodes += v.stats.subsets_examined
        sets += 1
    assert sets == 1409
    assert nodes == 3_130, nodes


class TestCheckSingleton:
    """One exceptional residue class: the two forms of (b) coincide, so a
    scan of T = m alone decides existence."""

    @staticmethod
    def decide_at_base(s):
        return decide(s, SearchConfig(t_max=s.m))

    def test_even_plus_one(self):
        v = self.decide_at_base(validate_canonical(2, [0], (), [1]))
        assert v.outcome is Outcome.EXISTS and v.reason is Reason.CERTIFICATE_AT_BASE
        assert v.certificate.T == 2 and v.certificate.c.members() == (0,)

    def test_residue_one_of_three(self):
        v = self.decide_at_base(validate_canonical(3, [0], (), [1]))
        assert v.outcome is Outcome.NOT_EXISTS and v.modulus == 3
        assert v.reason is Reason.NECESSARY_FAILED

    def test_same_class_larger_element(self):
        v = self.decide_at_base(validate_canonical(3, [0], (), [4]))
        assert v.outcome is Outcome.NOT_EXISTS and v.modulus == 3
        assert v.reason is Reason.NECESSARY_FAILED


class TestDecide:
    def test_reference_example(self):
        s = validate_canonical(5, [2, 3], [-3], [-1, 4])
        v = decide(s)
        assert v.outcome is Outcome.NOT_EXISTS
        assert v.reason is Reason.NECESSARY_FAILED
        assert v.modulus == 5

    def test_even_plus_one_exists(self):
        v = decide(validate_canonical(2, [0], (), [1]))
        assert v.outcome is Outcome.EXISTS
        assert v.certificate.T == 2 and v.certificate.c.members() == (0,)

    def test_quasiperiodic(self):
        v = decide(validate_canonical(3, [0], [-3]))
        assert v.outcome is Outcome.NOT_EXISTS
        assert v.reason is Reason.QUASIPERIODIC

    def test_both_other_classes_exist(self):
        v = decide(validate_canonical(3, [0], (), [1, 2]))
        assert v.outcome is Outcome.EXISTS
        assert v.certificate.T == 3 and v.certificate.c.members() == (0,)

    def test_empty_set(self):
        s = validate_canonical(2, [])
        assert decide(s).reason is Reason.EMPTY_SET

    def test_finite_set(self):
        s = validate_canonical(2, [], (), [-4, 1])
        v = decide(s)
        assert v.outcome is Outcome.EXISTS
        assert v.reason is Reason.FINITE_SET
        assert v.certificate is None

    def test_unknown_when_budget_tiny(self):
        s = validate_canonical(5, [0, 1], [], [-2, 9])
        # The smallest budget, one modulus: no certificate at T = 5.
        v = decide(s, SearchConfig(t_max=5))
        assert v.outcome is Outcome.UNKNOWN
        assert v.reason is Reason.SEARCH_EXHAUSTED
        assert v.stats.subsets_examined > 0

    def test_run_out_budget_is_its_own_unknown(self, monkeypatch):
        # A complete scan and one that ran out both answer Unknown at
        # t_max, but only the first proves that no certificate exists
        # there, so the two verdicts differ in their reason.
        s = validate_canonical(5, [0, 1], [], [-2, 9])
        complete = decide(s, SearchConfig(t_max=5))
        monkeypatch.setattr(criteria, "NODE_BUDGET", 1)
        ran_out = decide(s, SearchConfig(t_max=5))
        assert complete.stats.subsets_examined == 3
        assert (complete.outcome, complete.reason, complete.modulus) == (
            Outcome.UNKNOWN, Reason.SEARCH_EXHAUSTED, 5)
        assert (ran_out.outcome, ran_out.reason, ran_out.modulus) == (
            Outcome.UNKNOWN, Reason.BUDGET_EXHAUSTED, 5)
        assert complete != ran_out and hash(complete) != hash(ran_out)
        assert ran_out.to_dict()["reason"] == "budget-exhausted"

    def test_unknown_names_the_largest_scanned_modulus(self, monkeypatch):
        # t_max 7 and 9 both scan only T = 5, so they give one verdict,
        # which names that modulus rather than the bound
        s = validate_canonical(5, [0, 1], [], [-2, 9])
        at7, at9 = (decide(s, SearchConfig(t_max=t)) for t in (7, 9))
        assert (at9.outcome, at9.reason, at9.modulus) == (
            Outcome.UNKNOWN, Reason.SEARCH_EXHAUSTED, 5)
        assert at9.stats.subsets_examined == 3
        assert at7 == at9 and hash(at7) == hash(at9)
        assert at7.to_dict()["modulus"] == 5
        assert decide(s, SearchConfig(t_max=10)).modulus == 10
        monkeypatch.setattr(criteria, "NODE_BUDGET", 1)
        ran_out = decide(s, SearchConfig(t_max=9))
        assert (ran_out.reason, ran_out.modulus) == (Reason.BUDGET_EXHAUSTED, 5)

    @pytest.mark.parametrize("t_max", [-5, 0, 4])
    def test_t_max_below_period_is_refused(self, t_max):
        # No modulus lies in [m, t_max], so an Unknown would claim an
        # exhausted search that never ran.
        s = validate_canonical(5, [2, 3], [-3], [-1, 4])
        with pytest.raises(MinaddError, match="below the period 5"):
            decide(s, SearchConfig(t_max=t_max))

    def test_certificates_reverify(self):
        rng = random.Random(11)
        from conftest import random_canonical

        for _ in range(60):
            s = random_canonical(rng)
            v = decide(s, SearchConfig(t_max=4 * s.m))
            if v.outcome is Outcome.EXISTS and v.certificate is not None:
                ctx = lift_period(s, v.certificate.T // s.m)
                assert check_certificate(ctx, v.certificate)


def test_predicates_match_definitions():
    rng = random.Random(11)
    for i in range(600):
        ctx = random_context(rng, 1, 10)
        T = ctx.T
        if i % 3 == 0:  # no exceptions at all
            ctx = ConditionContext(T, ctx.x_t, ResidueSubset(T, 0))
        for c in (ResidueSubset(T, 0), ResidueSubset(T, (1 << T) - 1),
                  ResidueSubset(T, rng.getrandbits(T))):
            args = (T, set(ctx.x_t.members()), set(ctx.y1_res.members()),
                    list(c.members()))
            assert cond_a(ctx, c) == oracle._cond_a(*args)
            assert cond_b_necessary(ctx, c) == oracle._cond_b_necessary(*args)
            assert cond_b_sufficient(ctx, c) == oracle._cond_b_sufficient(*args)


class TestProperties:
    def test_sufficient_implies_necessary(self):
        rng = random.Random(5)
        for _ in range(300):
            ctx = random_context(rng, 1, 10)
            c = ResidueSubset(ctx.T, rng.getrandbits(ctx.T))
            if cond_b_sufficient(ctx, c):
                assert cond_b_necessary(ctx, c)

    def test_translation_invariance(self):
        rng = random.Random(6)
        for _ in range(200):
            ctx = random_context(rng, 2, 9)
            c = ResidueSubset(ctx.T, rng.getrandbits(ctx.T) or 1)
            t = rng.randrange(ctx.T)
            shifted = ResidueSubset(ctx.T, rotate(c.mask, t, ctx.T))
            assert cond_a(ctx, c) == cond_a(ctx, shifted)
            assert cond_b_necessary(ctx, c) == cond_b_necessary(ctx, shifted)
            assert cond_b_sufficient(ctx, c) == cond_b_sufficient(ctx, shifted)

    def test_decide_shift_invariance(self):
        rng = random.Random(7)
        from conftest import random_canonical

        for _ in range(80):
            s = random_canonical(rng, 4)
            d = rng.randint(-3 * s.m, 3 * s.m)
            cfg = SearchConfig(t_max=4 * s.m)
            assert decide(s, cfg).outcome is decide(shifted_copy(s, d), cfg).outcome

    def test_singleton_equivalence_small(self):
        # For one exceptional class, the two variants accept the same contexts.
        for m in range(2, 6):
            for x_bits in range(1, (1 << m) - 1):
                x = ResidueSubset(m, x_bits)
                for r in range(m):
                    if r in x:
                        continue
                    ctx = ConditionContext(m, x, ResidueSubset.of(m, [r]))
                    nec = find_certificate(ctx, NECESSARY)
                    suf = find_certificate(ctx, SUFFICIENT)
                    assert (nec is None) == (suf is None)

    def test_lift_lemma(self):
        # The preimage of a necessary certificate at m passes (a) and the
        # necessary (b) at 2m and 3m, so no lifted modulus can refute.
        rng = random.Random(8)
        checked = 0
        for _ in range(150):
            s = random_canonical(rng, 6)
            if not s.y1:
                continue
            cert = find_certificate(lift_period(s, 1), NECESSARY)
            if cert is None:
                continue
            for k in (2, 3):
                ctx = lift_period(s, k)
                pre = ResidueSubset.of(
                    ctx.T, [r for r in range(ctx.T) if r % s.m in cert.c]
                )
                assert cond_a(ctx, pre) and cond_b_necessary(ctx, pre)
                checked += 1
        assert checked >= 50

    def test_necessary_search_only_at_base(self, monkeypatch):
        calls = []
        search = criteria._search_exhaustive

        def recording(ctx, variant, budget, stats):
            calls.append((ctx.T, variant))
            return search(ctx, variant, budget, stats)

        monkeypatch.setattr(criteria, "_search_exhaustive", recording)
        rng = random.Random(9)
        lifted = 0
        reasons = Counter()
        deep = [  # UNKNOWN at T = 15, EXISTS at T = 14
            validate_canonical(5, [2, 3], [-12], [-5, 1]),
            validate_canonical(7, [2, 3, 6], (), [1, 11, 14]),
        ]
        for s in deep + [random_canonical(rng, 5) for _ in range(60)]:
            calls.clear()
            v = decide(s, SearchConfig(t_max=3 * s.m))
            necessary = [T for T, variant in calls if variant == NECESSARY]
            assert necessary in ([], [s.m])
            # the sufficient search runs first; only its miss at T = m
            # lets the necessary search run
            if v.reason is Reason.CERTIFICATE_AT_BASE:
                assert calls == [(s.m, SUFFICIENT)]
            elif v.reason is Reason.NECESSARY_FAILED:
                assert calls == [(s.m, SUFFICIENT), (s.m, NECESSARY)]
            reasons[v.reason] += 1
            lifted += any(T > s.m for T, _ in calls)
        assert lifted >= 3  # the scans went past the base modulus
        assert reasons[Reason.CERTIFICATE_AT_BASE] >= 20, reasons
        assert reasons[Reason.NECESSARY_FAILED] >= 5, reasons

    def test_consistency_base_vs_lift(self):
        # A base-period certificate implies the lifted scan also succeeds there.
        s = validate_canonical(2, [0], (), [1])
        ctx = lift_period(s, 1)
        assert find_certificate(ctx, SUFFICIENT) is not None
        v = decide(s)
        assert v.certificate.T == s.m


def test_certificate_serialization_round_trip():
    cert = Certificate(6, ResidueSubset.of(6, [0, 3]), SUFFICIENT)
    assert certificate_from_dict(cert.to_dict()) == cert
