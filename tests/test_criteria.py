import json
import random
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import pytest

from conftest import (
    bounded_work,
    enumerate_contexts,
    random_canonical,
    random_context,
    reference_search,
    shifted_copy,
)
from minadd import criteria, oracle
from minadd.criteria import (
    NECESSARY,
    SUFFICIENT,
    Certificate,
    Outcome,
    Reason,
    SearchConfig,
    SearchStats,
    _search_exhaustive,
    _search_heuristic,
    check_certificate,
    cond_a,
    cond_b_necessary,
    cond_b_sufficient,
    decide,
    find_certificate,
)
from minadd.errors import BudgetExceeded, ModulusMismatch, ValidationError
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
        with pytest.raises(ModulusMismatch):
            cond_a(ctx_of(3, [0], [1]), subset(4, [0]))


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

    def test_lex_minimal_result(self):
        ctx = ctx_of(3, [0], [1, 2])
        cert = find_certificate(ctx, SUFFICIENT)
        assert cert.c.members() == (0,)

    def test_heuristic_mode_finds_and_reverifies(self, monkeypatch):
        # force the heuristic by dropping the exhaustive limit below T
        monkeypatch.setattr(criteria, "EXHAUSTIVE_LIMIT", 1)
        ctx = ctx_of(4, [0, 2], [1, 3])
        cert = find_certificate(ctx, SUFFICIENT)
        assert cert is not None
        assert cond_a(ctx, cert.c) and cond_b_sufficient(ctx, cert.c)

    def test_heuristic_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(criteria, "EXHAUSTIVE_LIMIT", 1)
        monkeypatch.setattr(criteria, "HEURISTIC_BUDGET", 1)
        ctx = ctx_of(8, [0], [1])
        with pytest.raises(BudgetExceeded):
            find_certificate(ctx, SUFFICIENT)

    def test_decide_survives_heuristic_budget(self, monkeypatch):
        monkeypatch.setattr(criteria, "EXHAUSTIVE_LIMIT", 1)
        monkeypatch.setattr(criteria, "HEURISTIC_BUDGET", 5)
        s = validate_canonical(5, [2, 3], [-3], [-1, 4])
        v = decide(s, SearchConfig(t_max=10))
        assert v.outcome is Outcome.UNKNOWN
        assert v.stats.budget_exhausted

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


def test_cover_driven_search_is_complete():
    """With no budget to run out of, the cover-driven search finds a valid
    C exactly when the lexicographic one does, under both variants: the
    contract that lets ``decide`` refute above EXHAUSTIVE_LIMIT."""
    rng = random.Random(16)
    contexts = [*enumerate_contexts(8),
                *(random_context(rng, 9, 16) for _ in range(3000))]
    found = 0
    for ctx in contexts:
        for variant in (NECESSARY, SUFFICIENT):
            cert = _search_heuristic(ctx, variant, 10**9, SearchStats())
            complete = _search_exhaustive(ctx, variant, SearchStats())
            assert (cert is None) == (complete is None), (ctx, variant)
            assert cert is None or check_certificate(ctx, cert), (ctx, variant)
            found += cert is not None
    assert len(contexts) >= 3700
    assert 1000 <= found <= 2 * len(contexts) - 1000, found


def restate(m, x, y0, y1, k):
    """The same set described with period k*m: X repeated k times."""
    return validate_canonical(k * m, [r + j * m for j in range(k) for r in x],
                              y0, y1)


# Pool not-exists sets restated at the least multiple of m in 25..40, so
# that the base modulus lies above EXHAUSTIVE_LIMIT.
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
    assert v.outcome is Outcome.NOT_EXISTS and not v.stats.budget_exhausted
    assert v.reason is Reason.NECESSARY_FAILED and v.modulus == s.m
    assert _search_exhaustive(lift_period(s, 1), NECESSARY, SearchStats()) is None


def test_searches_agree_above_the_limit():
    """Above EXHAUSTIVE_LIMIT, the lexicographic search and the cover-driven
    one with no budget to run out of agree on whether a valid C exists,
    under both variants, and every hit is a certificate."""
    rng = random.Random(17)
    contexts = [*(lift_period(s, 1) for s in RESTATED_NOT_EXISTS),
                *(random_context(rng, 25, 40) for _ in range(300))]
    outcomes = Counter()
    for ctx in contexts:
        for variant in (NECESSARY, SUFFICIENT):
            cover_driven = _search_heuristic(ctx, variant, 10**9, SearchStats())
            lexicographic = _search_exhaustive(ctx, variant, SearchStats())
            assert (cover_driven is None) == (lexicographic is None), (ctx, variant)
            for cert in (cover_driven, lexicographic):
                assert cert is None or check_certificate(ctx, cert), (ctx, variant)
            outcomes[lexicographic is None] += 1
    assert outcomes[True] >= 10 and outcomes[False] >= 500, outcomes


EVENS = validate_canonical(2000, [0], [], [1])


@pytest.mark.parametrize("variant", [NECESSARY, SUFFICIENT])
def test_lexicographic_search_at_large_period(variant):
    """At T = 2000 the path is 1 000 members deep; a node's work does not
    grow with T or with the number of members."""
    stats = SearchStats()
    with bounded_work():
        cert = _search_exhaustive(lift_period(EVENS, 1), variant, stats)
    assert cert.c.members() == tuple(range(0, 2000, 2))
    assert stats.subsets_examined == 1000


def test_decide_at_large_period_without_the_limit(monkeypatch):
    # Both searches at T = 2000 lexicographic, within the work bound of
    # tests/test_cli.py::TestDecide::test_large_period.
    monkeypatch.setattr(criteria, "EXHAUSTIVE_LIMIT", 10**9)
    with bounded_work():
        v = decide(EVENS, SearchConfig(t_max=2000))
    assert v.outcome is Outcome.EXISTS and v.reason is Reason.CERTIFICATE_AT_BASE
    assert v.certificate.c.members() == tuple(range(0, 2000, 2))
    assert v.stats.subsets_examined == 2000 and not v.stats.budget_exhausted


def test_decide_survives_necessary_budget(monkeypatch):
    """A base necessary search that runs out refutes nothing, and skips the
    sufficient search at T = m, which would walk the same tree under the
    same budget and accept less: decide reports the exhausted budget and
    goes on to the lifted moduli."""
    calls = []
    search = criteria.find_certificate

    def necessary_runs_out(ctx, variant, stats=None):
        calls.append((ctx.T, variant))
        if variant == NECESSARY:
            raise BudgetExceeded("necessary search ran out")
        return search(ctx, variant, stats)

    monkeypatch.setattr(criteria, "find_certificate", necessary_runs_out)
    s = restate(2, [0], [], [1], 13)
    v = decide(s, SearchConfig(t_max=s.m))
    assert calls == [(26, NECESSARY)]
    assert v.outcome is Outcome.UNKNOWN and v.reason is Reason.SEARCH_EXHAUSTED
    assert v.stats.budget_exhausted
    calls.clear()
    v = decide(s, SearchConfig(t_max=2 * s.m))
    assert calls == [(26, NECESSARY), (52, SUFFICIENT)]
    assert v.outcome is Outcome.EXISTS and v.reason is Reason.CERTIFICATE_AT_LIFT
    assert v.modulus == 52 and v.stats.budget_exhausted
    assert check_certificate(lift_period(s, 2), v.certificate)


DECIDE_POOL = Path(__file__).resolve().parents[1] / "bench" / "data" / "decide_pool.json"


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
    assert v.outcome is Outcome.UNKNOWN and not v.stats.budget_exhausted
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
    assert v.outcome is Outcome.UNKNOWN and not v.stats.budget_exhausted
    assert v.stats.subsets_examined == nodes


def test_stratum_sets_node_count():
    """Node counts, not wall time, are the search's regression signal, and
    any change to the search tree changes this one: the plain DFS took
    10.6 M nodes over these 1 409 sets."""
    nodes = sets = 0
    for s, e in pool_entries("strata"):
        v = decide(s, SearchConfig(t_max=e["t_max"]))
        assert v.outcome.value == e["expected"]["outcome"], e
        nodes += v.stats.subsets_examined
        sets += 1
    assert sets == 1409
    assert nodes == 4_511, nodes


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

    @pytest.mark.parametrize("t_max", [-5, 0, 4])
    def test_t_max_below_period_is_refused(self, t_max):
        # No modulus lies in [m, t_max], so an Unknown would claim an
        # exhausted search that never ran.
        s = validate_canonical(5, [2, 3], [-3], [-1, 4])
        with pytest.raises(ValidationError, match="below the period 5"):
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
        for c in (ResidueSubset(T, 0), ResidueSubset.full(T),
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

        def recording(ctx, variant, stats):
            calls.append((ctx.T, variant))
            return search(ctx, variant, stats)

        monkeypatch.setattr(criteria, "_search_exhaustive", recording)
        rng = random.Random(9)
        lifted = 0
        deep = [  # UNKNOWN at T = 15, EXISTS at T = 14
            validate_canonical(5, [2, 3], [-12], [-5, 1]),
            validate_canonical(7, [2, 3, 6], (), [1, 11, 14]),
        ]
        for s in deep + [random_canonical(rng, 5) for _ in range(60)]:
            calls.clear()
            decide(s, SearchConfig(t_max=3 * s.m))
            necessary = [T for T, variant in calls if variant == NECESSARY]
            assert necessary in ([], [s.m])
            lifted += any(T > s.m for T, _ in calls)
        assert lifted >= 3  # the scans went past the base modulus

    def test_consistency_base_vs_lift(self):
        # A base-period certificate implies the lifted scan also succeeds there.
        s = validate_canonical(2, [0], (), [1])
        ctx = lift_period(s, 1)
        assert find_certificate(ctx, SUFFICIENT) is not None
        v = decide(s)
        assert v.certificate.T == s.m


def test_certificate_serialization_round_trip():
    cert = Certificate(6, ResidueSubset.of(6, [0, 3]), SUFFICIENT)
    assert Certificate.from_dict(cert.to_dict()) == cert
