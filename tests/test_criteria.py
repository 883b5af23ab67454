import json
import random
from collections import Counter
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


def test_stratum_sets_node_count():
    """Node counts, not wall time, are the search's regression signal: the
    plain DFS took 10.6 M nodes over these 1 409 sets."""
    nodes = sets = 0
    for s, e in pool_entries("strata"):
        v = decide(s, SearchConfig(t_max=e["t_max"]))
        assert v.outcome.value == e["expected"]["outcome"], e
        nodes += v.stats.subsets_examined
        sets += 1
    assert sets == 1409
    assert nodes <= 10_000, nodes


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
