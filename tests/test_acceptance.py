"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail report.
"""

import itertools
import json
import random
import time

from conftest import (
    certificate_from_dict,
    enumerate_contexts,
    random_canonical,
    random_context,
    runs_contains,
    shifted_copy,
    translate_residues,
)
from minadd.check import cond_b_necessary, cond_b_sufficient
from minadd.criteria import (
    NECESSARY,
    SUFFICIENT,
    Certificate,
    Outcome,
    Reason,
    SearchConfig,
    check_certificate,
    decide,
    find_certificate,
)
from minadd.generator import generate, verify
from minadd.oracle import naive_find_certificate
from minadd.residues import ResidueSubset
from minadd.sets import (
    CanonicalSet,
    ConditionContext,
    RawSet,
    canonicalize,
    lift_period,
    validate_canonical,
)
from minadd.witness import build_witness, verify_coverage, verify_local_minimality


def report(name: str, ok: bool, budget: float, elapsed: float) -> None:
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"[{status}] {name} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, name
    assert elapsed <= budget, f"{name} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_canonical_form_regression():
    t0 = time.perf_counter()
    raw = RawSet(5, ResidueSubset.of(5, [2, 3]), 10, (2, 4, 7, 8, 9))
    s = canonicalize(raw)
    ok = s.m == 5 and s.x_m.members() == (2, 3)
    ok = ok and all(
        raw.contains(n) == s.contains(n - s.shift) for n in range(0, 61)
    )
    # the shift-by-5 decomposition of the same set is itself valid input
    try:
        validate_canonical(5, [2, 3], [-3], [-1, 4], shift=5)
    except Exception:
        ok = False
    report("1 canonical-form regression", ok, 1.0, time.perf_counter() - t0)


def test_criterion_2_residue_one_suite():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    for _ in range(50):
        size = rng.randint(1, 6)
        y = sorted(rng.sample(range(1, 101, 3), size))  # values in 3N+1
        s = validate_canonical(3, [0], (), y)
        v = decide(s)
        ok = ok and (
            v.outcome is Outcome.NOT_EXISTS
            and v.reason is Reason.NECESSARY_FAILED
            and v.modulus == 3
        )
    report("2 single-class exceptions never admit a minimal complement",
           ok, 1.0, time.perf_counter() - t0)


def test_criterion_3_quasiperiodic_suite():
    t0 = time.perf_counter()
    rng = random.Random(33)
    ok = True
    for _ in range(20):
        m = rng.randint(1, 6)
        x = ResidueSubset(m, rng.getrandbits(m) or 1)
        y0 = tuple(
            sorted({-(rng.randint(1, 4) * m) + r for r in x.members()
                    if rng.random() < 0.5})
        )
        s = CanonicalSet(m, x, y0, ())
        v = decide(s)
        ok = ok and (
            v.outcome is Outcome.NOT_EXISTS and v.reason is Reason.QUASIPERIODIC
        )
        # redundant confirmation: the refuting condition also fails directly
        ok = ok and find_certificate(lift_period(s, 1), NECESSARY) is None
    report("3 quasiperiodic sets refused", ok, 1.0, time.perf_counter() - t0)


def test_criterion_4_reference_example_decision():
    t0 = time.perf_counter()
    s = validate_canonical(5, [2, 3], [-3], [-1, 4])
    v = decide(s)
    ok = (
        v.outcome is Outcome.NOT_EXISTS
        and v.reason is Reason.NECESSARY_FAILED
        and v.modulus == 5
    )
    # the independent reference scans all 32 subsets of Z_5 and agrees
    ctx = lift_period(s, 1)
    ok = ok and naive_find_certificate(ctx, NECESSARY) is None
    ok = ok and naive_find_certificate(ctx, SUFFICIENT) is None
    report("4 reference example decision", ok, 1.0, time.perf_counter() - t0)


def test_criterion_5_single_class_equivalence():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for m in range(1, 7):
        for x_bits in range(1, (1 << m) - 1):
            x = ResidueSubset(m, x_bits)
            for r in range(m):
                if r in x:
                    continue
                ctx = ConditionContext(m, x, ResidueSubset.of(m, [r]))
                nec = find_certificate(ctx, NECESSARY)
                suf = find_certificate(ctx, SUFFICIENT)
                ok = ok and (nec is None) == (suf is None)
                checked += 1
    ok = ok and checked > 0
    report(f"5 single-exception variant equivalence ({checked} instances)",
           ok, 30.0, time.perf_counter() - t0)


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    pairs = 0
    for ctx in enumerate_contexts(10, range(1, 6)):
        for variant in (NECESSARY, SUFFICIENT):
            slow = naive_find_certificate(ctx, variant)
            fast = find_certificate(ctx, variant)
            same = (slow is None) == (fast is None) and (
                slow is None or slow.c == fast.c
            )
            ok = ok and same
            pairs += 1
    rng = random.Random(66)
    for _ in range(500):
        ctx = random_context(rng, 1, 12)
        variant = rng.choice((NECESSARY, SUFFICIENT))
        slow = naive_find_certificate(ctx, variant)
        fast = find_certificate(ctx, variant)
        ok = ok and (slow is None) == (fast is None) and (
            slow is None or slow.c == fast.c
        )
        pairs += 1
    report(f"6 reference-search equivalence ({pairs} searches)",
           ok, 120.0, time.perf_counter() - t0)


def _small_exists_instances():
    """Exhaustive sweep over periods up to 4, one exception per free class."""
    for m in range(1, 5):
        for x_bits in range(1, 1 << m):
            x = ResidueSubset(m, x_bits)
            free = [r for r in range(m) if r not in x]
            for n in range(1, len(free) + 1):
                for picks in itertools.combinations(free, n):
                    yield CanonicalSet(m, x, (), picks)


def test_criterion_7_witness_soundness():
    t0 = time.perf_counter()
    ok = True
    verified = 0
    for s in _small_exists_instances():
        v = decide(s, SearchConfig(t_max=6))
        if v.outcome is not Outcome.EXISTS or v.certificate is None:
            continue
        T = v.certificate.T
        lo, hi = -20 * T - 10, 20 * T + 10
        w = build_witness(s, v.certificate, lo, hi)
        ok = ok and verify_coverage(s, w).ok
        ok = ok and verify_local_minimality(s, w).ok
        verified += 1
    # the classic instance: the witness is exactly the even integers,
    # listed on the window [-40, 40]
    s = validate_canonical(2, [0], (), [1])
    v = decide(s)
    w = build_witness(s, v.certificate, -40, 40)
    ok = ok and w.d_elements == tuple(range(-40, 41, 2))
    ok = ok and verified >= 5
    report(f"7 witness soundness ({verified} instances)",
           ok, 60.0, time.perf_counter() - t0)


def test_criterion_8_construction_regression_and_properties():
    t0 = time.perf_counter()
    st = generate(10)
    ok = (
        st.d_seq[0] == -1
        and st.c_seq[0] == -3
        and st.d_seq[1] == -3
        and runs_contains(st.runs, 1)
        and runs_contains(st.runs, 12)
        and not runs_contains(st.runs, 0)
        and not runs_contains(st.runs, 13)
    )
    rng = random.Random(88)
    slack_seqs = [[1] * 21] + [
        [rng.randint(1, 5) for _ in range(21)] for _ in range(10)
    ]
    for slacks in slack_seqs:
        st = generate(20, lambda i: slacks[i - 1])
        ok = ok and all(
            b <= a - 2 for a, b in zip(st.d_seq, st.d_seq[1:])
        )
        rep = verify(st)
        ok = ok and rep.gaps_ok and rep.coverage_ok
        ok = ok and not rep.uniqueness_failures
    report("8 inductive construction regression and properties",
           ok, 10.0, time.perf_counter() - t0)


def test_criterion_9_invariance_properties():
    t0 = time.perf_counter()
    rng = random.Random(99)
    ok = True

    # decide is invariant under translating the whole set
    for _ in range(200):
        s = random_canonical(rng, 4)
        d = rng.randint(-3 * s.m, 3 * s.m)
        cfg = SearchConfig(t_max=4 * s.m)
        ok = ok and decide(s, cfg).outcome is decide(shifted_copy(s, d), cfg).outcome

    # certificate validity is invariant under translating C
    checked = 0
    while checked < 200:
        ctx = random_context(rng, 2, 10)
        cert = find_certificate(ctx, SUFFICIENT)
        if cert is None:
            continue
        t = rng.randrange(1, ctx.T) if ctx.T > 1 else 0
        moved = Certificate(ctx.T, translate_residues(cert.c, t), SUFFICIENT)
        ok = ok and check_certificate(ctx, moved)
        checked += 1

    # the strong per-element condition implies the weak one
    for _ in range(200):
        ctx = random_context(rng, 1, 10)
        c = ResidueSubset(ctx.T, rng.getrandbits(ctx.T))
        if cond_b_sufficient(ctx, c):
            ok = ok and cond_b_necessary(ctx, c)

    # serialized run records re-verify from scratch
    reverified = 0
    while reverified < 200:
        s = random_canonical(rng, 4)
        v = decide(s, SearchConfig(t_max=4 * s.m))
        if v.outcome is not Outcome.EXISTS or v.certificate is None:
            continue
        record = json.dumps(
            {"result": {"canonical": s.to_dict(), "verdict": v.to_dict()}}
        )
        payload = json.loads(record)["result"]
        s2 = CanonicalSet.from_dict(payload["canonical"])
        cert = certificate_from_dict(payload["verdict"]["certificate"])
        ctx = lift_period(s2, cert.T // s2.m)
        ok = ok and check_certificate(ctx, cert)
        reverified += 1

    report("9 invariance and re-verification properties",
           ok, 60.0, time.perf_counter() - t0)
