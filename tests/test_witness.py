import dataclasses
import random

import pytest

from minadd import witness
from minadd.criteria import (
    NECESSARY,
    SUFFICIENT,
    Certificate,
    Outcome,
    SearchConfig,
    decide,
)
from minadd.errors import CertificateInvalid, WindowTooSmall
from minadd.oracle import WindowSet, verify_complement_window
from minadd.residues import ResidueSubset
from minadd.sets import validate_canonical
from minadd.witness import (
    VerificationReport,
    WitnessWindow,
    build_witness,
    verify_coverage,
    verify_local_minimality,
)

EVEN_SET = validate_canonical(2, [0], (), [1])
EVEN_CERT = Certificate(2, ResidueSubset.of(2, [0]), SUFFICIENT)


def test_even_witness_is_all_evens():
    w = build_witness(EVEN_SET, EVEN_CERT, -20, 20)
    assert w.d_elements == tuple(range(-20, 20, 2))  # evens in [-21, 19]
    # every odd target has exactly one preimage, so nothing is prunable
    for d in w.d_elements:
        assert w.provenance[d] == d + 1


def test_even_witness_verifies():
    w = build_witness(EVEN_SET, EVEN_CERT, -30, 30)
    assert verify_coverage(EVEN_SET, w).ok
    assert verify_local_minimality(EVEN_SET, w).ok


def test_deleted_element_breaks_coverage():
    w = build_witness(EVEN_SET, EVEN_CERT, -30, 30)
    victim = 0
    pruned = dataclasses.replace(
        w,
        d_elements=tuple(d for d in w.d_elements if d != victim),
        provenance={d: t for d, t in w.provenance.items() if d != victim},
    )
    report = verify_coverage(EVEN_SET, pruned)
    assert not report.ok
    assert report.first_uncovered == w.provenance[victim]


# With exceptions {1, 3} every odd target has two even preimages, so the
# candidate class genuinely overlaps and pruning has work to do.
OVERLAP_SET = validate_canonical(2, [0], (), [1, 3])
OVERLAP_CERT = Certificate(2, ResidueSubset.of(2, [0]), SUFFICIENT)


def test_redundant_element_fails_minimality():
    w = build_witness(OVERLAP_SET, OVERLAP_CERT, -40, 40)
    assert verify_local_minimality(OVERLAP_SET, w).ok
    # re-add a pruned interior element: it covers nothing privately
    pruned_out = sorted(
        set(range(-40, 41, 2)) - set(w.d_elements), key=abs
    )
    extra = next(d for d in pruned_out if -20 <= d <= 20)
    bloated = dataclasses.replace(
        w,
        d_elements=tuple(sorted(w.d_elements + (extra,))),
        provenance={**w.provenance, extra: None},
    )
    report = verify_local_minimality(OVERLAP_SET, bloated)
    assert not report.ok


def test_overlapping_pruning_is_proper_and_sound():
    w = build_witness(OVERLAP_SET, OVERLAP_CERT, -40, 40)
    full_class = [d for d in range(-43, 40) if d % 2 == 0]
    assert len(w.d_elements) < len(full_class)
    assert verify_coverage(OVERLAP_SET, w).ok
    assert verify_local_minimality(OVERLAP_SET, w).ok


def test_no_overlap_keeps_whole_class():
    # With exceptions {1, 2} at period 3 each target has a unique preimage:
    # the full candidate class is already irredundant.
    s = validate_canonical(3, [0], (), [1, 2])
    cert = Certificate(3, ResidueSubset.of(3, [0]), SUFFICIENT)
    w = build_witness(s, cert, -30, 30)
    assert w.d_elements == tuple(range(-30, 28, 3))
    assert verify_coverage(s, w).ok
    assert verify_local_minimality(s, w).ok


def test_necessary_certificate_rejected():
    cert = Certificate(2, ResidueSubset.of(2, [0]), NECESSARY)
    with pytest.raises(CertificateInvalid):
        build_witness(EVEN_SET, cert, -30, 30)


def test_invalid_certificate_rejected():
    bad = Certificate(2, ResidueSubset.of(2, [1]), SUFFICIENT)
    # C={1}: cond_a holds but it is fine either way; force re-verification
    s = validate_canonical(2, [0], (), [3])
    with pytest.raises(CertificateInvalid):
        build_witness(s, Certificate(4, ResidueSubset.of(4, [0, 1]), SUFFICIENT), -40, 40)
    del bad


def test_window_too_small():
    with pytest.raises(WindowTooSmall):
        build_witness(EVEN_SET, EVEN_CERT, 0, 5)


def test_determinism():
    a = build_witness(EVEN_SET, EVEN_CERT, -26, 26)
    b = build_witness(EVEN_SET, EVEN_CERT, -26, 26)
    assert a == b


def test_window_stability_in_interior():
    s = validate_canonical(3, [0], (), [1, 2])
    cert = Certificate(3, ResidueSubset.of(3, [0]), SUFFICIENT)
    small = build_witness(s, cert, -30, 30)
    large = build_witness(s, cert, -60, 60)
    pad = small.margins.y0_margin + small.T
    inner = range(small.lo + pad, small.hi - pad + 1)
    small_kept = {d for d in small.d_elements if d in inner}
    large_kept = {d for d in large.d_elements if d in inner}
    assert small_kept == large_kept


def test_witness_agrees_with_window_complement_check():
    w = build_witness(EVEN_SET, EVEN_CERT, -40, 40)
    pad = w.margins.y0_margin + w.T + EVEN_SET.m
    d = WindowSet(w.lo - 2, w.hi, w.d_elements)
    report = verify_complement_window(d, EVEN_SET, w.lo + pad, w.hi - pad)
    assert report.ok


def test_random_exists_instances_verify():
    rng = random.Random(9)
    from conftest import random_canonical

    checked = 0
    for _ in range(120):
        s = random_canonical(rng, 4)
        v = decide(s, SearchConfig(t_max=6))
        if v.outcome is not Outcome.EXISTS or v.certificate is None:
            continue
        T = v.certificate.T
        w = build_witness(s, v.certificate, -20 * T - 10, 20 * T + 10)
        assert verify_coverage(s, w).ok
        assert verify_local_minimality(s, w).ok
        checked += 1
    assert checked >= 10


def test_serialization_round_trip():
    w = build_witness(EVEN_SET, EVEN_CERT, -24, 24)
    again = WitnessWindow.from_dict(w.to_dict())
    assert again == w
    assert verify_coverage(EVEN_SET, again).ok


# -- reference: the integer-by-integer walks the class arithmetic replaced --


def reference_class_integers(classes, lo, hi):
    return [n for n in range(lo, hi + 1) if (n % classes.modulus) in classes]


def reference_coverage(s, w):
    pad = w.margins.y0_margin + w.T
    inner_lo, inner_hi = w.lo + pad, w.hi - pad
    if inner_lo > inner_hi:
        return VerificationReport(
            False, (f"safe interval [{inner_lo}, {inner_hi}] is empty",)
        )
    d_set = set(w.d_elements)
    for n in range(inner_lo, inner_hi + 1):
        if (n % w.T) in w.c1:
            ok = any(d <= n and ((n - d) % s.m) in s.x_m for d in w.d_elements)
        else:
            ok = any(n - y in d_set for y in s.y1)
        if not ok:
            return VerificationReport(False, (f"uncovered integer {n}",), n)
    return VerificationReport(True)


def _random_classes(rng, T):
    return ResidueSubset(T, rng.getrandbits(T))


def tampered(rng, s, w):
    """Mutations of an honest window, each a record verify-witness may get."""
    T, d = w.T, list(w.d_elements)
    yield dataclasses.replace(w, d_elements=tuple(
        x for x in d if rng.random() > 0.05))
    yield dataclasses.replace(w, d_elements=tuple(sorted(
        d + rng.sample(range(w.lo, w.hi + 1), 3))))
    yield dataclasses.replace(w, d_elements=tuple(rng.sample(d, len(d))))
    yield dataclasses.replace(w, d_elements=tuple(
        d + rng.sample(d, min(len(d), 3))))
    yield dataclasses.replace(
        w, c1=_random_classes(rng, T), c2=_random_classes(rng, T))
    yield dataclasses.replace(w, lo=w.lo + rng.randint(-3 * T, 3 * T),
                              hi=w.hi + rng.randint(-3 * T, 3 * T))
    if s.m > 1:  # a forged modulus that is not a multiple of m
        T2 = rng.choice([t for t in range(1, 3 * T) if t % s.m])
        yield dataclasses.replace(
            w, T=T2, c=_random_classes(rng, T2), c1=_random_classes(rng, T2),
            c2=_random_classes(rng, T2))


def test_class_arithmetic_matches_integer_walk(monkeypatch):
    """Same witnesses and coverage reports as the integer walks, on honest
    and tampered windows; a forged T with m not dividing it is what needs
    the C1 walk over classes mod lcm(T, m) rather than mod T."""
    rng = random.Random(2024)
    from conftest import random_canonical

    compared = failed = 0
    while compared < 1500:
        s = random_canonical(rng, 6)
        v = decide(s, SearchConfig(t_max=2 * s.m))
        if v.outcome is not Outcome.EXISTS or v.certificate is None:
            continue
        T = v.certificate.T
        lo = -rng.randint(5, 10) * (T + 3) - rng.randrange(T)
        hi = rng.randint(5, 10) * (T + 3) + rng.randrange(T)
        try:
            w = build_witness(s, v.certificate, lo, hi)
        except WindowTooSmall:
            continue
        with monkeypatch.context() as patch:
            patch.setattr(witness, "_class_integers", reference_class_integers)
            assert build_witness(s, v.certificate, lo, hi).to_dict() == w.to_dict()
        for record in (w, *tampered(rng, s, w)):
            got, want = verify_coverage(s, record), reference_coverage(s, record)
            assert (got.ok, got.failures, got.first_uncovered) == (
                want.ok, want.failures, want.first_uncovered), record
            compared += 1
            failed += not want.ok
    assert failed >= 200
