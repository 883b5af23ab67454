import dataclasses
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from conftest import bounded_work, random_canonical
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
from minadd.sets import CanonicalSet, Margins, margins, validate_canonical
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
    # every odd target has exactly one preimage, so nothing is prunable
    assert w.d_elements == tuple(range(-20, 20, 2))  # evens in [-21, 19]


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
    )
    report = verify_coverage(EVEN_SET, pruned)
    assert not report.ok
    assert report.first_uncovered == victim + 1


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
    )
    report = verify_local_minimality(OVERLAP_SET, bloated)
    assert not report.ok


@pytest.mark.parametrize("size", [1, 0, -10],
                         ids=["one-integer", "empty", "hi-below-lo"])
def test_empty_safe_interval_fails_both_checks(size):
    # Narrow an honest window so that its safe interval [lo + pad, hi - pad]
    # is [0, size - 1]: one integer, none, and at -10 the window's own hi
    # lies below its lo.
    w = build_witness(EVEN_SET, EVEN_CERT, -30, 30)
    pad = w.margins.y0_margin + w.T
    lo, hi = -pad, pad + size - 1
    assert (hi < lo) == (size == -10)
    narrow = dataclasses.replace(w, lo=lo, hi=hi, d_elements=tuple(
        d for d in w.d_elements if lo <= d <= hi))
    for report in (verify_coverage(EVEN_SET, narrow),
                   verify_local_minimality(EVEN_SET, narrow)):
        if size > 0:
            assert report.ok
        else:
            assert report == VerificationReport(False, (
                f"safe interval [0, {size - 1}] is empty",))


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
    checked = uncovered = 0
    for _ in range(120):
        s = random_canonical(rng, 4)
        v = decide(s, SearchConfig(t_max=6))
        if v.outcome is not Outcome.EXISTS or v.certificate is None:
            continue
        T = v.certificate.T
        w = build_witness(s, v.certificate, -20 * T - 10, 20 * T + 10)
        assert verify_coverage(s, w).ok
        assert verify_local_minimality(s, w).ok
        # the fast coverage check matches the enumeration from the
        # definition, on the window and with one interior element removed
        inner_lo, inner_hi = witness._safe_interval(w)
        interior = [d for d in w.d_elements if inner_lo <= d <= inner_hi]
        victim = interior[len(interior) // 2]
        holed = dataclasses.replace(
            w, d_elements=tuple(d for d in w.d_elements if d != victim))
        for win in (w, holed):
            fast = verify_coverage(s, win)
            ds = win.d_elements
            d = WindowSet(min(win.lo, ds[0]), max(win.hi, ds[-1]), ds)
            slow = verify_complement_window(d, s, inner_lo, inner_hi)
            assert (fast.ok, fast.first_uncovered) == (slow.ok, slow.first_uncovered), s
            uncovered += not slow.ok
        checked += 1
    assert checked >= 10
    assert uncovered == checked, uncovered


def test_serialization_round_trip():
    w = build_witness(EVEN_SET, EVEN_CERT, -24, 24)
    again = WitnessWindow.from_dict(w.to_dict())
    assert again == w
    assert verify_coverage(EVEN_SET, again).ok


# -- reference: the integer-by-integer walks the class arithmetic and the
# -- periodic tiling replaced, and local minimality as defined --


def reference_class_integers(classes, lo, hi):
    T = classes.modulus
    return [n for n in range(lo, hi + 1) if classes.mask >> n % T & 1]


def reference_build_witness(s, cert, lo, hi):
    """The greedy prune walked candidate by candidate over a count array."""
    if cert.variant != SUFFICIENT:
        raise CertificateInvalid("witness construction needs a sufficient-variant certificate")
    c1, c2, marg = witness._derive(s, cert)
    T = cert.T
    if hi - lo < 4 * (marg.y0_margin + T):
        raise WindowTooSmall(
            f"window [{lo}, {hi}] shorter than {4 * (marg.y0_margin + T)}"
        )
    if not c2:
        raise CertificateInvalid("no uncovered residue classes; condition (b) cannot hold")

    targets = reference_class_integers(c2, lo, hi)
    pool = reference_class_integers(cert.c, lo - marg.y_plus, hi - marg.y_minus)

    target_set = set(targets)
    covers = {}  # d -> targets it reaches
    count = {t: 0 for t in targets}
    for d in pool:
        reached = [d + y for y in s.y1 if d + y in target_set]
        covers[d] = reached
        for t in reached:
            count[t] += 1

    kept = set(pool)
    for d in sorted(pool, reverse=True):
        # Only prune elements whose whole footprint sits inside the window.
        if d + marg.y_minus < lo or d + marg.y_plus > hi:
            continue
        if all(count[t] >= 2 for t in covers[d]):
            kept.discard(d)
            for t in covers[d]:
                count[t] -= 1

    return WitnessWindow(lo, hi, T, cert.c, c1, c2, marg, tuple(sorted(kept)))


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


def reference_minimality(s, w):
    """The definition: every interior element of D has some d + y (y in
    Y1) in a C2 class that no other element of D reaches."""
    outside = tuple(
        f"witness element {d} lies outside the certificate's classes"
        for d in w.d_elements if not w.c.mask >> d % w.T & 1
    )
    pad = w.margins.y0_margin + w.T
    inner_lo, inner_hi = w.lo + pad, w.hi - pad
    if inner_lo > inner_hi:
        return VerificationReport(
            False, (f"safe interval [{inner_lo}, {inner_hi}] is empty",)
        )
    if outside:
        return VerificationReport(False, outside)
    reached = Counter(d + y for d in set(w.d_elements) for y in s.y1)
    failures = []
    for d in w.d_elements:
        if not inner_lo <= d <= inner_hi:
            continue
        private = [d + y for y in s.y1
                   if reached[d + y] == 1 and (d + y) % w.T in w.c2]
        if not private:
            failures.append(f"element {d} has no private target")
    return VerificationReport(not failures, tuple(failures))


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


def test_class_arithmetic_matches_integer_walk():
    """Same witnesses and coverage reports as the integer walks, on honest
    and tampered windows; a forged T with m not dividing it is what needs
    the C1 walk over classes mod lcm(T, m) rather than mod T."""
    rng = random.Random(2024)
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
        assert w.to_dict() == reference_build_witness(
            s, v.certificate, lo, hi).to_dict()
        for record in (w, *tampered(rng, s, w)):
            got, want = verify_coverage(s, record), reference_coverage(s, record)
            assert (got.ok, got.failures, got.first_uncovered) == (
                want.ok, want.failures, want.first_uncovered), record
            compared += 1
            failed += not want.ok
    assert failed >= 200


# -- the verifiers, on bitmasks and on the walk, against the references --


def tampered_elements(rng, s, w):
    """(kind, record) for edits of one interior element of an honest
    window: "deleted"; "added", a pruned candidate, which reaches only
    targets that others reach too and so has no private target; and
    "moved" to a candidate that reaches the element's private target,
    which it then owns, so the window stays minimal unless the move takes
    another element's private target."""
    pad = w.margins.y0_margin + w.T
    inner_lo, inner_hi = w.lo + pad, w.hi - pad
    d_set = set(w.d_elements)
    interior = [d for d in w.d_elements if inner_lo <= d <= inner_hi]
    if not interior:
        return
    victim = rng.choice(interior)
    rest = d_set - {victim}
    yield "deleted", dataclasses.replace(w, d_elements=tuple(sorted(rest)))
    pruned = [n for n in range(inner_lo, inner_hi + 1)
              if n % w.T in w.c and n not in d_set]
    if pruned:
        added = d_set | {rng.choice(pruned)}
        yield "added", dataclasses.replace(w, d_elements=tuple(sorted(added)))
    reached = Counter(d + y for d in d_set for y in s.y1)
    moves = sorted({victim + y - z for y in s.y1 for z in s.y1
                    if reached[victim + y] == 1 and (victim + y - z) % w.T in w.c}
                   - d_set)
    if moves:
        moved = rest | {rng.choice(moves)}
        yield "moved", dataclasses.replace(w, d_elements=tuple(sorted(moved)))


def stretches(s, w):
    """The stretches the bitmask checks of coverage and of minimality
    read: the safe interval less max(Y1) and min(Y1), and widened by
    max(Y1) - min(Y1)."""
    inner_lo, inner_hi = witness._safe_interval(w)
    span = s.y1[-1] - s.y1[0]
    return ((inner_lo - s.y1[-1], inner_hi - s.y1[0]),
            (inner_lo - span, inner_hi + span))


def forged_stretch(rng, w):
    """Records with forged margins, the last also with a narrowed lo and
    hi, that put the safe interval so near the window's ends, or past
    them, that a check's stretch mostly reaches outside [lo, hi]."""
    T, marg = w.T, w.margins
    yield dataclasses.replace(w, margins=Margins(0, 0))
    k = rng.randint(1, 2 * T)
    yield dataclasses.replace(w, margins=Margins(-k, k))
    yield dataclasses.replace(w, margins=Margins(marg.y_plus - k, marg.y_minus))
    yield dataclasses.replace(
        w, lo=w.lo + rng.randint(0, 3 * T), hi=w.hi - rng.randint(0, 3 * T),
        margins=Margins(0, 0))


def same_report(got, want):
    return (got.ok, got.failures, got.first_uncovered) == (
        want.ok, want.failures, want.first_uncovered)


def count_mask_fits(monkeypatch):
    """Tally whether each verifier call found its stretch fit for the
    bitmask checks."""
    fits = Counter()
    fit = witness._masks_fit

    def counted(*args):
        fit_now = fit(*args)
        fits[fit_now] += 1
        return fit_now

    monkeypatch.setattr(witness, "_masks_fit", counted)
    return fits


def decide_pool_certificates():
    """(set, certificate) for every certificate of the decide pool, at its
    modulus and lifted to twice it."""
    pool = json.loads((DATA / "decide_pool.json").read_text())
    for stratum in pool["strata"]:
        for entry in stratum["entries"]:
            cert = entry["expected"].get("certificate")
            if cert is None:
                continue
            st = entry["set"]
            s = validate_canonical(st["m"], st["x"], st["y0"], st["y1"])
            for k in (1, 2):
                T = k * cert["T"]
                c = [r + i * cert["T"] for r in cert["c"] for i in range(k)]
                yield s, Certificate(T, ResidueSubset.of(T, c), SUFFICIENT)


def has_pruned_candidate(w) -> bool:
    """Some integer of a C class in the safe interval is not in D."""
    inner_lo, inner_hi = witness._safe_interval(w)
    kept = set(w.d_elements)
    return any(n % w.T in w.c and n not in kept
               for n in range(inner_lo, inner_hi + 1))


@pytest.mark.parametrize("masks", [True, False], ids=["bitmasks", "walk"])
def test_verifiers_match_references(monkeypatch, masks):
    """Same coverage and minimality reports as the definitions, on honest
    windows, on ``tampered`` ones and on ones with one interior element
    deleted, added or moved; once as shipped, and once with the bitmask
    checks forced off, so that the retained walk runs.  The random sets
    repeat classes in Y1, so that most of their windows have pruned
    candidates; the decide pool's certificates, whose wide spans of Y1
    make it prune, give the added and moved elements."""
    if not masks:
        monkeypatch.setattr(witness, "MASK_STRETCH", 0)
    fits = count_mask_fits(monkeypatch)
    rng = random.Random(99)
    compared = 0
    failed, edits = Counter(), Counter()
    pruned = 0
    honest = []

    def compare(s, record):
        nonlocal compared
        cov, mini = reference_coverage(s, record), reference_minimality(s, record)
        assert same_report(verify_coverage(s, record), cov), record
        assert same_report(verify_local_minimality(s, record), mini), record
        compared += 1
        failed["coverage"] += not cov.ok
        failed["minimality"] += not mini.ok
        return mini.ok

    while compared < 1200:
        s = random_canonical(rng, 6, repeat_classes=True)
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
        pruned += has_pruned_candidate(w)
        honest.append((s, w))
        for record in (w, *tampered(rng, s, w)):
            compare(s, record)
    for s, cert in decide_pool_certificates():
        try:
            w = build_witness(s, cert, *random_window(rng, s, cert.T, 10))
        except (CertificateInvalid, WindowTooSmall):
            continue
        compare(s, w)
        for kind, record in tampered_elements(rng, s, w):
            edits[kind, compare(s, record)] += 1
    # forged margins, on their own rng so that the draws above stay put
    forged_rng, outside = random.Random(7), 0
    for s, w in honest:
        for record in forged_stretch(forged_rng, w):
            compare(s, record)
            inner_lo, inner_hi = witness._safe_interval(record)
            outside += inner_lo <= inner_hi and any(
                a < record.lo or b > record.hi for a, b in stretches(s, record))
    assert outside >= 400, outside
    assert min(failed.values()) >= 200, failed
    assert pruned >= 100, pruned
    # an added element never owns a private target; a moved one mostly does
    assert edits["added", True] == 0 and edits["added", False] >= 50, edits
    assert edits["moved", True] >= 200, edits
    if masks:
        assert fits[True] >= 1500, fits
    else:
        assert fits[True] == 0, fits


def test_witness_pool_records_take_bitmask_path(monkeypatch):
    """Every canonical witness-pool form at the benchmark's window takes
    the bitmask checks, which accept the honest window without the walk,
    and gets the walk's reports, honest and with one element deleted."""
    fits = count_mask_fits(monkeypatch)
    stretch = witness.MASK_STRETCH
    pool = json.loads((DATA / "witness_pool.json").read_text())
    records = 0
    for groups in pool["by_m"].values():
        for group in groups:
            for inst in group:
                form = inst["forms"]["canonical"]
                cert = form["certificate"]
                s = CanonicalSet.from_dict(form["canonical"])
                T = cert["T"]
                w = build_witness(s, Certificate(
                    T, ResidueSubset.of(T, cert["c"]), SUFFICIENT), -8000, 8000)
                assert witness._minimal_by_masks(s, w, *witness._safe_interval(w))
                d = list(w.d_elements)
                del d[len(d) // 2]
                for record in (w, dataclasses.replace(w, d_elements=tuple(d))):
                    got = (verify_coverage(s, record),
                           verify_local_minimality(s, record))
                    monkeypatch.setattr(witness, "MASK_STRETCH", 0)
                    want = (verify_coverage(s, record),
                            verify_local_minimality(s, record))
                    monkeypatch.setattr(witness, "MASK_STRETCH", stretch)
                    assert all(map(same_report, got, want)), record
                    records += 1
    assert records >= 378
    # the walk's calls, with MASK_STRETCH at 0, are the False ones
    assert fits == {True: 2 * records, False: 2 * records}, fits


# -- the periodic tiling against the walk over every candidate --

DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def assert_same_build(s, cert, lo, hi):
    """build_witness and the reference give the same window, or both
    refuse."""
    try:
        want = reference_build_witness(s, cert, lo, hi)
    except (CertificateInvalid, WindowTooSmall) as exc:
        with pytest.raises(type(exc)):
            build_witness(s, cert, lo, hi)
        return False
    got = build_witness(s, cert, lo, hi)
    assert got.to_dict() == want.to_dict(), (s, cert, lo, hi)
    return True


def random_window(rng, s, T, widths):
    """A window at most ``widths`` T-blocks longer than the shortest one
    build_witness accepts, placed at random around 0."""
    width = 4 * (margins(s).y0_margin + T) + rng.randrange(widths * T + 1)
    lo = -rng.randrange(width + 1)
    return lo, lo + width


OUTCOMES = ("no repeat", "copied fewer", "copied more")


class CountedBlock(list):
    """A block's candidate list that counts the blocks the prune walks:
    one iteration each."""

    walked = 0

    def __iter__(self):
        self.walked += 1
        return super().__iter__()


def count_prune_outcomes(monkeypatch):
    """Tally, per build, how the prune ended: no block state repeated, so
    every block was walked; or a state repeated and fewer, or more, blocks
    were copied than walked.  Copying more than were walked tiles the
    cycle more than once."""
    outcomes = Counter()
    prune = witness._prune

    def counted(kept, base, T, block, span, top, bottom):
        block = CountedBlock(block)
        prune(kept, base, T, block, span, top, bottom)
        blocks = max(0, (top - bottom) // T + 1)
        copied = blocks - block.walked
        outcomes["no repeat" if not copied else
                 "copied fewer" if copied < block.walked else "copied more"] += 1

    monkeypatch.setattr(witness, "_prune", counted)
    return outcomes


def test_tiled_build_matches_reference_on_random_sets():
    """Random sets at t_max = 2m, so that lifted moduli occur, on windows
    from the shortest accepted one up to 400 blocks longer."""
    rng = random.Random(8)
    compared = lifted = merged = 0
    while compared < 300 or lifted < 10:
        s = random_canonical(rng, 8)
        v = decide(s, SearchConfig(t_max=2 * s.m))
        if v.outcome is not Outcome.EXISTS or v.certificate is None:
            continue
        T = v.certificate.T
        lo, hi = random_window(rng, s, T, rng.choice((0, 1, 4, 40, 400)))
        assert assert_same_build(s, v.certificate, lo, hi)
        compared += 1
        lifted += T > s.m
        merged += len(v.certificate.c) >= 2
    # 295 of the 583 builds have |C| >= 2 and so merge their classes
    assert merged >= 250, merged


def test_tiled_build_matches_reference_on_decide_pool(monkeypatch):
    """Every certificate of the decide pool, at its modulus and lifted to
    twice it, on windows at most one block longer than the shortest
    accepted: wide spans of Y1 there give long cycles, so some windows end
    before a state repeats and some repeat after most of the window was
    walked."""
    outcomes = count_prune_outcomes(monkeypatch)
    rng = random.Random(5)
    built = merged = 0
    for s, cert in decide_pool_certificates():
        lo, hi = random_window(rng, s, cert.T, 1)
        same = assert_same_build(s, cert, lo, hi)
        built += same
        merged += same and len(cert.c) >= 2
    assert built >= 1500
    # 1 444 of the 1 936 builds merge their classes
    assert merged >= 1200, merged
    assert min(outcomes[key] for key in OUTCOMES) >= 2, outcomes


# From the decide pool: span 29 and a cycle of several blocks, so that on
# short windows no state repeats, or one repeats after most blocks were walked.
LONG_CYCLE_SET = validate_canonical(5, [0], (), [-13, 1, 12, 16])
LONG_CYCLE_CERT = Certificate(5, ResidueSubset.of(5, [0, 2]), SUFFICIENT)


def test_tiled_build_matches_reference_on_short_windows(monkeypatch):
    """Every window from the shortest accepted one up to 40 blocks longer,
    at five offsets each: each length of the partial bottom block, and
    each way the prune can end, occurs."""
    outcomes = count_prune_outcomes(monkeypatch)
    shortest = 4 * (margins(LONG_CYCLE_SET).y0_margin + LONG_CYCLE_CERT.T)
    for width in range(shortest, shortest + 200):
        for lo in range(-width // 2 - 5, -width // 2):
            assert assert_same_build(LONG_CYCLE_SET, LONG_CYCLE_CERT, lo, lo + width)
    assert min(outcomes[key] for key in OUTCOMES) >= 100, outcomes


def witness_pool_certificates():
    """(set, certificate) for every witness-pool form; the raw forms
    share one canonical set, which is given once."""
    pool = json.loads((DATA / "witness_pool.json").read_text())
    seen = set()
    for groups in pool["by_m"].values():
        for group in groups:
            for inst in group:
                for form in inst["forms"].values():
                    key = json.dumps([form["canonical"], form["certificate"]])
                    if key in seen:
                        continue
                    seen.add(key)
                    cert = form["certificate"]
                    T = cert["T"]
                    yield CanonicalSet.from_dict(form["canonical"]), Certificate(
                        T, ResidueSubset.of(T, cert["c"]), SUFFICIENT)


def test_tiled_build_matches_reference_on_witness_pool():
    """Every witness-pool form at the benchmark's window."""
    built = merged = 0
    for s, cert in witness_pool_certificates():
        assert assert_same_build(s, cert, -8000, 8000)
        built += 1
        merged += len(cert.c) >= 2
    assert built >= 300
    # 180 of the 376 builds merge their classes
    assert merged >= 150, merged


def test_built_window_hands_over_its_indicator():
    """A window straight from build_witness carries, before any check
    reads it, the indicator of its own elements over [lo, hi]: on every
    witness-pool form, and on random sets whose candidate pool
    [lo - y_plus, hi - y_minus] ends below hi (y_minus > 0) or starts
    above lo (y_plus < 0)."""
    def assert_handed(w):
        assert vars(w)["_present"] == witness._indicator(
            list(w.d_elements), w.lo, w.hi), w

    built = 0
    for s, cert in witness_pool_certificates():
        assert_handed(build_witness(s, cert, -8000, 8000))
        built += 1
    assert built >= 300
    rng = random.Random(11)
    pool_misses = Counter()
    while min(pool_misses["y_minus > 0"], pool_misses["y_plus < 0"]) < 100:
        s = random_canonical(rng, 6)
        v = decide(s, SearchConfig(t_max=2 * s.m))
        if v.outcome is not Outcome.EXISTS or v.certificate is None:
            continue
        w = build_witness(s, v.certificate,
                          *random_window(rng, s, v.certificate.T, 4))
        assert_handed(w)
        pool_misses["y_minus > 0"] += w.margins.y_minus > 0
        pool_misses["y_plus < 0"] += w.margins.y_plus < 0


def test_pattern_and_indicator_match_definitions():
    """_pattern and _indicator bit by bit against their definitions: masks
    with stray high bits and negative ones (coverage passes ~C1), T from 1
    to 30, starts below 0, widths below T and far above it, and elements
    on both sides of [a, b]."""
    rng = random.Random(4)
    for T in range(1, 31):
        for _ in range(20):
            mask = rng.getrandbits(T)
            mask = rng.choice((mask, ~mask, mask | rng.getrandbits(40) << T))
            lo = rng.randint(-50 * T, 50)
            width = rng.choice((rng.randint(1, T), rng.randint(T, 40 * T)))
            assert witness._pattern(mask, T, lo, width) == sum(
                1 << j for j in range(width) if mask >> (lo + j) % T & 1)
            a, b = lo, lo + width - 1
            ds = sorted(rng.sample(range(a - 40, b + 41), rng.randint(0, 60)))
            assert witness._indicator(ds, a, b) == sum(
                1 << v - a for v in ds if a <= v <= b)


def test_checks_read_each_window_once(monkeypatch):
    """On every witness-pool window at the benchmark's window, coverage
    and minimality build one indicator of D between them, and none when
    the bitmasks are off.  A window from build_witness builds none, since
    the build hands over its own; one made by ``dataclasses.replace`` or
    loaded from its record reads its own elements, so an element deleted
    there is missed."""
    reads = Counter()
    indicator = witness._indicator

    def counted(*args):
        reads["now"] += 1
        return indicator(*args)

    monkeypatch.setattr(witness, "_indicator", counted)
    windows = [(s, build_witness(s, cert, -8000, 8000))
               for s, cert in witness_pool_certificates()]
    assert reads["now"] == 0
    for stretch in (witness.MASK_STRETCH, 0):
        monkeypatch.setattr(witness, "MASK_STRETCH", stretch)
        for s, built in windows:
            variants = [("replaced", dataclasses.replace(built), 1)]
            if stretch:  # the walk reads no indicator, whatever the window
                variants += [("built", built, 0),
                             ("loaded", WitnessWindow.from_dict(built.to_dict()), 1)]
            for kind, w, want in variants:
                reads.clear()
                assert verify_coverage(s, w).ok and verify_local_minimality(s, w).ok
                assert reads["now"] == (want if stretch else 0), (s, stretch, kind)
            d = list(built.d_elements)
            del d[len(d) // 2]
            assert not verify_coverage(
                s, dataclasses.replace(built, d_elements=tuple(d))).ok
    assert len(windows) >= 300


def test_wide_window_build_is_bounded():
    """A window of 200 001 integers costs a few hundred traced lines: the
    walk stops at the first repeated state and the rest is tiled.  The
    walk over every candidate runs about 2.25 M lines here and peaks at
    44 MB."""
    with bounded_work(max_lines=5_000):
        w = build_witness(OVERLAP_SET, OVERLAP_CERT, -100_000, 100_000)
    assert len(w.d_elements) == 50_001
