import dataclasses
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from conftest import bounded_work, random_canonical
from minadd import cli, sets, witness
from minadd.check import cond_a
from minadd.criteria import (
    NECESSARY,
    SUFFICIENT,
    Certificate,
    Outcome,
    SearchConfig,
    decide,
)
from minadd.errors import CertificateInvalid, WindowTooSmall
from minadd.oracle import WindowSet, private_target_owners, verify_complement_window
from minadd.residues import ResidueSubset
from minadd.sets import CanonicalSet, lift_period, margins, validate_canonical
from minadd.witness import (
    WitnessWindow,
    build_witness,
    verify_certificate,
    verify_coverage,
    verify_local_minimality,
)

DATA = Path(__file__).resolve().parents[1] / "bench" / "data"
CHECKS = (verify_certificate, verify_coverage, verify_local_minimality)


def lift_cut(c, lo, hi):
    """The elements of C + T*Z in [lo, hi], by definition."""
    return [n for n in range(lo, hi + 1) if n % c.modulus in c]


def checks_accept(s, w) -> bool:
    return all(check(s, w).ok for check in CHECKS)


def with_classes(w, c):
    """``w`` with its certificate's classes replaced by ``c``, and listed
    as the lift of ``c``."""
    return dataclasses.replace(w, c=c, d_elements=tuple(lift_cut(c, w.lo, w.hi)))


EVEN_SET = validate_canonical(2, [0], (), [1])
EVEN_CERT = Certificate(2, ResidueSubset.of(2, [0]), SUFFICIENT)


def test_even_witness_is_all_evens():
    w = build_witness(EVEN_SET, EVEN_CERT, -20, 20)
    # T = 2 is above span(Y1) = 0, so the certificate is its own witness
    assert (w.T, w.c.members()) == (2, (0,))
    assert w.d_elements == tuple(range(-20, 21, 2))


def test_even_witness_verifies():
    w = build_witness(EVEN_SET, EVEN_CERT, -30, 30)
    assert checks_accept(EVEN_SET, w)


def test_deleted_element_breaks_coverage():
    w = build_witness(EVEN_SET, EVEN_CERT, -30, 30)
    victim = 0
    pruned = dataclasses.replace(
        w,
        d_elements=tuple(d for d in w.d_elements if d != victim),
    )
    report = verify_coverage(EVEN_SET, pruned)
    assert not report.ok
    assert report.failures == (
        f"d_elements and the lift of (T, C) differ at {victim}",)


# With exceptions {1, 3} every odd target has two even preimages, so the
# candidate class genuinely overlaps and pruning has work to do.
OVERLAP_SET = validate_canonical(2, [0], (), [1, 3])
OVERLAP_CERT = Certificate(2, ResidueSubset.of(2, [0]), SUFFICIENT)


def test_redundant_element_fails_minimality():
    w = build_witness(OVERLAP_SET, OVERLAP_CERT, -40, 40)
    assert verify_local_minimality(OVERLAP_SET, w).ok
    # re-add a pruned class: its elements cover nothing privately
    pruned = next(r for r in range(0, w.T, 2) if r not in w.c)
    bloated = with_classes(w, ResidueSubset(w.T, w.c.mask | 1 << pruned))
    assert verify_coverage(OVERLAP_SET, bloated).ok
    report = verify_local_minimality(OVERLAP_SET, bloated)
    assert report.failures == (f"condition (b) fails at T = {w.T}",)


@pytest.mark.parametrize("width", [1, 0, -10],
                         ids=["one-integer", "empty", "hi-below-lo"])
def test_checks_do_not_depend_on_the_window(width):
    """The checks test (T, C), whatever the window, so a window that lists
    one integer or none passes nothing unchecked: it passes with the
    honest certificate and fails with one of its classes dropped."""
    s = validate_canonical(5, [0], (), [-13, 1, 12, 16])
    w = build_witness(s, Certificate(5, ResidueSubset.of(5, [0, 2]), SUFFICIENT),
                      -300, 300)
    assert len(w.c) >= 2
    lo = w.c.members()[0]
    hi = lo + width - 1
    narrow = dataclasses.replace(w, lo=lo, hi=hi,
                                 d_elements=tuple(lift_cut(w.c, lo, hi)))
    assert len(narrow.d_elements) == (width == 1)
    assert checks_accept(s, narrow)
    dropped = with_classes(narrow, ResidueSubset(w.T, w.c.mask & w.c.mask - 1))
    assert verify_coverage(s, dropped).failures == (
        f"condition (a) fails at T = {w.T}",)


def test_empty_certificate_fails_every_condition():
    w = with_classes(build_witness(EVEN_SET, EVEN_CERT, -20, 20),
                     ResidueSubset(2, 0))
    assert w.d_elements == ()
    assert verify_coverage(EVEN_SET, w).failures == ("condition (a) fails at T = 2",)
    assert verify_local_minimality(EVEN_SET, w).failures == (
        "the certificate has no classes",)


def test_overlapping_pruning_is_proper_and_sound():
    w = build_witness(OVERLAP_SET, OVERLAP_CERT, -40, 40)
    full_class = range(-40, 41, 2)
    assert len(w.d_elements) < len(full_class)
    assert checks_accept(OVERLAP_SET, w)


def test_no_overlap_keeps_whole_class():
    # With exceptions {1, 2} at period 3 each target has a unique preimage:
    # the full candidate class is already irredundant.
    s = validate_canonical(3, [0], (), [1, 2])
    cert = Certificate(3, ResidueSubset.of(3, [0]), SUFFICIENT)
    w = build_witness(s, cert, -30, 30)
    assert w.d_elements == tuple(range(-30, 31, 3))
    assert checks_accept(s, w)


def test_necessary_certificate_rejected():
    cert = Certificate(2, ResidueSubset.of(2, [0]), NECESSARY)
    with pytest.raises(CertificateInvalid):
        build_witness(EVEN_SET, cert, -30, 30)


def test_invalid_certificate_rejected():
    # C = {0, 1} covers through X alone, so neither element owns a sum
    s = validate_canonical(2, [0], (), [3])
    with pytest.raises(CertificateInvalid):
        build_witness(s, Certificate(4, ResidueSubset.of(4, [0, 1]), SUFFICIENT), -40, 40)


def test_lift_and_witness_build_no_string(monkeypatch):
    """The lift and the witness tile their masks by shifts: with ``bin``
    made to raise in both modules, which would write a mask out as a
    string, they return what they return unpatched.  The prune's cycle of
    (2, {0}) on Y1 = {-5, 3, 5} is tiled three times, from 4 to 12."""
    lifted = validate_canonical(6, [1, 4], (), [3])
    pruned = validate_canonical(2, [0], (), [-5, 3, 5])
    direct = validate_canonical(5, [0, 2], (), [1])
    builds = [(pruned, EVEN_CERT),
              (direct, Certificate(5, ResidueSubset.of(5, [0, 2]), SUFFICIENT))]

    def run():
        return ([lift_period(lifted, k).x_t for k in (1, 3)],
                [build_witness(s, cert, -40, 40) for s, cert in builds])

    want = run()
    assert want[0][1].mask == 0b010010_010010_010010
    assert [(w.T, w.c.members()) for w in want[1]] == [(12, (2, 6, 10)), (5, (0, 2))]

    def no_strings(value):
        raise AssertionError(f"{value:#x} was written out as a string")

    for module in (sets, witness):
        monkeypatch.setattr(module, "bin", no_strings, raising=False)
    assert run() == want


def test_window_too_small(tmp_path, capsys):
    """No window is too small when T > span(Y1), as nothing is walked:
    [0, 5] builds, and verify-witness accepts the record of
    ``minadd witness --window=0:5``."""
    w = build_witness(EVEN_SET, EVEN_CERT, 0, 5)
    assert w.d_elements == (0, 2, 4) and checks_accept(EVEN_SET, w)
    set_path = tmp_path / "even.set"
    set_path.write_text("m = 2\nx = 0\ny1 = 1\n")
    assert cli.main(["witness", str(set_path), "--window=0:5",
                     "--format", "json"]) == cli.EXIT_EXISTS
    record = tmp_path / "record.json"
    record.write_text(capsys.readouterr().out)
    assert cli.main(["verify-witness", str(record)]) == cli.EXIT_EXISTS


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
    """The checks accept every witness, and the enumeration from the
    definition covers its window; with one interior element removed, the
    check names that element and the enumeration finds an integer that
    the rest no longer covers."""
    rng = random.Random(9)
    checked = 0
    for _ in range(120):
        s = random_canonical(rng, 4)
        v = decide(s, SearchConfig(t_max=6))
        if v.outcome is not Outcome.EXISTS or v.certificate is None:
            continue
        T = v.certificate.T
        w = build_witness(s, v.certificate, -20 * T - 10, 20 * T + 10)
        assert checks_accept(s, w)
        pad = w.margins.y0_margin + w.T + s.m
        inner_lo, inner_hi = w.lo + pad, w.hi - pad
        interior = [d for d in w.d_elements if inner_lo <= d <= inner_hi]
        victim = interior[len(interior) // 2]
        holed = dataclasses.replace(
            w, d_elements=tuple(d for d in w.d_elements if d != victim))
        assert first_difference(verify_coverage(s, holed)) == victim
        for win, covered in ((w, True), (holed, False)):
            d = WindowSet(win.lo, win.hi, win.d_elements)
            slow = verify_complement_window(d, s, inner_lo, inner_hi)
            assert slow.ok == covered, s
        checked += 1
    assert checked >= 10


def test_serialization_round_trip():
    w = build_witness(EVEN_SET, EVEN_CERT, -24, 24)
    again = WitnessWindow.from_dict(w.to_dict())
    assert again == w
    assert verify_coverage(EVEN_SET, again).ok


def first_difference(report):
    """The integer at which a coverage report says the listing and the
    lift part, or None when none of its failures says so."""
    for text in report.failures:
        head, _, n = text.rpartition(" differ at ")
        if head == "d_elements and the lift of (T, C)":
            return int(n)
    return None


def reference_coverage(s, w):
    """(ok, first difference) of ``verify_coverage`` from the definitions:
    the lift's cut walked integer by integer over [lo, hi], and the first
    position at which the listing and the cut part."""
    if w.T % s.m or not cond_a(lift_period(s, w.T // s.m), w.c):
        return False, None
    listed, cut = list(w.d_elements), lift_cut(w.c, w.lo, w.hi)
    for k in range(max(len(listed), len(cut))):
        a = listed[k] if k < len(listed) else None
        b = cut[k] if k < len(cut) else None
        if a != b:
            return False, b if a is None else a if b is None else min(a, b)
    return True, None


def tampered_listings(rng, s, w):
    """Records ``verify_coverage`` may get: entries of the listing
    dropped, added, duplicated or shuffled, the window moved, and a period
    that m does not divide or a random class set at another multiple of m."""
    T, d = w.T, list(w.d_elements)
    yield dataclasses.replace(w, d_elements=tuple(
        x for x in d if rng.random() > 0.05))
    yield dataclasses.replace(w, d_elements=tuple(sorted(
        d + rng.sample(range(w.lo - 3 * T, w.hi + 3 * T), 3))))
    yield dataclasses.replace(w, d_elements=tuple(rng.sample(d, len(d))))
    yield dataclasses.replace(w, d_elements=tuple(sorted(
        d + rng.sample(d, min(len(d), 3)))))
    yield dataclasses.replace(w, lo=w.lo + rng.randint(-3 * T, 3 * T),
                              hi=w.hi + rng.randint(-3 * T, 3 * T))
    T2 = s.m * rng.randint(1, 4)
    c2 = ResidueSubset(T2, rng.getrandbits(T2) | 1)
    yield with_classes(w, c2)
    if s.m > 1:  # a forged modulus that is not a multiple of m
        T2 = rng.choice([t for t in range(1, 3 * T) if t % s.m])
        yield with_classes(w, ResidueSubset(T2, rng.getrandbits(T2) | 1))


def test_class_arithmetic_matches_integer_walk():
    """The listing check's arithmetic, over the |C| offsets of one period,
    gives the verdict and the first difference that walks over every
    integer of the window give, on honest and tampered records."""
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
        assert w.d_elements == tuple(lift_cut(w.c, lo, hi))
        for record in (w, *tampered_listings(rng, s, w)):
            got = verify_coverage(s, record)
            want = reference_coverage(s, record)
            assert (got.ok, first_difference(got)) == want, record
            compared += 1
            failed += not want[0]
    assert failed >= 700, failed


# -- the checks against the oracle, over several periods --

_ORACLE: dict = {}


def oracle_accepts(s, c, drop=(), add=()) -> bool:
    """Whether the lift of C, less ``drop`` and with ``add``, is a minimal
    complement of W by the oracle's definitions, on a window of three
    periods P = C's modulus and margins: every integer of [-g, P + g] is
    covered and every element of [0, P) owns a private target, where g is
    the set's y0_margin plus m.  The edits must lie in [0, P)."""
    key = (s, c, tuple(drop), tuple(add))
    if key not in _ORACLE:
        P, g = c.modulus, margins(s).y0_margin + s.m
        lo, hi = -2 * P - 2 * g - 1, P + 2 * g
        d = WindowSet(lo, hi, tuple(
            set(lift_cut(c, lo, hi)).difference(drop).union(add)))
        owners = private_target_owners(d, s, -g, P + g, P)
        _ORACLE[key] = verify_complement_window(d, s, -g, P + g).ok and all(
            e in owners for e in d.members if 0 <= e < P)
    return _ORACLE[key]


def witness_pool_certificates(forms=("canonical", "raw-below", "raw-above")):
    """(set, certificate) for every witness-pool form; the raw forms
    share one canonical set, which is given once."""
    pool = json.loads((DATA / "witness_pool.json").read_text())
    seen = set()
    for groups in pool["by_m"].values():
        for group in groups:
            for inst in group:
                for name in forms:
                    form = inst["forms"][name]
                    key = json.dumps([form["canonical"], form["certificate"]])
                    if key in seen:
                        continue
                    seen.add(key)
                    cert = form["certificate"]
                    T = cert["T"]
                    yield CanonicalSet.from_dict(form["canonical"]), Certificate(
                        T, ResidueSubset.of(T, cert["c"]), SUFFICIENT)


def decide_pool_certificates(lifts=(1, 2)):
    """(set, certificate) for every certificate of the decide pool, at its
    modulus and lifted to the given multiples of it."""
    pool = json.loads((DATA / "decide_pool.json").read_text())
    for stratum in pool["strata"]:
        for entry in stratum["entries"]:
            cert = entry["expected"].get("certificate")
            if cert is None:
                continue
            st = entry["set"]
            s = validate_canonical(st["m"], st["x"], st["y0"], st["y1"])
            for k in lifts:
                T = k * cert["T"]
                c = [r + i * cert["T"] for r in cert["c"] for i in range(k)]
                yield s, Certificate(T, ResidueSubset.of(T, c), SUFFICIENT)


def tampered(rng, s, w):
    """(checks' record, oracle's edits) for one class of the certificate
    dropped or added, and one element of the listing near 0 dropped or
    added; both sides must reject each."""
    c, P = w.c, w.T
    dropped = ResidueSubset(P, c.mask ^ 1 << rng.choice(c.members()))
    yield with_classes(w, dropped), (dropped, (), ())
    near = [d for d in w.d_elements if 0 <= d < P]
    victim = near[0]
    yield dataclasses.replace(w, d_elements=tuple(
        d for d in w.d_elements if d != victim)), (c, (victim,), ())
    missing = [r for r in range(P) if r not in c]
    if missing:
        r = rng.choice(missing)
        added = ResidueSubset(P, c.mask | 1 << r)
        yield with_classes(w, added), (added, (), ())
        yield dataclasses.replace(w, d_elements=tuple(sorted(
            w.d_elements + (r,)))), (c, (), (r,))


def eighty_blocks(s, T):
    """A window of 80 blocks of T around 0, more than any prune here
    walks, widened to the shortest window build_witness accepts."""
    g = 4 * margins(s).y0_margin
    return -40 * T - g, 40 * T + g


def assert_checks_match_oracle(rng, s, w) -> int:
    """The checks and the oracle both accept ``w``, and both reject each
    of its ``tampered`` copies; returns how many copies were compared."""
    assert checks_accept(s, w) and oracle_accepts(s, w.c), (s, w)
    copies = 0
    for record, (c, drop, add) in tampered(rng, s, w):
        assert not checks_accept(s, record), (s, record)
        assert not oracle_accepts(s, c, drop, add), (s, c, drop, add)
        copies += 1
    return copies


def test_checks_match_oracle():
    """Every canonical witness-pool form, and 300 random sets with repeated
    Y1 classes at t_max = 2m, most of whose certificates have T up to
    span(Y1) and so take the prune's cycle; each honest and tampered."""
    rng = random.Random(99)
    forms = copies = cycled = 0
    for s, cert in witness_pool_certificates(("canonical",)):
        w = build_witness(s, cert, *eighty_blocks(s, cert.T))
        copies += assert_checks_match_oracle(rng, s, w)
        forms += 1
    assert forms == 189
    sets = 0
    while sets < 300:
        s = random_canonical(rng, 6, repeat_classes=True)
        v = decide(s, SearchConfig(t_max=2 * s.m))
        if v.outcome is not Outcome.EXISTS or v.certificate is None:
            continue
        w = build_witness(s, v.certificate, *eighty_blocks(s, v.certificate.T))
        copies += assert_checks_match_oracle(rng, s, w)
        cycled += v.certificate.T <= s.y1[-1] - s.y1[0]
        sets += 1
    assert cycled >= 150, cycled
    assert copies >= 4 * (forms + sets) - 50, copies


# -- the build: its certificate is the window's, and the oracle's --


def assert_build_matches_oracle(s, cert, lo, hi) -> bool:
    """build_witness on [lo, hi] gives the certificate that it gives on the
    benchmark's window, listed by definition, which the checks and the
    oracle accept; or it raises WindowTooSmall.  Returns whether it
    built."""
    wide = build_witness(s, cert, -8000, 8000)
    try:
        w = build_witness(s, cert, lo, hi)
    except WindowTooSmall:
        return False
    assert (w.T, w.c) == (wide.T, wide.c), (s, cert, lo, hi)
    assert w.d_elements == tuple(lift_cut(w.c, lo, hi))
    assert checks_accept(s, w) and oracle_accepts(s, w.c), (s, cert)
    return True


def random_window(rng, s, T, widths):
    """A window at most ``widths`` T-blocks longer than the shortest one
    build_witness accepts, placed at random around 0."""
    width = 4 * (margins(s).y0_margin + T) + rng.randrange(widths * T + 1)
    lo = -rng.randrange(width + 1)
    return lo, lo + width


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
        assert assert_build_matches_oracle(s, v.certificate, lo, hi)
        compared += 1
        lifted += T > s.m
        merged += len(v.certificate.c) >= 2
    assert merged >= 250, merged


def test_tiled_build_matches_reference_on_decide_pool():
    """Every certificate of the decide pool, at its modulus and lifted to
    twice it where that stays a certificate, on windows at most one block
    longer than the shortest accepted, which holds every cycle there."""
    rng = random.Random(5)
    outcomes = Counter()
    for s, cert in decide_pool_certificates():
        lo, hi = random_window(rng, s, cert.T, 1)
        try:
            outcomes[assert_build_matches_oracle(s, cert, lo, hi)] += 1
        except CertificateInvalid:
            outcomes["invalid lift"] += 1
    assert outcomes == {True: 1936, "invalid lift": 196}, outcomes


# From a census of random sets: the prune's state first repeats after 30
# blocks, where the shortest window accepted spans 16.
LONG_CYCLE_SET = validate_canonical(5, [0], (), [-2, 1, 11, 13])
LONG_CYCLE_CERT = Certificate(5, ResidueSubset.of(5, [0, 1]), SUFFICIENT)


def test_tiled_build_matches_reference_on_short_windows():
    """Every window from the shortest accepted one up to 40 blocks longer,
    at five offsets each: the build raises WindowTooSmall exactly when the
    window spans fewer blocks than the prune walks before its state
    repeats, and otherwise gives one certificate."""
    shortest = 4 * (margins(LONG_CYCLE_SET).y0_margin + LONG_CYCLE_CERT.T)
    needed = prune_blocks(LONG_CYCLE_SET, LONG_CYCLE_CERT)
    built = Counter()
    for width in range(shortest, shortest + 200):
        for lo in range(-width // 2 - 5, -width // 2):
            ok = assert_build_matches_oracle(
                LONG_CYCLE_SET, LONG_CYCLE_CERT, lo, lo + width)
            assert ok == ((width + 1) // LONG_CYCLE_CERT.T >= needed), width
            built[ok] += 1
    assert min(built[True], built[False]) >= 100, built


def test_tiled_build_matches_reference_on_witness_pool():
    """Every witness-pool form at the benchmark's window."""
    built = merged = 0
    for s, cert in witness_pool_certificates():
        assert assert_build_matches_oracle(s, cert, -8000, 8000)
        built += 1
        merged += len(cert.c) >= 2
    assert built >= 300
    # 180 of the 376 builds merge their classes
    assert merged >= 150, merged


class CountedBlock(list):
    """A block's candidate list that counts the blocks the prune walks:
    one iteration each."""

    walked = 0

    def __iter__(self):
        self.walked += 1
        return super().__iter__()


def prune_blocks(s, cert) -> int:
    """How many blocks the prune walks before its state repeats, 0 when
    the certificate's T is above span(Y1) and no prune runs."""
    rules = []
    block_rules = witness._block_rules

    def counted(*args):
        rules.append(CountedBlock(block_rules(*args)))
        return rules[-1]

    witness._block_rules = counted
    try:
        build_witness(s, cert, -8000, 8000)
    finally:
        witness._block_rules = block_rules
    return rules[0].walked if rules else 0


def test_prune_block_counts_are_pinned():
    """The most blocks the prune walks before its state repeats: 19 over
    the witness pool, 28 over the decide pool and 12 over its lifts to
    twice the modulus that stay certificates, and 65 over a census of 1 500
    random sets with repeated Y1 classes; the benchmark's window of 16 001
    integers holds them all."""
    most = Counter()
    for s, cert in witness_pool_certificates():
        most["witness pool"] = max(most["witness pool"], prune_blocks(s, cert))
    for k in (1, 2):
        for s, cert in decide_pool_certificates((k,)):
            try:
                blocks = prune_blocks(s, cert)
            except CertificateInvalid:
                continue
            most[f"decide pool x{k}"] = max(most[f"decide pool x{k}"], blocks)
    rng = random.Random(3)
    for _ in range(1500):
        s = random_canonical(rng, 8, repeat_classes=True)
        v = decide(s, SearchConfig(t_max=2 * s.m))
        if v.outcome is Outcome.EXISTS and v.certificate is not None:
            most["census"] = max(most["census"], prune_blocks(s, v.certificate))
    assert most == {"witness pool": 19, "decide pool x1": 28,
                    "decide pool x2": 12, "census": 65}, most


def test_window_too_short_for_the_cycle():
    """A window that the minimum length admits but whose blocks end before
    the prune's state repeats raises WindowTooSmall, and one block more
    builds."""
    needed = prune_blocks(LONG_CYCLE_SET, LONG_CYCLE_CERT)
    T = LONG_CYCLE_CERT.T
    assert needed * T > 4 * (margins(LONG_CYCLE_SET).y0_margin + T)
    with pytest.raises(WindowTooSmall, match="does not repeat"):
        build_witness(LONG_CYCLE_SET, LONG_CYCLE_CERT, 0, (needed - 1) * T - 1)
    build_witness(LONG_CYCLE_SET, LONG_CYCLE_CERT, 0, needed * T - 1)


def test_wide_window_build_is_bounded():
    """A window of 200 001 integers costs a few hundred traced lines: the
    walk stops at the first repeated state, and the listing is written a
    class at a time."""
    with bounded_work(max_lines=5_000):
        w = build_witness(OVERLAP_SET, OVERLAP_CERT, -100_000, 100_000)
    assert len(w.d_elements) == 50_001
