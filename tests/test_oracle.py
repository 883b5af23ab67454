import random
import re

import pytest

from conftest import random_context
from minadd.criteria import NECESSARY, SUFFICIENT, find_certificate
from minadd.errors import MinaddError
from minadd.oracle import (
    WindowSet,
    naive_find_certificate,
    verify_complement_window,
)
from minadd.residues import ResidueSubset
from minadd.sets import ConditionContext, validate_canonical


def ctx_of(T, x, y):
    return ConditionContext(T, ResidueSubset.of(T, x), ResidueSubset.of(T, y))


class TestNaiveSearch:
    def test_smallest_case(self):
        cert = naive_find_certificate(ctx_of(2, [0], [1]), SUFFICIENT)
        assert cert is not None and cert.c.members() == (0,)

    def test_three_class_kernel_refuted(self):
        assert naive_find_certificate(ctx_of(3, [0], [1]), NECESSARY) is None

    def test_cap(self):
        with pytest.raises(MinaddError,
                           match="reference search capped at T=16, got 17"):
            naive_find_certificate(ctx_of(17, [0], [1]), SUFFICIENT)

    def test_agreement_with_fast_search(self):
        rng = random.Random(42)
        for _ in range(120):
            ctx = random_context(rng, 1, 12)
            for variant in (NECESSARY, SUFFICIENT):
                slow = naive_find_certificate(ctx, variant)
                fast = find_certificate(ctx, variant)
                assert (slow is None) == (fast is None)
                if slow is not None:
                    assert slow.c == fast.c


class TestVerifyComplementWindow:
    def test_evens_cover(self):
        s = validate_canonical(2, [0], (), [1])
        d = WindowSet(-40, 40, tuple(range(-40, 41, 2)))
        assert verify_complement_window(d, s, -30, 30).ok

    def test_missing_element_detected(self):
        s = validate_canonical(2, [0], (), [1])
        d = WindowSet(-40, 40, tuple(n for n in range(-40, 41, 2) if n != 0))
        report = verify_complement_window(d, s, -5, 5)
        assert not report.ok and report.first_uncovered == 1

    def test_empty_complement_fails_at_window_start(self):
        s = validate_canonical(2, [0], (), [1])
        report = verify_complement_window(WindowSet(-40, 40, ()), s, -5, 5)
        assert not report.ok and report.first_uncovered == -5

    def test_margin_enforced(self):
        s = validate_canonical(2, [0], (), [1])
        d = WindowSet(-10, 10, tuple(range(-10, 11, 2)))
        with pytest.raises(MinaddError, match=re.escape(
                "window [-10, 10] must exceed [-10, 10] by at least 3 on each side")):
            verify_complement_window(d, s, -10, 10)

    def test_member_outside_window_rejected(self):
        with pytest.raises(MinaddError,
                           match=re.escape("member 5 outside window [0, 4]")):
            WindowSet(0, 4, (1, 5))
