import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import window_elements
from minadd import cli
from minadd.errors import MinaddError
from minadd.residues import ResidueSubset
from minadd.sets import (
    CanonicalSet,
    RawSet,
    canonicalize,
    lift_period,
    margins,
    validate_canonical,
)

# The running example: W = {2,4,7,8,9,12,13,17,18,22,23,...},
# pattern {2,3} mod 5 from 10 on, with five sporadic small elements.
EXAMPLE_RAW = RawSet(5, ResidueSubset.of(5, [2, 3]), 10, (2, 4, 7, 8, 9))


class TestValidate:
    def test_reference_decomposition_is_valid(self):
        s = validate_canonical(5, [2, 3], [-3], [-1, 4])
        assert s.m == 5
        assert s.y0 == (-3,)
        assert s.y1 == (-1, 4)

    def test_quasiperiodic_is_valid(self):
        s = validate_canonical(3, [0])
        assert s.y1 == ()

    def test_y1_residue_inside_x_rejected(self):
        with pytest.raises(MinaddError,
                           match="y1 element -3 has residue 2 inside x_m"):
            validate_canonical(5, [2, 3], [-3], [-3])

    def test_y0_positive_rejected(self):
        with pytest.raises(MinaddError, match="y0 element 2 is not negative"):
            validate_canonical(5, [2, 3], [2])

    def test_y0_residue_outside_x_rejected(self):
        with pytest.raises(MinaddError,
                           match="y0 element -1 has residue 4 outside x_m"):
            validate_canonical(5, [2, 3], [-1])

    def test_collections_are_read_as_sets(self):
        # a repeat is merged and a descent sorted, as ResidueSubset.of
        # reads x; set files and records refuse both before they get here
        assert validate_canonical(4, [0, 0], y0=[-4, -4], y1=[5, 1, 1]) == (
            validate_canonical(4, [0], y0=[-4], y1=[1, 5]))
        assert RawSet(4, ResidueSubset.of(4, [0]), 10, (5, 3, 3)).extras == (
            3, 5)

    @pytest.mark.parametrize("period", [0, -5])
    def test_non_positive_period_refused_by_its_modulus(self, period):
        # ResidueSubset keeps its modulus positive, so the modulus check
        # refuses every period below 1
        with pytest.raises(MinaddError,
                           match="^residues modulus must equal period$"):
            RawSet(period, ResidueSubset.of(5, [1]), 0)

    @pytest.mark.parametrize("m", [0, -5])
    def test_non_positive_m_refused_by_its_modulus(self, m):
        with pytest.raises(MinaddError,
                           match=f"^x_m modulus 5 does not match m={m}$"):
            CanonicalSet(m, ResidueSubset.of(5, [0]))
        with pytest.raises(MinaddError, match=f"^modulus must be positive, "
                                              f"got {m}$"):
            validate_canonical(m, [])


class TestCanonicalize:
    def test_running_example(self):
        s = canonicalize(EXAMPLE_RAW)
        assert (s.m, s.x_m.members(), s.shift) == (5, (2, 3), 10)
        assert s.y0 == (-8, -3, -2)
        assert s.y1 == (-6, -1)

    def test_running_example_membership(self):
        s = canonicalize(EXAMPLE_RAW)
        for n in range(0, 61):
            assert EXAMPLE_RAW.contains(n) == s.contains(n - s.shift)

    def test_identity_pattern(self):
        raw = RawSet(1, ResidueSubset.of(1, [0]), 0)
        s = canonicalize(raw)
        assert (s.m, s.x_m.members(), s.y0, s.y1, s.shift) == (1, (0,), (), (), 0)

    def test_finite_set_branch(self):
        raw = RawSet(2, ResidueSubset(2, 0), 2, (-4, 1))
        s = canonicalize(raw)
        assert s.is_finite
        assert s.shift == 0
        assert sorted(s.y0 + s.y1) == [-4, 1]

    def test_empty_set_rejected(self):
        # The empty set is not refused: it canonicalizes to the empty
        # canonical set, the form of a canonical file with x empty, which
        # decide answers NotExists.
        s = canonicalize(RawSet(2, ResidueSubset(2, 0), 0))
        assert s == validate_canonical(2, [])
        assert s.is_empty and s.shift == 0

    def test_residues_of_another_modulus_rejected(self):
        with pytest.raises(MinaddError, match="residues modulus must equal period"):
            RawSet(5, ResidueSubset.of(4, [0]), 0)

    def test_threshold_between_multiples_routes_to_y0(self):
        raw = RawSet(5, ResidueSubset.of(5, [2, 3]), 11, ())
        s = canonicalize(raw)
        assert s.shift == 15
        assert s.y0 == (-3, -2)  # the periodic elements 12, 13
        for n in range(5, 40):
            assert raw.contains(n) == s.contains(n - s.shift)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 6),
    x_bits=st.integers(1, 63),
    threshold=st.integers(-5, 25),
    data=st.data(),
)
def test_canonicalize_round_trip(m, x_bits, threshold, data):
    residues = ResidueSubset(m, x_bits & ((1 << m) - 1) or 1)
    extras = data.draw(
        st.lists(
            st.integers(threshold - 3 * m, threshold - 1),
            unique=True,
            max_size=4,
        )
    )
    raw = RawSet(m, residues, threshold, tuple(extras))
    s = canonicalize(raw)
    lo = min(extras, default=threshold) - 3 * m
    for n in range(lo, threshold + 3 * m + 1):
        assert raw.contains(n) == s.contains(n - s.shift)


class TestReflect:
    """An ``orientation = above`` file describes -W; the CLI canonicalizes
    -W and flags the record, so n in W <=> canonical.contains(-n - shift)."""

    @staticmethod
    def canonical_of_above(tmp_path, capsys, text):
        path = tmp_path / "above.set"
        path.write_text(text + "orientation = above\n")
        assert cli.main(["canonicalize", str(path), "--format", "json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["reflected"] is True
        return CanonicalSet.from_dict(result["canonical"])

    def test_downward_naturals(self, tmp_path, capsys):
        # W = {..., -1, 0}; the file describes {0, 1, 2, ...}
        s = self.canonical_of_above(
            tmp_path, capsys, "period = 1\nresidues = 0\nthreshold = 0\n")
        for n in range(-5, 6):
            assert s.contains(-n - s.shift) == (n <= 0)

    def test_negated_multiples_with_extra(self, tmp_path, capsys):
        # W = {..., -10, -5, 0} | {3}; the file describes {0,5,10,...} | {-3}
        s = self.canonical_of_above(
            tmp_path, capsys,
            "period = 5\nresidues = 0\nthreshold = 0\nextras = -3\n")
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(-60, 60)
            in_w = (n <= 0 and n % 5 == 0) or n == 3
            assert s.contains(-n - s.shift) == in_w

    def test_involution_on_membership(self, tmp_path, capsys):
        # W = {..., -10, -7, -4} | {-2, 0}; the file describes
        # {4, 7, 10, ...} | {0, 2}
        s = self.canonical_of_above(
            tmp_path, capsys,
            "period = 3\nresidues = 1\nthreshold = 4\nextras = 0,2\n")
        for n in range(-20, 21):
            in_w = (n <= -4 and n % 3 == 2) or n in (-2, 0)
            assert s.contains(-n - s.shift) == in_w


class TestLift:
    def test_lift_doubles_pattern(self):
        s = validate_canonical(5, [2, 3])
        ctx = lift_period(s, 2)
        assert ctx.T == 10
        assert ctx.x_t.members() == (2, 3, 7, 8)

    def test_lift_reduces_y1_mod_t(self):
        s = validate_canonical(5, [2, 3], [-3], [-1, 4])
        ctx = lift_period(s, 2)
        assert ctx.y1_res.members() == (4, 9)
        assert not (ctx.x_t.mask & ctx.y1_res.mask)

    def test_identity_lift(self):
        s = validate_canonical(5, [2, 3], [-3], [-1, 4])
        ctx = lift_period(s, 1)
        assert ctx.T == 5
        assert ctx.x_t == s.x_m

    @pytest.mark.parametrize("k", [0, -1])
    def test_lift_by_no_factor_rejected(self, k):
        s = validate_canonical(5, [2, 3], [-3], [-1, 4])
        with pytest.raises(MinaddError,
                           match=f"lift factor must be positive, got {k}"):
            lift_period(s, k)

    def test_lift_matches_shifted_copies(self):
        for m in range(1, 9):
            for x_mask in range(1, 1 << m):
                s = CanonicalSet(m, ResidueSubset(m, x_mask))
                for k in range(1, 9):
                    copies = 0
                    for i in range(k):
                        copies |= x_mask << (i * m)
                    assert lift_period(s, k).x_t.mask == copies

    def test_lift_preserves_periodic_membership(self):
        s = validate_canonical(6, [1, 4], (), [3])
        for k in (1, 2, 3, 5):
            ctx = lift_period(s, k)
            for n in range(0, 4 * ctx.T):
                assert ((n % s.m) in s.x_m) == ((n % ctx.T) in ctx.x_t)

    @pytest.mark.parametrize("m, k", [(10**20, 1), (5, 10**19)],
                             ids=["m", "T"])
    def test_lift_beyond_an_index_allocates_nothing(self, m, k):
        # No integer has 10**20 or 5 * 10**19 bits, so the lift fails
        # before it allocates, with OverflowError or MemoryError; a T whose
        # mask is possible but does not fit in memory is tested in
        # tests/test_cli.py by a MemoryError made to order.
        s = validate_canonical(m, [0], (), [1])
        tracemalloc.start()
        try:
            with pytest.raises(MinaddError,
                               match=f"modulus {m * k} is too large to lift") as exc:
                lift_period(s, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(exc.value.__cause__, (OverflowError, MemoryError))
        assert peak < 1 << 16


class TestWindowElements:
    def test_reference_window(self):
        s = validate_canonical(5, [2, 3], [-3], [-1, 4])
        assert window_elements(s, -5, 10) == [-3, -1, 2, 3, 4, 7, 8]

    def test_singleton_window_on_y0(self):
        s = validate_canonical(5, [2, 3], [-3], [-1, 4])
        assert window_elements(s, -3, -3) == [-3]

    def test_small_even_set(self):
        s = validate_canonical(2, [0], (), [1])
        assert window_elements(s, 0, 6) == [0, 1, 2, 4, 6]


def test_margins():
    s = validate_canonical(5, [2, 3], [-3], [-1, 4])
    marg = margins(s)
    assert (marg.y_plus, marg.y_minus) == (4, -3)
    assert marg.y0_margin == max(4, 3, 7) == 7
    with pytest.raises(MinaddError, match="margins are undefined when y0 and "
                                          "y1 are both empty"):
        margins(validate_canonical(3, [0]))


def test_canonical_serialization_round_trip():
    s = validate_canonical(5, [2, 3], [-3], [-1, 4], shift=5)
    assert CanonicalSet.from_dict(s.to_dict()) == s
