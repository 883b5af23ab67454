"""Symmetries of the decision: maps of the input that keep ``decide``'s
answer.

- Dropping Y0.  Let C be periodic with m | T.  An element c' + y0, with y0
  in Y0, equals c'' + p for the element c'' = c' - k*T of the class of c'
  and some p in m*N + X, since y0 + k*T lies in m*N + X for k large.  So
  Y0 adds no sum and removes no private target, and C is a minimal
  complement of W iff it is one of W minus Y0.  The necessary form does
  not read Y0 either, so ``decide`` gives the same verdict, certificate
  included.
- Translating by a multiple t of m.  The residues stay, and
  ``canonicalize`` shifts by the least multiple of m at or above the
  threshold, so the canonical (m, x, y0, y1) stay and the shift grows by
  t.
- Translating by any t.  W + t has the minimal complement C - t iff W
  has C, so the outcome stays.  The residues rotate by t and the
  canonical form changes, but the reason and the modulus that ``decide``
  reports do not.

The draws are small (m <= 6, t_max = 2m), and hypothesis runs
derandomized (see ``conftest``).
"""

from hypothesis import given, settings, strategies as st

from minadd.criteria import SearchConfig, decide
from minadd.residues import ResidueSubset, rotate
from minadd.sets import RawSet, canonicalize, validate_canonical

SYMMETRY = settings(max_examples=200, deadline=None)


@st.composite
def canonical_sets(draw):
    """A canonical set with m <= 6, X nonempty, and Y0 and Y1 in [-12, 12]."""
    m = draw(st.integers(1, 6))
    x = ResidueSubset(m, draw(st.integers(1, (1 << m) - 1)))
    inside = [e for e in range(-12, 0) if e % m in x]
    outside = [e for e in range(-12, 13) if e % m not in x]
    y0 = draw(st.lists(st.sampled_from(inside), unique=True, max_size=3))
    y1 = draw(st.lists(st.sampled_from(outside), unique=True, max_size=3)
              if outside else st.just([]))
    return validate_canonical(m, x.members(), y0, y1)


@st.composite
def raw_sets(draw):
    """A raw set with period <= 6, residues nonempty, and up to 4 extras
    in the 3 periods below its threshold."""
    m = draw(st.integers(1, 6))
    residues = ResidueSubset(m, draw(st.integers(1, (1 << m) - 1)))
    threshold = draw(st.integers(-10, 10))
    extras = draw(st.lists(st.integers(threshold - 3 * m, threshold - 1),
                           unique=True, max_size=4))
    return RawSet(m, residues, threshold, tuple(extras))


def translate(raw: RawSet, t: int) -> RawSet:
    """The raw description of W + t."""
    m = raw.period
    return RawSet(m, ResidueSubset(m, rotate(raw.residues.mask, t, m)),
                  raw.threshold + t, tuple(e + t for e in raw.extras))


def answer(raw: RawSet):
    s = canonicalize(raw)
    v = decide(s, SearchConfig(t_max=2 * s.m))
    return v.outcome, v.reason, v.modulus


@SYMMETRY
@given(canonical_sets())
def test_y0_never_changes_the_verdict(s):
    without = validate_canonical(s.m, s.x_m.members(), (), s.y1, s.shift)
    cfg = SearchConfig(t_max=2 * s.m)
    assert decide(s, cfg) == decide(without, cfg)


@SYMMETRY
@given(raw_sets(), st.integers(-3, 3))
def test_translation_by_the_period_moves_only_the_shift(raw, k):
    t = k * raw.period
    s, moved = canonicalize(raw), canonicalize(translate(raw, t))
    assert (moved.m, moved.x_m, moved.y0, moved.y1) == (s.m, s.x_m, s.y0, s.y1)
    assert moved.shift == s.shift + t


@SYMMETRY
@given(raw_sets(), st.integers(-15, 15))
def test_translation_keeps_the_answer(raw, t):
    assert answer(translate(raw, t)) == answer(raw)
