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
- Restating at k*m.  The same set with period k*m, X written out k
  times, lifts to the same context at every common modulus, so a
  certificate of one form is a certificate of the other there.  Both
  answers are sound, so one form is never ``exists`` where the other is
  ``not-exists``.
- Reducing X to its minimal period d.  If X is d-periodic in Z_m then
  m*N + X = d*N + X_d, so the form at d describes the same set.
  ``canonicalize`` does not reduce the period yet, so the canonical
  forms and certificates differ, and only the outcome is compared.
- Reflecting.  An ``orientation = above`` file describes -W by the same
  fields, and a complement C of -W gives the complement -C of W, so the
  file decides as its ``below`` twin does, with ``reflected: true``.

The draws are small (m <= 6, t_max = 2m), and hypothesis runs
derandomized (see ``conftest``).
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from minadd import cli
from minadd.check import check_certificate
from minadd.criteria import Outcome, SearchConfig, decide
from minadd.residues import ResidueSubset, rotate
from minadd.sets import RawSet, canonicalize, lift_period, validate_canonical

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


def restated(s, k: int):
    """The canonical set ``s`` written with period k*m."""
    m = s.m
    return validate_canonical(
        k * m, [i * m + x for i in range(k) for x in s.x_m.members()],
        s.y0, s.y1, s.shift)


#: Sets with Y1 nonempty: the others are refused as quasiperiodic before
#: any search
SEARCHED = canonical_sets().filter(lambda s: s.y1)


@SYMMETRY
@given(SEARCHED, st.integers(2, 3))
def test_restatement_never_contradicts(s, k):
    wide = restated(s, k)
    assert lift_period(wide, 1) == lift_period(s, k)
    cfg = SearchConfig(t_max=2 * wide.m)
    narrow_v, wide_v = decide(s, cfg), decide(wide, cfg)
    assert {narrow_v.outcome, wide_v.outcome} != {Outcome.EXISTS,
                                                   Outcome.NOT_EXISTS}
    if wide_v.certificate is not None:
        # the narrow form scans every modulus the wide one does
        cert = wide_v.certificate
        assert check_certificate(lift_period(s, cert.T // s.m), cert)
        assert narrow_v.outcome is Outcome.EXISTS


@SYMMETRY
@given(SEARCHED, st.integers(2, 3))
def test_minimal_period_keeps_the_outcome(s, k):
    # the wide form's X repeats with period m, a proper divisor of k*m,
    # and s is the same set at that period
    wide = restated(s, k)
    cfg = SearchConfig(t_max=2 * wide.m)
    assert decide(wide, cfg).outcome == decide(s, cfg).outcome


def decide_record(text: str, t_max: int) -> tuple[int, dict]:
    """``minadd decide`` on a set file of ``text``: exit code and record."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.set"
        path.write_text(text)
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["decide", str(path), "--t-max", str(t_max),
                             "--format", "json"])
    return code, json.loads(out.getvalue())


@SYMMETRY
@given(raw_sets())
def test_reflection_decides_the_same_fields(raw):
    text = (f"period = {raw.period}\n"
            f"residues = {','.join(map(str, raw.residues.members()))}\n"
            f"threshold = {raw.threshold}\n"
            f"extras = {','.join(map(str, raw.extras))}\n")
    below_code, below = decide_record(text, 2 * raw.period)
    above_code, above = decide_record(text + "orientation = above\n",
                                      2 * raw.period)
    assert above_code == below_code
    for rec in (below, above):
        del rec["result"]["verdict"]["stats"]["wall_time"]
    assert (below["result"].pop("reflected"),
            above["result"].pop("reflected")) == (False, True)
    assert above["result"] == below["result"]
