"""The contract of decide's value types, ResidueSubset, ConditionContext,
Certificate and Verdict, and of the construction's, GeneratorState and
GeneratorReport.

Each is a frozen dataclass; decide's four write their constructors out,
and the construction's two keep the generated ones.  These tests pin what
callers see: fields and their order, defaults, equality, hash,
repr, immutability, ``dataclasses.replace``, pickle and deepcopy, and
the exception class and message of each bad argument.
"""

import copy
import dataclasses
import pickle

import pytest

from minadd.criteria import (
    Certificate,
    Outcome,
    Reason,
    SearchStats,
    Verdict,
)
from minadd.errors import MinaddError
from minadd.generator import GeneratorReport, GeneratorState
from minadd.residues import ResidueSubset
from minadd.sets import ConditionContext

X = ResidueSubset(4, 0b0101)
Y = ResidueSubset(4, 0b0010)
CERT = Certificate(4, ResidueSubset(4, 0b0011), "sufficient")

# type: (instance, an equal instance built anew, field names, repr,
# a field and a value that makes an unequal instance)
CASES = {
    "ResidueSubset": (
        ResidueSubset(4, 5), ResidueSubset(4, 5), ("modulus", "mask"),
        "ResidueSubset(modulus=4, mask=5)", ("mask", 4)),
    "ConditionContext": (
        ConditionContext(4, X, Y), ConditionContext(4, ResidueSubset(4, 5),
                                                    ResidueSubset(4, 2)),
        ("T", "x_t", "y1_res"),
        "ConditionContext(T=4, x_t=ResidueSubset(modulus=4, mask=5), "
        "y1_res=ResidueSubset(modulus=4, mask=2))",
        ("y1_res", ResidueSubset(4, 0b1010))),
    "Certificate": (
        CERT, Certificate(4, ResidueSubset(4, 3), "sufficient"),
        ("T", "c", "variant"),
        "Certificate(T=4, c=ResidueSubset(modulus=4, mask=3), "
        "variant='sufficient')",
        ("variant", "necessary")),
    "Verdict": (
        Verdict(Outcome.EXISTS, Reason.CERTIFICATE_AT_BASE, 4, CERT,
                SearchStats(3, 0.5)),
        Verdict(Outcome.EXISTS, Reason.CERTIFICATE_AT_BASE, 4,
                Certificate(4, ResidueSubset(4, 3), "sufficient"),
                SearchStats(3, 0.5)),
        ("outcome", "reason", "modulus", "certificate", "stats"),
        "Verdict(outcome=<Outcome.EXISTS: 'exists'>, "
        "reason=<Reason.CERTIFICATE_AT_BASE: 'certificate-at-base-period'>, "
        "modulus=4, certificate=Certificate(T=4, c=ResidueSubset(modulus=4, "
        "mask=3), variant='sufficient'), stats=SearchStats(subsets_examined=3, "
        "wall_time=0.5))",
        ("modulus", 8)),
    "GeneratorState": (
        GeneratorState((-1, -3), (-3, -14), ((1, 12), (14, 27)), (1,)),
        GeneratorState(tuple([-1, -3]), tuple([-3, -14]),
                       tuple([(1, 12), (14, 27)]), tuple([1])),
        ("d_seq", "c_seq", "runs", "slack_seq"),
        "GeneratorState(d_seq=(-1, -3), c_seq=(-3, -14), "
        "runs=((1, 12), (14, 27)), slack_seq=(1,))",
        ("runs", ((1, 12), (15, 27)))),
    "GeneratorReport": (
        GeneratorReport(2, True, None, ()),
        GeneratorReport(2, True, None, tuple([])),
        ("window_hi", "gaps_ok", "first_uncovered", "uniqueness_failures"),
        "GeneratorReport(window_hi=2, gaps_ok=True, first_uncovered=None, "
        "uniqueness_failures=())",
        ("first_uncovered", -3)),
}

pytestmark = pytest.mark.parametrize("name", sorted(CASES))


def test_equality_hash_and_repr(name):
    obj, twin, _, text, (field, value) = CASES[name]
    assert obj == twin and obj is not twin
    assert repr(obj) == text
    other = dataclasses.replace(obj, **{field: value})
    assert other != obj and getattr(other, field) == value
    assert hash(obj) == hash(twin)
    assert len({obj, twin, other}) == 2
    if name == "Verdict":
        # equality and hash follow the answer, not the search's counters
        again = dataclasses.replace(obj, stats=SearchStats(7, 0.25))
        assert again == obj and hash(again) == hash(obj)


def test_fields_in_order(name):
    obj, _, names, _, _ = CASES[name]
    assert tuple(f.name for f in dataclasses.fields(obj)) == names
    assert tuple(vars(obj)) == names


def test_frozen(name):
    obj, twin, names, _, _ = CASES[name]
    for field in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.extra = 1
    assert obj == twin


def test_replace_keeps_the_other_fields(name):
    obj, _, names, _, _ = CASES[name]
    same = dataclasses.replace(obj)
    assert same == obj and same is not obj
    assert all(getattr(same, f) is getattr(obj, f) for f in names)


def test_pickle_and_deepcopy_round_trip(name):
    obj, _, _, text, _ = CASES[name]
    for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(back) is type(obj) and back == obj and repr(back) == text
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(back, dataclasses.fields(back)[0].name, None)


def test_defaults(name):
    if name == "ResidueSubset":
        assert ResidueSubset(3) == ResidueSubset(3, 0) == ResidueSubset(modulus=3)
    elif name == "Verdict":
        a = Verdict(Outcome.UNKNOWN, Reason.SEARCH_EXHAUSTED)
        b = Verdict(Outcome.UNKNOWN, Reason.SEARCH_EXHAUSTED)
        assert (a.modulus, a.certificate) == (None, None)
        # each Verdict gets its own fresh stats, and None means the same
        assert a.stats == SearchStats() and a.stats is not b.stats
        c = Verdict(Outcome.UNKNOWN, Reason.SEARCH_EXHAUSTED, stats=None)
        assert c.stats == SearchStats() and c.stats is not a.stats
        assert c.to_dict()["stats"] == SearchStats().to_dict()
    else:
        with pytest.raises(TypeError):
            CASES[name][0].__class__()


# (arguments, exception class, message); where two arguments are bad, the
# first check in the constructor's order is the one raised
BAD = {
    "ResidueSubset": [
        ((0, 1), MinaddError, "modulus must be positive, got 0"),
        ((-2, -1), MinaddError, "modulus must be positive, got -2"),
        ((3, -1), MinaddError, "mask -0x1 has bits outside modulus 3"),
        ((3, 8), MinaddError, "mask 0x8 has bits outside modulus 3"),
        ((3, 0b1001), MinaddError, "mask 0x9 has bits outside modulus 3"),
    ],
    "ConditionContext": [
        ((5, X, Y), MinaddError, "context masks must use modulus T"),
        ((4, X, ResidueSubset(5, 2)), MinaddError,
         "context masks must use modulus T"),
        ((5, X, X), MinaddError, "context masks must use modulus T"),
        ((4, X, ResidueSubset(4, 0b0110)), MinaddError,
         "lifted periodic residues and exception residues overlap"),
    ],
    "Certificate": [],
    "Verdict": [],
    "GeneratorState": [],
    "GeneratorReport": [],
}


def test_bad_arguments(name):
    cls = type(CASES[name][0])
    for args, exc, message in BAD[name]:
        with pytest.raises(exc) as info:
            cls(*args)
        assert type(info.value) is exc and str(info.value) == message
