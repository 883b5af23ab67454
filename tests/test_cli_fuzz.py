"""Fuzz the CLI's two file loaders and ``construct --slack``: every input
keeps the exit-code contract.

Exit 1 means "no minimal complement exists", so a traceback must never
reach it; whatever the file holds, ``cli.main`` returns a code in 0..4 and
raises nothing but argparse's exit on a usage error, whose code is 2.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from minadd import cli
from minadd.criteria import decide
from minadd.errors import MinaddError
from minadd.sets import UNREADABLE_PART, CanonicalSet, validate_canonical
from minadd.witness import WitnessWindow, build_witness

CODES = set(range(5))
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

small_int = st.integers(-40, 40)
# Integers too large to index memory by; 6 * 10**19 is a multiple of the
# record's m, so as T it passes the divisibility test and reaches the lift.
# Nothing between about 10**8 and 2**63 is drawn, since such a value could
# really allocate.
huge_int = st.sampled_from([2**63, -2**63, 10**20, -10**20, 6 * 10**19])
any_int = small_int | huge_int
int_list = st.lists(any_int, max_size=5).map(lambda xs: ",".join(map(str, xs)))
field_line = st.one_of(
    st.tuples(st.sampled_from(["period", "threshold", "m", "shift"]),
              st.one_of(any_int.map(str), st.text(max_size=4))),
    st.tuples(st.sampled_from(["residues", "extras", "x", "y0", "y1"]),
              st.one_of(int_list, st.text(max_size=6))),
    st.tuples(st.just("orientation"),
              st.sampled_from(["below", "above", "sideways"])),
    st.tuples(st.text(max_size=6), st.text(max_size=6)),
).map(lambda kv: f"{kv[0]} = {kv[1]}")
set_text = st.lists(field_line, max_size=6).map("\n".join)

json_value = st.recursive(
    st.none() | st.booleans() | any_int | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)

slack_int = st.integers(-3, 10**6).map(str)
slack_text = st.one_of(
    slack_int,
    st.tuples(st.sampled_from(["const:", "cycle:", ""]),
              st.lists(slack_int | st.text(max_size=3), max_size=4))
    .map(lambda kv: kv[0] + ",".join(kv[1])),
    # digits that str.isdigit or int accept beyond ASCII: '²', '①', '٣'
    st.text(st.sampled_from("0123456789+-_ :,²①٣"), max_size=6),
    st.text(max_size=8),
)


def valid_record() -> dict:
    s = validate_canonical(6, [0, 3], (), [1, 4, -7])
    w = build_witness(s, decide(s).certificate, -60, 60)
    return {"result": {"canonical": s.to_dict(), "witness": w.to_dict()}}


RECORD = valid_record()
FIELDS = [("canonical", k) for k in RECORD["result"]["canonical"]] + [
    ("witness", k) for k in RECORD["result"]["witness"]]
INT_FIELDS = [(part, key) for part, key in FIELDS
              if type(RECORD["result"][part][key]) is int]
# the library's reader of each record part, which verify-witness calls
READERS = {"canonical": CanonicalSet.from_dict, "witness": WitnessWindow.from_dict}


def exit_code(argv) -> int:
    """What the process exits with: ``cli.main``'s code, or the one
    argparse exits with on a usage error, such as ``--slack=--``."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(text=set_text | st.text(max_size=60))
def test_set_file_text(workdir, text):
    path = workdir / "input.set"
    path.write_text(text)
    assert cli.main(["canonicalize", str(path)]) in CODES
    assert cli.main(["decide", str(path), "--t-max", "6"]) in CODES


@FUZZ
@given(data=st.binary(max_size=40))
def test_set_file_bytes(workdir, data):
    path = workdir / "input.set"
    path.write_bytes(data)
    assert cli.main(["canonicalize", str(path)]) in CODES


@FUZZ
@given(edits=st.lists(st.tuples(st.sampled_from(FIELDS), json_value),
                      min_size=1, max_size=3),
       whole=st.none() | json_value)
def test_witness_record(workdir, edits, whole):
    record = json.loads(json.dumps(RECORD))
    for (part, key), value in edits:
        record["result"][part][key] = value
    path = workdir / "record.json"
    path.write_text(json.dumps(record if whole is None else whole))
    assert cli.main(["verify-witness", str(path)]) in CODES


@FUZZ
@given(edits=st.lists(st.tuples(st.sampled_from(INT_FIELDS), any_int),
                      min_size=1, max_size=3))
def test_witness_record_integers(workdir, edits):
    # m, shift, lo, hi, T and the margins; a T of 6 * 10**19 passes the
    # divisibility test and leaves the lift a mask it cannot allocate
    record = json.loads(json.dumps(RECORD))
    for (part, key), value in edits:
        record["result"][part][key] = value
    path = workdir / "record.json"
    path.write_text(json.dumps(record))
    assert cli.main(["verify-witness", str(path)]) in CODES


def test_unedited_record_verifies(workdir):
    path = workdir / "record.json"
    path.write_text(json.dumps(RECORD))
    assert cli.main(["verify-witness", str(path)]) == cli.EXIT_EXISTS


@pytest.mark.parametrize("part, key, value", [
    ("canonical", "x", [0, 0, 3]),
    ("canonical", "x", [3, 0]),
    ("canonical", "y0", [-6, -6]),
    ("canonical", "y0", [-6, -12]),
    ("canonical", "y1", [-7, 1, 1, 4]),
    ("canonical", "y1", [4, 1, -7]),
    ("witness", "c", [0, 0, 3, 6, 9]),
    ("witness", "c", [0, 6, 3, 9]),
    ("witness", "c", [2, 0, 0]),
])
def test_record_lists_are_read_as_written(workdir, capsys, part, key, value):
    # Read as sets, a repeat would be merged and a descent sorted, and the
    # record would verify (exit 0) though it lists no set it describes; a
    # set file's lists are refused the same way.  The CLI and the part's
    # library reader refuse it alike.
    record = json.loads(json.dumps(RECORD))
    record["result"][part][key] = value
    path = workdir / "record.json"
    path.write_text(json.dumps(record))
    assert cli.main(["verify-witness", str(path)]) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == (
        f"error: witness record: {key!r} is not strictly ascending\n")
    with pytest.raises(MinaddError) as exc:
        READERS[part](record["result"][part])
    assert str(exc.value) == f"witness record: {key!r} is not strictly ascending"


@pytest.mark.parametrize("part, key", FIELDS)
def test_readers_refuse_a_missing_field(workdir, capsys, part, key):
    # every field but the canonical shift, which reads as 0, is required
    record = json.loads(json.dumps(RECORD))
    del record["result"][part][key]
    path = workdir / "record.json"
    path.write_text(json.dumps(record))
    if key == "shift":
        assert cli.main(["verify-witness", str(path)]) == cli.EXIT_EXISTS
        assert READERS[part](record["result"][part]).shift == 0
        return
    assert cli.main(["verify-witness", str(path)]) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"error: {UNREADABLE_PART}\n"
    with pytest.raises(MinaddError) as exc:
        READERS[part](record["result"][part])
    assert str(exc.value) == UNREADABLE_PART


def rewritten(field):
    """A value for ``field``: any JSON, a short integer list, or, for a
    list field, its written entries reordered or repeated."""
    written = RECORD["result"][field[0]][field[1]]
    values = json_value | st.lists(st.integers(-12, 12), max_size=4)
    if isinstance(written, list) and written:
        values |= st.permutations(written) | st.lists(
            st.sampled_from(written), min_size=1, max_size=len(written) + 1)
    return st.tuples(st.just(field), values)


@FUZZ
@given(edits=st.lists(st.sampled_from(FIELDS).flatmap(rewritten),
                      min_size=1, max_size=3),
       extra=st.dictionaries(st.text(max_size=4), json_value, max_size=2))
def test_readers_neither_merge_sort_nor_coerce(edits, extra):
    # What a reader accepts, its to_dict gives back as written, but for
    # the keys it ignores; JSON text tells 1 from true and from 1.0.
    record = json.loads(json.dumps(RECORD))["result"]
    for (part, key), value in edits:
        record[part][key] = value
    for part, read in READERS.items():
        written = record[part]
        fields = written.copy()
        written.update((k, v) for k, v in extra.items() if k not in fields)
        try:
            got = read(written).to_dict()
        except MinaddError:
            continue
        assert json.dumps(got, sort_keys=True) == json.dumps(fields, sort_keys=True)


def relist(w: dict, T: int, c: list) -> None:
    """Give the record the certificate (T, c), listed as its lift."""
    w.update(T=T, c=sorted(c), d_elements=[
        n for n in range(w["lo"], w["hi"] + 1) if n % T in c])


def tamper_listing(w: dict, kind: str, i: int) -> None:
    ds = w["d_elements"]
    k = i % len(ds)
    missing = sorted(set(range(w["lo"], w["hi"] + 1)) - set(ds))
    if kind == "drop":
        del ds[k]
    elif kind == "add":
        ds.append(missing[i % len(missing)])
        ds.sort()
    else:  # move an entry to the nearest integer not listed above it
        ds[k] = min(n for n in missing + [w["hi"] + 1] if n > ds[k])
        ds.sort()


def tamper_certificate(w: dict, kind: str, i: int, residues: set) -> None:
    m = RECORD["result"]["canonical"]["m"]
    y1 = RECORD["result"]["canonical"]["y1"]
    if kind == "drop a class":
        c = list(w["c"])
        del c[i % len(c)]
        relist(w, w["T"], c)
    elif kind == "period not above span(Y1)":
        T = m * (1 + i % ((max(y1) - min(y1)) // m))
        relist(w, T, {r % T for r in residues} or {0})
    else:  # a period that m does not divide
        T = i * m + 1 + i % (m - 1)
        relist(w, T, {r % T for r in residues} or {0})


@FUZZ
@given(kind=st.sampled_from(["drop", "add", "move", "hi", "drop a class",
                             "period not above span(Y1)",
                             "period not a multiple of m"]),
       i=st.integers(0, 10**6),
       residues=st.sets(st.integers(0, 40), max_size=6))
def test_tampered_record_exits_four(workdir, kind, i, residues):
    """An entry of ``d_elements`` dropped, added or moved, a forged ``hi``,
    a class of the certificate dropped, or a period that is not above
    span(Y1) or that m does not divide, each listed as its lift."""
    record = json.loads(json.dumps(RECORD))
    w = record["result"]["witness"]
    if kind == "hi":
        w["hi"] = 10**12 + i
    elif kind in ("drop", "add", "move"):
        tamper_listing(w, kind, i)
    else:
        tamper_certificate(w, kind, i, residues)
    path = workdir / "record.json"
    path.write_text(json.dumps(record))
    assert cli.main(["verify-witness", str(path)]) == cli.EXIT_VERIFY_FAILED


@FUZZ
@given(steps=st.integers(-1, 4), spec=slack_text)
def test_construct_slack(steps, spec):
    # ``--slack=`` keeps a spec that starts with '-' an option value.
    assert exit_code(["construct", "--steps", str(steps),
                      f"--slack={spec}"]) in CODES
