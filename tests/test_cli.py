import argparse
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import minadd
from conftest import bounded_work
from minadd import cli, criteria, generator, sets, witness as witness_mod
from minadd.errors import MinaddError
from minadd.residues import ResidueSubset, tile

PAPERLIKE = "period = 5\nresidues = 2,3\nthreshold = 10\nextras = 2,4,7,8,9\n"
EVEN = "m = 2\nx = 0\ny1 = 1\n"
QUASI = "m = 3\nx = 0\ny0 = -3\n"
FINITE = "m = 2\nx =\ny1 = 1,4\n"
FIVE = "m = 5\nx = 0,2\ny1 = 1\n"
# W bounded above, given as -W = {1} | {even n >= 2}
ABOVE_EVEN = ("period = 2\nresidues = 0\nthreshold = 2\nextras = 1\n"
              "orientation = above\n")
# (T, C) = (4, {0, 1}) has T up to span(Y1) = 4; the witness is the
# prune's cycle, (8, {0, 1, 4})
CYCLE = "m = 4\nx = 0\ny1 = 1,3,5\n"


@pytest.fixture
def setfile(tmp_path):
    def write(text, name="input.set"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run_json(capsys, argv):
    code = cli.main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParse:
    def test_raw_fields(self):
        fields = cli.parse_set_file(PAPERLIKE)
        assert fields["period"] == 5
        assert fields["extras"] == [2, 4, 7, 8, 9]

    def test_comments_and_blanks(self):
        fields = cli.parse_set_file("# header\n\nm = 2\nx = 0  # pattern\n")
        assert fields == {"m": 2, "x": [0]}

    def test_bad_line_rejected(self):
        with pytest.raises(MinaddError, match="line 1: expected 'key = value'"):
            cli.parse_set_file("m: 2\n")

    def test_unknown_field_rejected(self):
        with pytest.raises(MinaddError, match="line 1: unknown field 'modulus'"):
            cli.parse_set_file("modulus = 2\n")

    def test_mixed_forms_rejected(self, setfile, capsys):
        # One key of the other form is refused, never dropped: the raw file
        # alone is quasiperiodic (exit 1), and with ``y1 = 1`` it would
        # describe EVEN (exit 0).
        with pytest.raises(MinaddError, match="mixed raw and canonical fields in "
                                              "one file: raw period; canonical m"):
            cli.parse_set_file("m = 2\nperiod = 2\n")
        raw = "period = 2\nresidues = 0\nthreshold = 0\n"
        value = {"period": "2", "residues": "0", "threshold": "0",
                 "extras": "-1", "orientation": "below",
                 "m": "2", "x": "0", "y0": "-1", "y1": "1", "shift": "0"}
        for text, strays, want in (
                (raw, cli.CANONICAL_FORM, "raw period, residues, threshold; "
                                          "canonical {}"),
                (EVEN, cli.RAW_FORM, "raw {}; canonical m, x, y1")):
            for key in strays:
                path = setfile(f"{text}{key} = {value[key]}\n")
                for argv in (["canonicalize", path], ["decide", path],
                             ["witness", path, "--window=-8:8"]):
                    assert cli.main(argv) == cli.EXIT_BAD_INPUT, (key, argv)
                    assert capsys.readouterr().err == (
                        "error: mixed raw and canonical fields in one file: "
                        + want.format(key) + "\n")

    @pytest.mark.parametrize("text, key, value", [
        ("m = 5\ny1 = 1\n", "x", "0,2"),
        ("period = 5\nthreshold = 0\n", "residues", "0,2"),
        ("period = 5\nresidues = 0\nthreshold = 10\n", "extras", "1,4"),
        ("m = 5\nx = 0\ny1 = 1\n", "y0", "-10,-5"),
        ("m = 5\nx = 0\n", "y1", "1,4"),
    ], ids=["x", "residues", "extras", "y0", "y1"])
    @pytest.mark.parametrize("order", ["repeat", "descent"])
    def test_list_not_strictly_ascending(self, setfile, capsys, text, key,
                                         value, order):
        # The ascending list loads; a repeat or a descent is refused for
        # every list, never merged or sorted.
        assert cli.main(["canonicalize", setfile(f"{text}{key} = {value}\n")]) == (
            cli.EXIT_EXISTS)
        capsys.readouterr()
        a, b = value.split(",")
        bad = f"{a},{a}" if order == "repeat" else f"{b},{a}"
        line = text.count("\n") + 1
        for argv in (["canonicalize"], ["decide"], ["witness", "--window=-8:8"]):
            path = setfile(f"{text}{key} = {bad}\n")
            assert cli.main([argv[0], path] + argv[1:]) == cli.EXIT_BAD_INPUT
            assert capsys.readouterr().err == (
                f"error: line {line}: field {key!r}: list is not strictly "
                "ascending\n")

    def test_witness_pool_texts_load_as_recorded(self, tmp_path):
        # every committed benchmark input is a file of one form
        pool = json.loads((Path(__file__).resolve().parents[1] / "bench"
                           / "data" / "witness_pool.json").read_text())
        path = tmp_path / "pool.set"
        forms = [form for groups in pool["by_m"].values() for group in groups
                 for inst in group for form in inst["forms"].values()]
        for form in forms:
            path.write_text(form["text"])
            s, _, reflected = cli.load_set(str(path))
            assert (s.to_dict(), reflected) == (
                form["canonical"], form["reflected"]), form["text"]
        assert len(forms) == 567


class TestCanonicalize:
    def test_running_example(self, setfile, capsys):
        code, rec = run_json(capsys, ["canonicalize", setfile(PAPERLIKE)])
        assert code == 0
        canon = rec["result"]["canonical"]
        assert canon["m"] == 5 and canon["x"] == [2, 3]
        assert canon["shift"] == 10

    def test_huge_period_costs_time_in_residues(self, setfile, capsys):
        path = setfile("period = 10000000\nresidues = 0\nthreshold = 1\n")
        with bounded_work():
            code, rec = run_json(capsys, ["canonicalize", path])
        assert code == 0
        assert rec["result"]["canonical"] == {
            "m": 10000000, "x": [0], "y0": [], "y1": [], "shift": 10000000}

    def test_empty_set_exit_code(self, setfile, capsys):
        # the raw empty set has a canonical form: m = period, shift 0
        path = setfile("period = 2\nresidues =\nthreshold = 0\n")
        code, rec = run_json(capsys, ["canonicalize", path])
        assert code == cli.EXIT_EXISTS
        assert rec["result"]["canonical"] == {
            "m": 2, "x": [], "y0": [], "y1": [], "shift": 0}

    def test_zero_period(self, setfile, capsys):
        path = setfile("period = 0\nresidues =\nthreshold = 0\nextras = -1\n")
        assert cli.main(["canonicalize", path]) == cli.EXIT_BAD_INPUT

    def test_extra_at_threshold(self, setfile, capsys):
        path = setfile("period = 3\nresidues = 0\nthreshold = 5\nextras = 1,5\n")
        assert cli.main(["decide", path]) == cli.EXIT_BAD_INPUT

    def test_above_bounded_flagged(self, setfile, capsys):
        path = setfile(
            "period = 5\nresidues = 0\nthreshold = 0\nextras = -3\n"
            "orientation = above\n"
        )
        code, rec = run_json(capsys, ["canonicalize", path])
        assert code == 0
        assert rec["result"]["reflected"] is True


class TestDecide:
    def test_not_exists(self, setfile, capsys):
        code, rec = run_json(capsys, ["decide", setfile(PAPERLIKE)])
        assert code == cli.EXIT_NOT_EXISTS
        verdict = rec["result"]["verdict"]
        assert verdict["reason"] == "necessary-condition-failed"
        assert verdict["modulus"] == 5

    def test_exists(self, setfile, capsys):
        code, rec = run_json(capsys, ["decide", setfile(EVEN)])
        assert code == cli.EXIT_EXISTS
        assert rec["result"]["verdict"]["certificate"] == {
            "T": 2,
            "c": [0],
            "variant": "sufficient",
        }

    def test_quasiperiodic(self, setfile, capsys):
        code, rec = run_json(capsys, ["decide", setfile(QUASI)])
        assert code == cli.EXIT_NOT_EXISTS
        assert rec["result"]["verdict"]["reason"] == "quasiperiodic"

    def test_unknown(self, setfile, capsys):
        # no certificate at T = 5, the one modulus scanned
        path = setfile("m = 5\nx = 0,1\ny1 = -2,9\n")
        code, rec = run_json(capsys, ["decide", path, "--t-max", "5"])
        assert code == cli.EXIT_UNKNOWN
        assert rec["result"]["verdict"]["reason"] == "search-exhausted"
        assert rec["result"]["verdict"]["stats"]["subsets_examined"] > 0

    @pytest.mark.parametrize("text", [
        "period = 3\nresidues =\nthreshold = 0\n",
        "m = 3\nx =\n",
    ], ids=["raw", "canonical"])
    def test_empty_set_in_either_form(self, setfile, capsys, text):
        code, rec = run_json(capsys, ["decide", setfile(text)])
        assert code == cli.EXIT_NOT_EXISTS
        assert rec["result"]["canonical"] == {
            "m": 3, "x": [], "y0": [], "y1": [], "shift": 0}
        verdict = rec["result"]["verdict"]
        assert (verdict["outcome"], verdict["reason"]) == ("not-exists", "empty-set")

    def test_record_config(self, setfile, capsys):
        _, rec = run_json(capsys, ["decide", setfile(EVEN), "--t-max", "4"])
        assert rec["config"] == {"t_max": 4}

    def test_missing_file(self, capsys):
        assert cli.main(["decide", "/nonexistent.set"]) == cli.EXIT_BAD_INPUT

    def test_large_period(self, setfile, capsys):
        # The lexicographic sufficient search at T = 2000 adds one element
        # per level, 1000 levels deep, and hits, so the necessary search
        # does not run.
        path = setfile("m = 2000\nx = 0\ny1 = 1\n")
        with bounded_work():
            code, rec = run_json(capsys, ["decide", path])
        assert code == cli.EXIT_EXISTS
        cert = rec["result"]["verdict"]["certificate"]
        assert cert["c"] == list(range(0, 2000, 2))

    def test_refutes_above_the_limit(self, setfile, capsys):
        # m = 5, X = {1, 2, 3} restated with period 25, above
        # EXHAUSTIVE_LIMIT: the base necessary search refutes.
        path = setfile("m = 25\nx = 1,2,3,6,7,8,11,12,13,16,17,18,21,22,23\n"
                       "y0 = -9\ny1 = -15\n")
        code, rec = run_json(capsys, ["decide", path])
        assert code == cli.EXIT_NOT_EXISTS
        verdict = rec["result"]["verdict"]
        assert verdict["reason"] == "necessary-condition-failed"
        assert verdict["modulus"] == 25
        code, rec = run_json(capsys, ["witness", path, "--window=-40:40"])
        assert code == cli.EXIT_NOT_EXISTS
        assert "witness" not in rec["result"]

    def test_deterministic_payload(self, setfile, capsys):
        path = setfile(EVEN)
        _, rec1 = run_json(capsys, ["decide", path])
        _, rec2 = run_json(capsys, ["decide", path])
        for rec in (rec1, rec2):
            del rec["timing"]
            del rec["result"]["verdict"]["stats"]["wall_time"]
        assert rec1 == rec2


class TestWitness:
    def test_build_and_verify(self, setfile, tmp_path, capsys):
        code, rec = run_json(
            capsys, ["witness", setfile(EVEN), "--window=-40:40"]
        )
        assert code == 0
        assert rec["result"]["coverage"]["ok"]
        assert rec["result"]["minimality"]["ok"]
        # the certificate and the elements of its lift in the window, with
        # no classes or targets derived from them
        assert set(rec["result"]["witness"]) == {
            "lo", "hi", "T", "c", "y_plus", "y_minus", "d_elements"}
        record_path = tmp_path / "witness.json"
        record_path.write_text(json.dumps(rec))
        assert cli.main(["verify-witness", str(record_path)]) == 0

    def test_corrupted_record_fails(self, setfile, tmp_path, capsys):
        _, rec = run_json(capsys, ["witness", setfile(EVEN), "--window=-40:40"])
        witness = rec["result"]["witness"]
        victim = witness["d_elements"][len(witness["d_elements"]) // 2]
        witness["d_elements"].remove(victim)
        record_path = tmp_path / "corrupt.json"
        record_path.write_text(json.dumps(rec))
        assert cli.main(["verify-witness", str(record_path)]) == cli.EXIT_VERIFY_FAILED

    def test_no_certificate(self, setfile, capsys):
        code = cli.main(["witness", setfile(QUASI), "--window=-40:40"])
        assert code == cli.EXIT_NOT_EXISTS

    @pytest.mark.parametrize("text, code, reflected", [
        (ABOVE_EVEN, cli.EXIT_EXISTS, True),
        (EVEN, cli.EXIT_EXISTS, False),
        (QUASI, cli.EXIT_NOT_EXISTS, False),
        (FINITE, cli.EXIT_VERIFY_FAILED, False),
    ])
    def test_record_says_reflected(self, setfile, capsys, text, code,
                                   reflected):
        # an above-bounded file's witness is a complement of -W, on every
        # branch as in ``decide``'s record
        got, rec = run_json(capsys, ["witness", setfile(text), "--window=-40:40"])
        assert (got, rec["result"]["reflected"]) == (code, reflected)
        if text == ABOVE_EVEN:
            assert rec["result"]["canonical"] == {
                "m": 2, "x": [0], "y0": [], "y1": [-1], "shift": 2}
            assert rec["result"]["coverage"]["ok"]

    @pytest.mark.parametrize("window", ["-40:40", "-40:-2", "0:40"])
    def test_window_as_a_separate_token(self, setfile, capsys, window):
        # ``--window LO:HI`` runs as ``--window=LO:HI`` does, a negative
        # LO included, with the same record apart from its wall times; so
        # do the prefixes of ``--window`` that argparse takes for it.
        path = setfile(EVEN)
        runs = [run_json(capsys, ["witness", path, *spelling])
                for spelling in ([f"--window={window}"], ["--window", window],
                                 ["--w", window], ["--wind", window])]
        for _, rec in runs:
            del rec["timing"], rec["result"]["verdict"]["stats"]["wall_time"]
        assert all(run == runs[0] for run in runs)
        assert runs[0][0] == cli.EXIT_EXISTS

    def test_window_followed_by_an_option(self, setfile, capsys):
        # only a LO:HI token is taken as the value, so an option after
        # ``--window`` is still reported as its missing value
        with pytest.raises(SystemExit) as exc:
            cli.main(["witness", setfile(EVEN), "--window", "--t-max", "4"])
        assert exc.value.code == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err.endswith(
            "error: argument --window: expected one argument\n")

    def test_bad_window_costs_no_search(self, setfile, tmp_path, capsys,
                                        monkeypatch):
        # the window is parsed first: a bad one is reported before the
        # file is read or decided, also when the file is bad too
        def no_search(*args):
            raise AssertionError("decided a set for a bad window")

        monkeypatch.setattr(criteria, "decide", no_search)
        for path in (setfile(EVEN), str(tmp_path / "missing.set")):
            assert cli.main(["witness", path, "--window=4"]) == cli.EXIT_BAD_INPUT
            assert capsys.readouterr().err == (
                "error: bad window '4', expected LO:HI\n")


def built_window(text, window):
    """The ``witness`` record's result for the set file ``text`` on
    ``window``, or None when the command prints no record."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.set"
        path.write_text(text)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            cli.main(["witness", str(path), f"--window={window}",
                      "--format", "json"])
    return json.loads(out.getvalue())["result"] if out.getvalue() else None


def coverage_of_the_built_window(result) -> bool:
    """The ``witness`` record's coverage report is ``verify_coverage``'s,
    both halves, on the window the command built; returns whether it
    built one."""
    if result is None or "witness" not in result:
        return False
    s = sets.CanonicalSet.from_dict(result["canonical"])
    w = witness_mod.WitnessWindow.from_dict(result["witness"])
    assert result["coverage"] == witness_mod.verify_coverage(s, w).to_dict()
    assert result["coverage"]["ok"]
    return True


@pytest.mark.parametrize("text, window, T, listed", [
    (EVEN, "5:4", 2, 0),
    (EVEN, "8:8", 2, 1),
    (EVEN, "1001:1040", 2, 20),
    (CYCLE, "-60:60", 8, 46),
    (CYCLE, "1000:1200", 8, 76),
], ids=["empty", "one-integer", "off-origin", "prune", "prune-off-origin"])
def test_witness_reports_the_coverage_of_its_window(text, window, T, listed):
    # EVEN's certificate T = 2 is above span(Y1) = 0; CYCLE's T = 4 is
    # not above span(Y1) = 4, so the build takes the prune's cycle, T = 8.
    result = built_window(text, window)
    assert coverage_of_the_built_window(result)
    w = result["witness"]
    assert (w["T"], len(w["d_elements"])) == (T, listed)


@st.composite
def witness_inputs(draw):
    """A canonical set file with m <= 6, X nonempty, and one to four Y1
    elements in [-12, 12] where X leaves room, often two in one class so
    that the build prunes; and a window of 0 to 121 integers, lo in
    [-100, 100]."""
    m = draw(st.integers(1, 6))
    x = ResidueSubset(m, draw(st.integers(1, (1 << m) - 1)))
    outside = [e for e in range(-12, 13) if e % m not in x]
    y1 = sorted(draw(st.lists(st.sampled_from(outside), unique=True,
                              min_size=1, max_size=4)) if outside else [])
    lo = draw(st.integers(-100, 100))
    hi = lo + draw(st.integers(-1, 120))
    text = (f"m = {m}\nx = {','.join(map(str, x.members()))}\n"
            f"y1 = {','.join(map(str, y1))}\n")
    return text, f"{lo}:{hi}"


@settings(max_examples=150, deadline=None)
@given(witness_inputs())
def test_witness_coverage_is_verify_coverage(inputs):
    coverage_of_the_built_window(built_window(*inputs))


class TestConstruct:
    def test_two_steps(self, capsys):
        code, rec = run_json(
            capsys, ["construct", "--steps", "2", "--slack", "const:1"]
        )
        assert code == 0
        state = rec["result"]["state"]
        assert state["d_seq"] == [-1, -3]
        assert state["c_seq"] == [-3, -14]

    def test_report_passes(self, capsys):
        code, rec = run_json(capsys, ["construct", "--steps", "8"])
        assert code == 0
        report = rec["result"]["report"]
        assert set(report) == {"window_hi", "gaps_ok", "coverage_ok",
                               "first_uncovered", "uniqueness_failures"}
        assert report["gaps_ok"] and report["coverage_ok"]
        assert report["uniqueness_failures"] == []

    def test_cycle_slack(self, capsys):
        code, rec = run_json(
            capsys,
            ["construct", "--steps", "6", "--slack", "cycle:1,2,3"],
        )
        assert code == 0
        assert len(rec["result"]["state"]["slack_seq"]) == 5

    def test_bad_slack(self, capsys):
        assert (
            cli.main(["construct", "--steps", "3", "--slack", "weird:x"])
            == cli.EXIT_BAD_INPUT
        )

    def test_zero_steps(self, capsys):
        assert cli.main(["construct", "--steps", "0"]) == cli.EXIT_BAD_INPUT

    def test_zero_slack(self, capsys):
        argv = ["construct", "--steps", "3", "--slack", "const:0"]
        assert cli.main(argv) == cli.EXIT_BAD_INPUT

    def test_negative_slack(self, capsys):
        argv = ["construct", "--steps", "3", "--slack", "cycle:1,-2"]
        assert cli.main(argv) == cli.EXIT_BAD_INPUT

    def test_default_window_is_authoritative_bound(self, capsys):
        # the whole window [d_N, -c_{N-1} - 1] is checked, whatever N
        for steps in ("2", "5", "12"):
            code, rec = run_json(capsys, ["construct", "--steps", steps])
            assert code == 0
            c_seq = rec["result"]["state"]["c_seq"]
            report = rec["result"]["report"]
            assert report["window_hi"] == -c_seq[-2] - 1
            assert report["coverage_ok"] and report["first_uncovered"] is None

    def test_empty_window_is_bad_input(self, capsys):
        # A window end was the only way to ask for an empty window; the flag
        # is gone, so the request exits 2 as an unknown option.
        argv = ["construct", "--steps", "5", "--window-hi", "-100000"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_BAD_INPUT
        assert "unrecognized arguments: --window-hi" in capsys.readouterr().err

    def test_forty_steps_within_work_budget(self, capsys):
        # Rebuilding the sumset at every step ran 1.57 M lines here.
        with bounded_work(max_lines=600_000):
            code, rec = run_json(capsys, ["construct", "--steps", "40"])
        assert code == 0
        report = rec["result"]["report"]
        assert report["gaps_ok"] and report["coverage_ok"]
        assert report["uniqueness_failures"] == []


@pytest.fixture
def witness_record(setfile, capsys):
    """A valid ``witness`` run record for the evens plus the point 1."""
    _, rec = run_json(capsys, ["witness", setfile(EVEN), "--window=-40:40"])
    return rec


def verify_record(tmp_path, record) -> int:
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    return cli.main(["verify-witness", str(path)])


class TestVerifyWitness:
    def test_record_echoes_each_check(self, witness_record, tmp_path, capsys):
        path = tmp_path / "record.json"
        path.write_text(json.dumps(witness_record))
        code, rec = run_json(capsys, ["verify-witness", str(path)])
        assert code == 0
        assert {k: v["ok"] for k, v in rec["result"].items()} == {
            "certificate": True, "coverage": True, "minimality": True}

    @pytest.mark.parametrize("kind", ["decide", "construct"])
    def test_record_of_another_kind_is_named(self, setfile, tmp_path, capsys,
                                             kind):
        argv = [kind, setfile(EVEN)] if kind == "decide" else [kind, "--steps", "3"]
        _, record = run_json(capsys, argv)
        assert verify_record(tmp_path, record) == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            f"error: witness record: got a {kind!r} record, and "
            f"verify-witness reads a 'witness' record\n")

    def test_forged_margins_fail(self, witness_record, tmp_path, capsys):
        witness_record["result"]["witness"]["y_plus"] = 15
        assert verify_record(tmp_path, witness_record) == cli.EXIT_VERIFY_FAILED

    def test_modulus_not_multiple_of_period(self, tmp_path, capsys):
        record = {
            "canonical": {"m": 2, "x": [0], "y0": [], "y1": [1]},
            "witness": {"lo": -40, "hi": 40, "T": 3, "c": [0], "y_plus": 1,
                        "y_minus": 1, "d_elements": []},
        }
        assert verify_record(tmp_path, record) == cli.EXIT_VERIFY_FAILED

    def test_element_outside_certificate_classes_fails(
        self, witness_record, tmp_path, capsys
    ):
        witness_record["result"]["witness"]["d_elements"].append(1)  # odd
        assert verify_record(tmp_path, witness_record) == cli.EXIT_VERIFY_FAILED

    def test_huge_window_is_rejected_quickly(
        self, witness_record, tmp_path, capsys
    ):
        witness_record["result"]["witness"]["hi"] = 10**12
        path = tmp_path / "record.json"
        path.write_text(json.dumps(witness_record))
        with bounded_work():
            code, rec = run_json(capsys, ["verify-witness", str(path)])
        assert code == cli.EXIT_VERIFY_FAILED
        # the lift has 5 * 10**11 elements there; the listing ends at 40
        assert rec["result"]["coverage"] == {"ok": False, "failures": [
            "d_elements and the lift of (T, C) differ at 42"]}

    @pytest.mark.parametrize("hi", [10**7, 10**12])
    def test_far_apart_elements_are_checked_quickly(
        self, witness_record, tmp_path, capsys, hi
    ):
        # Three elements spread over a window of hi integers: the listing
        # is compared with the lift in steps of the listing, not of the
        # window.  The certificate (2, {0}) stands, so only the listing,
        # which lacks -40, fails.
        witness = witness_record["result"]["witness"]
        witness.update(hi=hi, d_elements=[-10, 0, hi // 10])
        path = tmp_path / "record.json"
        path.write_text(json.dumps(witness_record))
        with bounded_work():
            code, rec = run_json(capsys, ["verify-witness", str(path)])
        assert code == cli.EXIT_VERIFY_FAILED
        assert rec["result"]["coverage"] == {
            "ok": False, "failures": ["d_elements and the lift of (T, C) differ at -40"]}
        assert rec["result"]["minimality"] == {"ok": True, "failures": []}

    def test_huge_period_with_small_modulus_is_rejected_quickly(
        self, tmp_path, capsys
    ):
        # m does not divide T, so no check lifts the set: neither m nor
        # T bounds the work.
        record = {
            "canonical": {"m": 10**9, "x": [0], "y0": [], "y1": [1]},
            "witness": {"lo": -40, "hi": 40, "T": 2, "c": [0], "y_plus": 1,
                        "y_minus": 1, "d_elements": [-10, 0, 10]},
        }
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record))
        with bounded_work():
            code, rec = run_json(capsys, ["verify-witness", str(path)])
        assert code == cli.EXIT_VERIFY_FAILED
        assert {name: rep["failures"] for name, rep in rec["result"].items()} == {
            name: ["certificate modulus 2 is not a multiple of 1000000000"]
            for name in ("certificate", "coverage", "minimality")}

    def test_huge_period_and_window_are_checked_quickly(
        self, witness_record, tmp_path, capsys
    ):
        # T = 10**20 + 1 and a window of 10**22 integers: m = 2 does not
        # divide T, so the checks stop before the lift and the listing.
        witness_record["result"]["witness"].update(T=10**20 + 1, hi=10**22)
        path = tmp_path / "record.json"
        path.write_text(json.dumps(witness_record))
        with bounded_work():
            code, rec = run_json(capsys, ["verify-witness", str(path)])
        assert code == cli.EXIT_VERIFY_FAILED
        assert rec["result"]["coverage"] == {"ok": False, "failures": [
            f"certificate modulus {10**20 + 1} is not a multiple of 2"]}

    def test_forged_period_buys_no_bitmasks(
        self, witness_record, tmp_path, capsys
    ):
        # T = 10**6 + 2 and a window of 3T integers.  A period buys work
        # only through the lift, C-level and linear in T, and through the
        # |C| offsets of the listing check: no Python step per residue or
        # per integer of the window.
        T = 10**6 + 2
        witness = witness_record["result"]["witness"]
        witness.update(T=T, hi=3 * T)
        path = tmp_path / "record.json"
        path.write_text(json.dumps(witness_record))
        with bounded_work():
            code, rec = run_json(capsys, ["verify-witness", str(path)])
        assert code == cli.EXIT_VERIFY_FAILED
        assert rec["result"]["coverage"] == {"ok": False, "failures": [
            f"condition (a) fails at T = {T}"]}
        assert rec["result"]["minimality"] == {"ok": True, "failures": []}

    def test_huge_modulus_is_rejected_quickly(self, tmp_path, capsys):
        # Lifting to T = 2000000 and testing C = {0} cost time linear in T.
        record = {
            "canonical": {"m": 2, "x": [0], "y0": [], "y1": [1]},
            "witness": {"lo": -40, "hi": 40, "T": 2000000, "c": [0],
                        "y_plus": 1, "y_minus": 1, "d_elements": []},
        }
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record))
        with bounded_work():
            code, rec = run_json(capsys, ["verify-witness", str(path)])
        assert code == cli.EXIT_VERIFY_FAILED
        assert rec["result"] == {
            "certificate": {"ok": True, "failures": []},
            "coverage": {"ok": False, "failures": [
                "condition (a) fails at T = 2000000"]},
            "minimality": {"ok": True, "failures": []},
        }

    def test_invalid_certificate_fails(self, witness_record, tmp_path, capsys):
        # {0, 1} covers through X alone, so neither element owns a sum
        witness_record["result"]["witness"]["c"] = [0, 1]
        assert verify_record(tmp_path, witness_record) == cli.EXIT_VERIFY_FAILED

    def test_old_record_exits_four(self, witness_record, tmp_path, capsys):
        # A record from before witnesses were periodic certificates: the
        # classes C1 and C2 beside C, and the pruned candidates of the
        # window widened by the margins, here the evens of [-41, 39].
        witness = witness_record["result"]["witness"]
        witness.update(c1=[0], c2=[1], d_elements=list(range(-40, 39, 2)))
        assert verify_record(tmp_path, witness_record) == cli.EXIT_VERIFY_FAILED


def lift_listing(T, c, lo, hi):
    return [n for n in range(lo, hi + 1) if n % T in c]


def relisted(witness, T, c):
    """``witness`` with the certificate (T, c), listed as its lift."""
    witness.update(T=T, c=c, d_elements=lift_listing(T, c, witness["lo"],
                                                     witness["hi"]))


def drop_entry(w):
    del w["d_elements"][len(w["d_elements"]) // 2]


def add_entry(w):
    w["d_elements"].insert(0, w["d_elements"][0] - 1)


def move_entry(w):
    w["d_elements"][len(w["d_elements"]) // 2] += 1


class TestTamperedRecords:
    """Each edit of an honest record exits 4, and the checks that fail
    name what is wrong.  The record's certificate is the prune's cycle
    (8, {0, 1, 4}) for (T, C) = (4, {0, 1}), on the window [-60, 60]."""

    @pytest.fixture
    def record(self, setfile, capsys):
        _, rec = run_json(capsys, ["witness", setfile(CYCLE), "--window=-60:60"])
        witness = rec["result"]["witness"]
        assert (witness["T"], witness["c"]) == (8, [0, 1, 4])
        return rec

    def failures(self, tmp_path, capsys, record):
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record))
        code, rec = run_json(capsys, ["verify-witness", str(path)])
        assert code == cli.EXIT_VERIFY_FAILED
        return {name: rep["failures"] for name, rep in rec["result"].items()
                if not rep["ok"]}

    @pytest.mark.parametrize("edit, n", [
        (drop_entry, 1), (add_entry, -61), (move_entry, 1)],
        ids=["drop", "add", "move"])
    def test_listing_entry(self, record, tmp_path, capsys, edit, n):
        edit(record["result"]["witness"])
        assert self.failures(tmp_path, capsys, record) == {"coverage": [
            f"d_elements and the lift of (T, C) differ at {n}"]}

    def test_dropped_class(self, record, tmp_path, capsys):
        relisted(record["result"]["witness"], 8, [0, 1])
        assert self.failures(tmp_path, capsys, record) == {
            "coverage": ["condition (a) fails at T = 8"]}

    def test_period_not_above_span(self, record, tmp_path, capsys):
        # the decided certificate passes (a) and (b) at T = 4, but its lift
        # is not minimal: span(Y1) = 4 lets two Y1 sums of one class meet
        relisted(record["result"]["witness"], 4, [0, 1])
        assert self.failures(tmp_path, capsys, record) == {
            "minimality": ["T = 4 is not above span(Y1) = 4"]}

    def test_period_not_a_multiple_of_m(self, record, tmp_path, capsys):
        relisted(record["result"]["witness"], 9, [0, 1, 4])
        message = ["certificate modulus 9 is not a multiple of 4"]
        assert self.failures(tmp_path, capsys, record) == {
            "certificate": message, "coverage": message, "minimality": message}


def records(setfile, capsys):
    """The canonicalize, decide and construct records, without timings."""
    out = []
    for argv in (["canonicalize", setfile(PAPERLIKE)],
                 ["decide", setfile(EVEN)],
                 ["construct", "--steps", "6", "--slack", "cycle:1,2"]):
        _, rec = run_json(capsys, argv)
        del rec["timing"]
        rec["result"].get("verdict", {}).get("stats", {}).pop("wall_time", None)
        out.append(rec)
    return out


def containers(value):
    """Every list, tuple and dict in ``value``, once per path to it."""
    if isinstance(value, dict):
        yield value
        for v in value.values():
            yield from containers(v)
    elif isinstance(value, (list, tuple)):
        yield value
        for v in value:
            yield from containers(v)


def listed(value):
    """``value`` with every tuple in it read as a list, as JSON reads it."""
    if isinstance(value, dict):
        return {k: listed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [listed(v) for v in value]
    return value


def construct_record(steps, spec, wall_time):
    """The construct record built from list copies of the generated state
    and of its report, in the record's envelope."""
    state = generator.generate(steps, cli.parse_slack_spec(spec))
    report = generator.verify(state)
    return {
        "command": "construct",
        "input": {},
        "config": {"steps": steps, "slack": spec},
        "result": {
            "state": {"d_seq": list(state.d_seq),
                      "c_seq": list(state.c_seq),
                      "slack_seq": list(state.slack_seq),
                      "runs": [list(run) for run in state.runs]},
            "report": {"window_hi": report.window_hi,
                       "gaps_ok": report.gaps_ok,
                       "coverage_ok": report.coverage_ok,
                       "first_uncovered": report.first_uncovered,
                       "uniqueness_failures": list(report.uniqueness_failures)},
        },
        "timing": {"wall_time": wall_time},
        "version": minadd.__version__,
    }


def text_of(record, indent=0):
    """The text format of a record of dicts, lists and scalars: each key
    in sorted order, a dict under its key, any other value after it."""
    pad = "  " * indent
    out = ""
    for key in sorted(record):
        value = record[key]
        if isinstance(value, dict):
            out += f"{pad}{key}:\n" + text_of(value, indent + 1)
        else:
            out += f"{pad}{key} = {value}\n"
    return out


@pytest.mark.parametrize("spec", ["const:1", "const:2", "cycle:1,2,3"])
def test_construct_record_bytes(capsys, spec):
    # The state and report hand their tuples to the encoder, which writes
    # them as arrays, and the text format prints them as lists: both
    # outputs are the bytes that list copies of the state give, on every
    # state the construct benchmark builds, the wall time read back.
    for steps in range(2, 13):
        argv = ["construct", "--steps", str(steps), "--slack", spec]
        assert cli.main(argv + ["--format", "json"]) == cli.EXIT_EXISTS
        out = capsys.readouterr().out
        record = construct_record(
            steps, spec, json.loads(out)["timing"]["wall_time"])
        assert out == json.dumps(record, sort_keys=True) + "\n"
        assert cli.main(argv + ["--format", "text"]) == cli.EXIT_EXISTS
        out = capsys.readouterr().out
        wall = out.rsplit("wall_time = ", 1)[1].split("\n", 1)[0]
        assert out == text_of(construct_record(steps, spec, float(wall)))


class TestRecords:
    def test_parser_reused_after_bad_argv(self, setfile, capsys):
        before = records(setfile, capsys)
        with pytest.raises(SystemExit) as exc:
            cli.main(["construct", "--steps", "x"])
        assert exc.value.code == cli.EXIT_BAD_INPUT
        capsys.readouterr()
        assert records(setfile, capsys) == before

    @pytest.mark.parametrize("argv", [
        ["canonicalize", PAPERLIKE],
        ["decide", EVEN],
        ["witness", EVEN, "--window=-40:40"],
        ["verify-witness"],
        ["construct", "--steps", "5"],
        ["construct", "--steps", "12"],
    ])
    def test_json_is_one_line_of_the_record(self, setfile, witness_record,
                                            tmp_path, capsys, monkeypatch,
                                            argv):
        # Every command's record is a tree, each list and dict reached
        # once, that round-trips through json: what encoding it without
        # json's cycle scan relies on.
        emitted = []
        emit = cli._emit
        monkeypatch.setattr(
            cli, "_emit", lambda rec, fmt: (emitted.append(rec), emit(rec, fmt)))
        if argv[0] == "verify-witness":
            path = tmp_path / "record.json"
            path.write_text(json.dumps(witness_record))
            argv = [argv[0], str(path)]
        elif argv[0] != "construct":
            argv = [argv[0], setfile(argv[1])] + argv[2:]
        cli.main(argv + ["--format", "json"])
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        assert json.loads(out) == listed(emitted[0])
        reached = list(containers(emitted[0]))
        assert len({id(c) for c in reached}) == len(reached)

    def test_every_command_records_the_version(self, witness_record, setfile,
                                               tmp_path, capsys):
        path = tmp_path / "record.json"
        path.write_text(json.dumps(witness_record))
        recs = [witness_record] + [
            run_json(capsys, argv)[1]
            for argv in (["canonicalize", setfile(PAPERLIKE, "paperlike.set")],
                         ["decide", setfile(EVEN, "even.set")],
                         ["witness", setfile(QUASI, "quasi.set"),
                          "--window=-40:40"],
                         ["verify-witness", str(path)],
                         ["construct", "--steps", "1"],
                         ["construct", "--steps", "3"])]
        assert {rec["command"] for rec in recs} == {
            "canonicalize", "decide", "witness", "verify-witness", "construct"}
        assert all(rec["version"] == minadd.__version__ for rec in recs)

    def test_every_record_has_the_one_envelope(self, witness_record, setfile,
                                               tmp_path, capsys):
        path = tmp_path / "record.json"
        path.write_text(json.dumps(witness_record))
        runs = [(argv, run_json(capsys, argv)) for argv in (
            ["canonicalize", setfile(PAPERLIKE, "paperlike.set")],
            ["decide", setfile(EVEN, "even.set")],
            ["witness", setfile(EVEN, "even.set"), "--window=-40:40",
             "--t-max", "4"],
            ["witness", setfile(QUASI, "quasi.set"), "--window=-40:40"],
            ["witness", setfile(FINITE, "finite.set"), "--window=-40:40"],
            ["verify-witness", str(path)],
            ["construct", "--steps", "3"],
        )]
        assert [code for _, (code, _) in runs] == [
            cli.EXIT_EXISTS, cli.EXIT_EXISTS, cli.EXIT_EXISTS,
            cli.EXIT_NOT_EXISTS, cli.EXIT_VERIFY_FAILED, cli.EXIT_EXISTS,
            cli.EXIT_EXISTS]
        for argv, (_, rec) in runs:
            assert set(rec) == {"command", "input", "config", "result",
                                "timing", "version"}, argv
            assert rec["command"] == argv[0]
        assert [rec["config"] for argv, (_, rec) in runs
                if argv[0] == "witness"] == [
            {"t_max": 4, "window": "-40:40"},
            {"t_max": None, "window": "-40:40"},
            {"t_max": None, "window": "-40:40"}]

    def test_config_is_every_option_but_file_and_format(
            self, witness_record, setfile, tmp_path, capsys):
        # main reads the config off the parsed options, so an option that a
        # command gains shows in its records with no per-command copy
        path = tmp_path / "record.json"
        path.write_text(json.dumps(witness_record))
        argvs = {
            "canonicalize": [setfile(PAPERLIKE, "paperlike.set")],
            "decide": [setfile(EVEN, "even.set"), "--t-max", "6"],
            "witness": [setfile(EVEN, "even.set"), "--window=-40:40"],
            "verify-witness": [str(path)],
            "construct": ["--steps", "3", "--slack", "cycle:1,2"],
        }
        _, commands = cli._parsers()
        assert argvs.keys() == commands.keys()
        for name, argv in argvs.items():
            _, rec = run_json(capsys, [name, *argv])
            sub = commands[name]
            options = {action.dest for action in sub._actions} - {
                "help", "file", "format"}
            parsed = vars(sub.parse_args(argv))
            assert rec["config"] == {dest: parsed[dest] for dest in options}, name

    def test_finite_set_witness_explains_exit_four(self, setfile, capsys):
        assert cli.main(["witness", setfile(FINITE), "--window=-4:4"]) == (
            cli.EXIT_VERIFY_FAILED)
        assert capsys.readouterr().err == (
            "no certificate on this branch; witness unavailable\n")


class TestBadInputNeverExitsOne:
    def test_directory_as_set_file(self, tmp_path, capsys):
        assert cli.main(["decide", str(tmp_path)]) == cli.EXIT_BAD_INPUT

    def test_non_utf8_set_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.set"
        path.write_bytes(b"m = 2\nx = 0\ny1 = 1 # \xe9\xff\n")
        assert cli.main(["decide", str(path)]) == cli.EXIT_BAD_INPUT

    def test_record_is_a_list(self, tmp_path, capsys):
        assert verify_record(tmp_path, [1, 2, 3]) == cli.EXIT_BAD_INPUT

    def test_legacy_provenance_is_ignored(self, witness_record, tmp_path, capsys):
        # Older records carried a map from each element to its target; the
        # checks derive the targets, so the map is not read.
        witness = witness_record["result"]["witness"]
        for provenance in ({str(d): d + 1 for d in witness["d_elements"]}, "junk"):
            witness["provenance"] = provenance
            assert verify_record(tmp_path, witness_record) == cli.EXIT_EXISTS

    def test_non_integer_provenance_key(self, witness_record, tmp_path, capsys):
        # A malformed legacy map is ignored too, not a reason to refuse.
        witness_record["result"]["witness"]["provenance"] = {"x": None}
        assert verify_record(tmp_path, witness_record) == cli.EXIT_EXISTS

    @pytest.mark.parametrize("field, value", [
        ("d_elements", True), ("d_elements", 2.0), ("c", False)])
    def test_non_integer_list_entry(
        self, witness_record, tmp_path, capsys, field, value
    ):
        witness_record["result"]["witness"][field].append(value)
        assert verify_record(tmp_path, witness_record) == cli.EXIT_BAD_INPUT
        # the library reader refuses the same part, with the same message
        with pytest.raises(MinaddError) as exc:
            witness_mod.WitnessWindow.from_dict(witness_record["result"]["witness"])
        assert str(exc.value) == sets.UNREADABLE_PART

    @pytest.mark.parametrize("value", [True, 1.0, "1"])
    def test_non_integer_provenance_value(
        self, witness_record, tmp_path, capsys, value
    ):
        witness_record["result"]["witness"]["provenance"] = {"0": value}
        assert verify_record(tmp_path, witness_record) == cli.EXIT_EXISTS

    def test_string_lo(self, witness_record, tmp_path, capsys):
        witness_record["result"]["witness"]["lo"] = "-40"
        assert verify_record(tmp_path, witness_record) == cli.EXIT_BAD_INPUT
        with pytest.raises(MinaddError) as exc:
            witness_mod.WitnessWindow.from_dict(witness_record["result"]["witness"])
        assert str(exc.value) == sets.UNREADABLE_PART

    @pytest.mark.parametrize("spec", [
        "²", "①", "const:²", "cycle:1,²",
        pytest.param("1" * 5000, id="5000-digits")])
    def test_non_decimal_slack(self, capsys, spec):
        # '²' and '①' pass str.isdigit but not int; 5000 digits pass
        # neither the digit limit of int.
        argv = ["construct", "--steps", "3", "--slack", spec]
        assert cli.main(argv) == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: bad slack spec")

    @pytest.mark.parametrize("spec", ["const:+1", "cycle:1, 2", "const:1_0",
                                      "cycle:1,-2"])
    def test_listed_slack_is_decimal_digits(self, capsys, spec):
        # a const: or cycle: value has the bare value's grammar, so a sign,
        # a space or a '_' that int would take is refused
        argv = ["construct", "--steps", "3", "--slack", spec]
        assert cli.main(argv) == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            f"error: bad slack spec {spec!r}; use const:N or cycle:a,b,c\n")

    @pytest.mark.parametrize("window", ["-1_0:5", "1_0:20", "+1:5", " 1:5"])
    def test_window_has_one_grammar(self, setfile, capsys, window):
        # --window=LO:HI reads LO:HI as --window LO:HI does: each end is
        # decimal digits after an optional '-', whatever int would take
        argv = ["witness", setfile(EVEN), f"--window={window}"]
        assert cli.main(argv) == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            f"error: bad window {window!r}, expected LO:HI\n")
        try:
            code = cli.main(["witness", setfile(EVEN), "--window", window])
        except SystemExit as exc:  # argparse reads -1_0:5 as an option
            code = exc.code
        assert code == cli.EXIT_BAD_INPUT

    def test_window_beyond_an_index(self, setfile, capsys):
        bound = 10**19
        argv = ["witness", setfile(EVEN), f"--window=-{bound}:{bound}"]
        assert cli.main(argv) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: window")
        assert "OverflowError" in err

    def test_window_beyond_memory(self, setfile, capsys, monkeypatch):
        # A window that fits an index but not memory; the build is made to
        # fail as it would, so that no test allocates such a window.
        def build(*args):
            raise MemoryError

        monkeypatch.setattr(cli.witness_mod, "build_witness", build)
        assert cli.main(["witness", setfile(EVEN), "--window=-40:40"]) == (
            cli.EXIT_BAD_INPUT)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: window")
        assert "MemoryError" in err

    @pytest.mark.parametrize("command", [[], ["--window=-100:100"]],
                             ids=["decide", "witness"])
    def test_modulus_beyond_an_index(self, setfile, capsys, command):
        # m = 10**20 does not fit an index, so lifting it fails at once
        # without allocating anything; it used to raise ValueError from
        # the width of a format string.
        path = setfile("m = 100000000000000000000\nx = 0\ny1 = 1\n")
        argv = ["witness" if command else "decide", path] + command
        assert cli.main(argv) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(
            "error: modulus 100000000000000000000 is too large to lift")
        assert "OverflowError" in err

    def test_record_modulus_beyond_an_index(self, setfile, tmp_path, capsys):
        # T = 5 * 10**19 is a multiple of m = 5, so the certificate check
        # lifts by 10**19.  No integer has that many bits, so building the
        # T-bit mask fails at once, with OverflowError or MemoryError.
        _, record = run_json(capsys, ["witness", setfile(FIVE),
                                      "--window=-60:60"])
        record["result"]["witness"]["T"] = 5 * 10**19
        assert verify_record(tmp_path, record) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(
            "error: modulus 50000000000000000000 is too large to lift")
        assert "OverflowError" in err or "MemoryError" in err

    def test_modulus_beyond_memory(self, setfile, tmp_path, capsys,
                                   monkeypatch):
        # A modulus that fits an index but not memory, such as m = 10**12;
        # the lift is made to fail as it would, so that no test allocates.
        path = setfile(FIVE)
        _, record = run_json(capsys, ["witness", path, "--window=-60:60"])

        def no_memory(mask, width, k):
            raise MemoryError

        monkeypatch.setattr(sets, "tile", no_memory)
        for run in (lambda: cli.main(["decide", path]),
                    lambda: cli.main(["witness", path, "--window=-60:60"]),
                    lambda: verify_record(tmp_path, record)):
            assert run() == cli.EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith(
                "error: modulus 5 is too large to lift")
            assert "MemoryError" in err

    @pytest.mark.parametrize("command", [[], ["--window=-40:40"]],
                             ids=["decide", "witness"])
    def test_search_beyond_memory(self, setfile, capsys, monkeypatch,
                                  command):
        # The search's set-up builds masks of 2T bits and T/8 bytes of
        # reversed row after the lift's guard; a MemoryError there is made
        # to order, so that no test allocates, and must not exit 1.
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(criteria, "_search_exhaustive", no_memory)
        argv = ["witness" if command else "decide", setfile(EVEN)] + command
        assert cli.main(argv) == cli.EXIT_BAD_INPUT
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("error: ") and "MemoryError" in out.err

    @pytest.mark.parametrize("k", [1, 2])
    def test_lift_beyond_memory_by_any_factor(self, setfile, capsys,
                                              monkeypatch, k):
        # The lift by k is made to fail as a T = k * m beyond memory would,
        # so that no test allocates.  At k = 1 the lift reuses x_m's mask,
        # and its guard must still refuse T before the search builds a
        # T-bit mask.  The set has no certificate at T = 7, one at 14.
        text = "m = 7\nx = 2,3,6\ny1 = 1,11,14\n"
        s = sets.validate_canonical(7, [2, 3, 6], (), [1, 11, 14])
        lifts = []

        def no_memory_at_k(mask, width, factor):
            lifts.append(factor)
            if len(lifts) == k:
                raise MemoryError
            return tile(mask, width, factor)

        monkeypatch.setattr(sets, "tile", no_memory_at_k)
        for j in range(1, k):
            sets.lift_period(s, j)
        with pytest.raises(MinaddError,
                           match=f"modulus {7 * k} is too large to lift") as exc:
            sets.lift_period(s, k)
        assert isinstance(exc.value.__cause__, MemoryError)
        path = setfile(text)
        for argv in (["decide", path], ["witness", path, "--window=-60:60"]):
            lifts.clear()
            assert cli.main(argv) == cli.EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith(
                f"error: modulus {7 * k} is too large to lift")
            assert "MemoryError" in err

    @pytest.mark.parametrize("argv, option", [
        (["construct", "--steps=--"], "--steps"),
        (["construct", "--steps", "3", "--slack=--"], "--slack"),
        (["decide", "W.set", "--t-max=--"], "--t-max"),
        (["witness", "W.set", "--window=--"], "--window"),
        (["witness", "W.set", "--window=-4:4", "--t-max=--"], "--t-max"),
        (["canonicalize", "W.set", "--format=--"], "--format"),
    ], ids=["steps", "slack", "decide-t-max", "window", "witness-t-max",
            "format"])
    def test_option_given_dashes(self, setfile, capsys, argv, option):
        # Python 3.11's argparse hands ``--opt=--`` an empty list, skipping
        # the option's type and choices.
        argv = [setfile(EVEN) if a == "W.set" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err.endswith(
            f"error: argument {option}: expected one argument\n")

    @pytest.mark.parametrize("argv, option", [
        (["construct", "--st=--"], "--steps"),
        (["witness", "W.set", "--w=--"], "--window"),
        (["construct", "--steps", "3", "--", "--slack=--"], None),
        (["construct", "--steps", "3", "--s=--"], None),
    ], ids=["steps-prefix", "window-prefix", "after-dashes", "ambiguous"])
    def test_dashes_read_as_argparse_reads_options(self, setfile, capsys,
                                                   argv, option):
        # A prefix that argparse takes for one option alone is refused as
        # that option.  A token after a bare ``--`` is no option, and a
        # prefix of two options is argparse's to refuse.
        argv = [setfile(EVEN) if a == "W.set" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        if option:
            assert err.endswith(
                f"error: argument {option}: expected one argument\n")
        else:
            assert "expected one argument" not in err

    @pytest.mark.parametrize("argv, echo", [
        (["witness", "W.set", "--window=-4:4", "--", "--window", "-4:4"],
         "-- --window -4:4"),
        (["construct", "--steps", "3", "--w", "-1:1"], "--w -1:1"),
    ], ids=["after-dashes", "no-window-option"])
    def test_leftovers_echo_what_was_typed(self, setfile, capsys, argv, echo):
        # LO:HI is joined only onto an option of the command that resolves
        # to --window, before a bare --; other tokens reach argparse as typed
        argv = [setfile(EVEN) if a == "W.set" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err.endswith(
            f"error: unrecognized arguments: {echo}\n")

    @pytest.mark.parametrize("t_max", ["-5", "0", "1"])
    @pytest.mark.parametrize("command", [[], ["--window=-40:40"]],
                             ids=["decide", "witness"])
    def test_t_max_below_period(self, setfile, capsys, command, t_max):
        # m = 2: no modulus lies in [m, t_max], so no search would run
        argv = (["witness" if command else "decide", setfile(EVEN)] + command
                + ["--t-max", t_max, "--format", "json"])
        assert cli.main(argv) == cli.EXIT_BAD_INPUT
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: t_max {t_max} is below the period 2: "
                           "no modulus to scan\n")

    def test_deleted_flags_rejected(self, setfile, capsys):
        for argv in (["decide", setfile(EVEN), "--exhaustive-limit", "3"],
                     ["construct", "--steps", "3", "--period-max", "-3"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == cli.EXIT_BAD_INPUT


def typed_dashes():
    """What this interpreter's argparse gives ``--n=--`` for an option with
    a type: a namespace ("ok") where it hands the option an empty list,
    past its type, or the exit code it stops with where it hands ``'--'``
    to the type."""
    probe = argparse.ArgumentParser()
    probe.add_argument("--n", type=int)
    try:
        with redirect_stderr(io.StringIO()):
            probe.parse_args(["--n=--"])
    except SystemExit as exc:
        return exc.code
    return "ok"


# Each argv with what the full two-pass parse gives it: a namespace
# ("ok"), or the exit code argparse stops with.  ``--opt=--`` for a typed
# option gives what this interpreter's argparse does.
ARGV_CORPUS = [
    ([], 2),
    (["-h"], 0),
    (["--help", "construct"], 0),
    (["--"], 2),
    (["--", "construct", "--steps", "3"], 2),
    (["--format", "json"], 2),
    (["decode", "W.set"], 2),
    (["canonicalize", "W.set"], "ok"),
    (["canonicalize", "W.set", "--format", "json"], "ok"),
    (["canonicalize"], 2),
    (["canonicalize", "-h"], 0),
    (["canonicalize", "W.set", "V.set"], 2),
    (["canonicalize", "W.set", "--format", "xml"], 2),
    (["decide", "W.set", "--t-max", "12", "--format=json"], "ok"),
    (["decide", "--t-max=-3", "W.set"], "ok"),
    (["decide", "W.set", "--t", "12"], "ok"),
    (["decide", "W.set", "--t-max", "x"], 2),
    (["decide", "W.set", "--bogus"], 2),
    (["decide", "W.set", "--bogus", "1", "extra"], 2),
    (["decide", "W.set", "--t-max=--"], typed_dashes()),
    (["decide", "--help"], 0),
    (["witness", "W.set", "--window=-40:40"], "ok"),
    (["witness", "W.set", "--window", "-8:8", "--t-max", "8"], 2),
    (["witness", "W.set", "--window", "0:8", "--t-max", "8"], "ok"),
    (["witness", "W.set"], 2),
    (["witness", "--window=-40:40"], 2),
    (["witness", "W.set", "--window=--"], "ok"),
    (["witness", "-h", "W.set"], 0),
    (["verify-witness", "R.json"], "ok"),
    (["verify-witness", "R.json", "--format", "json"], "ok"),
    (["verify-witness"], 2),
    (["verify-witness", "-h"], 0),
    (["construct", "--steps", "5"], "ok"),
    (["construct", "--steps", "5", "--slack", "cycle:1,2,3",
      "--format", "json"], "ok"),
    (["construct", "--steps=--"], typed_dashes()),
    (["construct", "--steps", "3", "--slack=--"], "ok"),
    (["construct"], 2),
    (["construct", "--steps", "x"], 2),
    (["construct", "--steps", "3", "--window-hi", "-100000"], 2),
    (["construct", "--steps", "3", "extra"], 2),
    (["construct", "--", "--steps", "3"], 2),
    (["construct", "--steps", "3", "-h"], 0),
]


@pytest.mark.parametrize("argv, want", ARGV_CORPUS,
                         ids=[" ".join(a) or "empty" for a, _ in ARGV_CORPUS])
def test_one_pass_parse_matches_parser(capsys, argv, want):
    """``cli.parse_args`` gives the namespace that the top-level parser's
    two passes give, or stops with the same exit code and output."""
    def outcome(parse):
        try:
            return "ok", parse(list(argv))
        except SystemExit as exc:
            out = capsys.readouterr()
            return exc.code, out.out, out.err

    full = outcome(cli._parsers()[0].parse_args)
    assert full[0] == want
    assert outcome(cli.parse_args) == full


def test_leftovers_are_reported_by_the_top_level_parser(capsys):
    with pytest.raises(SystemExit):
        cli.parse_args(["construct", "--steps", "3", "extra", "--bogus"])
    err = capsys.readouterr().err
    assert err.startswith("usage: minadd [-h]")
    assert err.endswith("minadd: error: unrecognized arguments: "
                        "extra --bogus\n")


SRC = Path(minadd.__file__).resolve().parents[1]


def test_script_entry_is_main():
    # the [project.scripts] line that pip installs as the minadd command;
    # read as text, since 3.10 has no tomllib
    lines = (SRC.parent / "pyproject.toml").read_text().splitlines()
    section = lines[lines.index("[project.scripts]") + 1:]
    entry = next(line for line in section if line.startswith("minadd ="))
    module, _, name = entry.split("=", 1)[1].strip().strip('"').partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main


@pytest.mark.parametrize("argv, code", [
    (["construct", "--steps", "30", "--format", "text"], 0),
    (["decide", "W.set", "--format", "json"], 1),
], ids=["construct", "decide"])
def test_closed_stdout_keeps_exit_code(setfile, argv, code):
    """A reader that closes stdout early, as ``| head -n 1`` does, leaves
    the command's own exit code and no traceback.  The read end is closed
    before the command writes, so the write fails on every run."""
    argv = [setfile(PAPERLIKE) if a == "W.set" else a for a in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "minadd.cli", *argv], stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, "")
