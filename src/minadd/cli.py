"""Command-line front end.

Commands: canonicalize, decide, witness, verify-witness, construct.
Exit codes: 0 success / complement exists, 1 complement does not exist,
2 parse or validation error, 3 undecided within the search bound,
4 verification failure.

Set-description files are flat text, one ``key = value`` per line,
``#`` starts a comment.  A file is in one of two forms, each with its own
keys (``RAW_FORM``, ``CANONICAL_FORM``): raw uses period, residues and
threshold, and optionally extras and orientation (below/above); canonical
uses m and x, and optionally y0, y1 and shift.  A file with keys of both
forms is bad input (exit 2).  Integer lists are comma-separated and
strictly ascending; a list with a repeat or a descent is bad input.
The fields of an ``orientation = above`` file describe -W, so the set that
is canonicalized, decided and witnessed is -W, and the records of
canonicalize, decide and witness say ``reflected: true``.

Arguments are read in two steps: ``_resolve_options`` resolves each option
token of the command, before the first bare ``--``, through the command's
option table, and ``parse_args`` then parses the result in one pass.
Tokens after a bare ``--`` are passed on as typed.

Each option value that is not a plain integer has one grammar, whatever
its spelling.  A window is ``LO:HI``, each end decimal digits after an
optional '-' (``_WINDOW``), given as ``--window=LO:HI`` or as
``--window LO:HI``.  A slack is ``N``, ``const:N`` or ``cycle:a,b,c``,
each value decimal digits (``_SLACK``).  Neither takes a '+', a space
or a '_', which ``int`` would.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from typing import Callable, Optional

from . import __version__, criteria, generator, witness as witness_mod
from .errors import MinaddError
from .residues import ResidueSubset
from .sets import (CanonicalSet, RawSet, ascending, canonicalize,
                   validate_canonical)

EXIT_EXISTS = 0
EXIT_NOT_EXISTS = 1
EXIT_BAD_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_VERIFY_FAILED = 4

EXIT_OF_OUTCOME = {
    criteria.Outcome.EXISTS: EXIT_EXISTS,
    criteria.Outcome.NOT_EXISTS: EXIT_NOT_EXISTS,
    criteria.Outcome.UNKNOWN: EXIT_UNKNOWN,
}

BELOW = "below"
ABOVE = "above"


def _ints(value: str) -> list[int]:
    """A comma-separated, strictly ascending list of integers; an empty
    value is the empty list.  A list with a repeat or a descent is refused,
    never merged or sorted."""
    ints = [int(tok) for tok in value.split(",")] if value else []
    if not ascending(ints):
        raise ValueError("list is not strictly ascending")
    return ints


def _orientation(value: str) -> str:
    if value not in (BELOW, ABOVE):
        raise ValueError("must be below or above")
    return value


#: The keys of each set-file form: the reader of a key's value, and the
#: value an absent key takes (``None`` where the form requires the key).
RAW_FORM = {"period": (int, None), "residues": (_ints, None),
            "threshold": (int, None), "extras": (_ints, ()),
            "orientation": (_orientation, BELOW)}
CANONICAL_FORM = {"m": (int, None), "x": (_ints, None), "y0": (_ints, ()),
                  "y1": (_ints, ()), "shift": (int, 0)}


def parse_set_file(text: str) -> dict:
    """Parse a flat set-description file into a field dict.

    Every key is read as its form's table says, and a file whose keys do
    not all belong to one form is refused: dropping the other form's keys
    would answer for a set the file does not describe."""
    keys = RAW_FORM | CANONICAL_FORM
    fields: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MinaddError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise MinaddError(f"line {line_no}: duplicate field {key!r}")
        if key not in keys:
            raise MinaddError(f"line {line_no}: unknown field {key!r}")
        try:
            fields[key] = keys[key][0](value)
        except ValueError as exc:
            raise MinaddError(f"line {line_no}: field {key!r}: {exc}") from exc
    if not fields:
        raise MinaddError("empty set description")
    if not (fields.keys() <= RAW_FORM.keys()
            or fields.keys() <= CANONICAL_FORM.keys()):
        raise MinaddError(
            "mixed raw and canonical fields in one file: raw "
            + ", ".join(key for key in fields if key in RAW_FORM)
            + "; canonical "
            + ", ".join(key for key in fields if key in CANONICAL_FORM))
    return fields


def _read_text(path: str) -> str:
    """A UTF-8 file's text; an unreadable or undecodable file is bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MinaddError(f"cannot read {path}: {exc}") from exc


def load_set(path: str) -> tuple[CanonicalSet, dict, bool]:
    """Read a set file; returns (canonical set, input echo, was_reflected).

    The file's keys pick its form, whose absent keys take the table's
    values; the input echo holds only the keys the file gives."""
    fields = parse_set_file(_read_text(path))
    canonical = fields.keys() <= CANONICAL_FORM.keys()
    form = CANONICAL_FORM if canonical else RAW_FORM
    v = {key: fields.get(key, default) for key, (_, default) in form.items()}
    missing = [key for key in form if v[key] is None]
    if missing:
        raise MinaddError(f"{'canonical' if canonical else 'raw'} description "
                          f"missing {', '.join(map(repr, missing))}")
    if canonical:
        return validate_canonical(**v), fields, False
    raw = RawSet(v["period"], ResidueSubset.of(v["period"], v["residues"]),
                 v["threshold"], v["extras"])
    return canonicalize(raw), fields, v["orientation"] == ABOVE


#: The one encoder of every JSON record.  ``json.dumps`` with options
#: builds an encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        # One line: without ``indent`` the C encoder does the work.  The
        # record is a tree that ``main`` assembles from ``to_dict`` output:
        # fresh dicts and lists, and the construction state's own tuples,
        # which the encoder writes as arrays, as it writes lists.  So it
        # holds no cycle, and the encoder's cycle scan, an id-marker entry
        # per list and dict, is skipped.
        print(_ENCODER.encode(record))
        return
    _emit_text(record)


def _listed(value):
    """``value`` with each tuple in it, nested ones too, made a list."""
    if isinstance(value, tuple):
        return [_listed(v) for v in value]
    return value


def _emit_text(record: dict, indent: int = 0) -> None:
    # A tuple prints as the list that JSON reads it as.
    pad = "  " * indent
    for key in sorted(record):
        value = record[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 1)
        else:
            print(f"{pad}{key} = {_listed(value)}")


#: What a command returns: input echo, result, exit code.  ``main`` wraps
#: the first two in the one run record it emits, with the config it reads
#: off the parsed options.
CommandResult = tuple[dict, dict, int]


def cmd_canonicalize(args) -> CommandResult:
    s, fields, reflected = load_set(args.file)
    result = {"canonical": s.to_dict(), "reflected": reflected}
    return fields, result, EXIT_EXISTS


def _decided(args) -> tuple[CanonicalSet, dict, dict, criteria.Verdict]:
    """The set of ``args.file`` decided under ``--t-max``: the set, the
    input echo, the result record so far, and the verdict."""
    s, fields, reflected = load_set(args.file)
    verdict = criteria.decide(s, criteria.SearchConfig(t_max=args.t_max))
    result = {
        "canonical": s.to_dict(),
        "reflected": reflected,
        "verdict": verdict.to_dict(),
    }
    return s, fields, result, verdict


def cmd_decide(args) -> CommandResult:
    _, fields, result, verdict = _decided(args)
    return fields, result, EXIT_OF_OUTCOME[verdict.outcome]


#: A window, ``LO:HI``: each end is decimal digits after an optional '-'.
_WINDOW = re.compile(r"(-?\d+):(-?\d+)")


def _parse_window(spec: str) -> tuple[int, int]:
    match = _WINDOW.fullmatch(spec)
    try:
        return int(match[1]), int(match[2])
    except (TypeError, ValueError) as exc:  # no match, or past int's limit
        raise MinaddError(f"bad window {spec!r}, expected LO:HI") from exc


def cmd_witness(args) -> CommandResult:
    lo, hi = _parse_window(args.window)
    s, fields, result, verdict = _decided(args)
    if verdict.certificate is None:
        if verdict.outcome is criteria.Outcome.EXISTS:
            print("no certificate on this branch; witness unavailable",
                  file=sys.stderr)
            return fields, result, EXIT_VERIFY_FAILED
        return fields, result, EXIT_OF_OUTCOME[verdict.outcome]
    try:
        # the build lists the lift's cut, so only condition (a) can fail
        w = witness_mod.build_witness(s, verdict.certificate, lo, hi)
        cov = witness_mod.verify_condition_a(s, w)
        mini = witness_mod.verify_local_minimality(s, w)
    except (OverflowError, MemoryError) as exc:
        raise MinaddError(f"window {args.window} does not fit in "
                          f"memory ({type(exc).__name__})") from exc
    result.update(
        witness=w.to_dict(),
        coverage=cov.to_dict(),
        minimality=mini.to_dict(),
    )
    ok = cov.ok and mini.ok
    return fields, result, EXIT_EXISTS if ok else EXIT_VERIFY_FAILED


def load_witness_record(path: str) -> tuple[CanonicalSet, witness_mod.WitnessWindow]:
    """Read a ``witness`` run record (or its bare result) for re-checking.

    The JSON is parsed here.  A run record names its kind in ``command``,
    and one of any other kind, such as a ``decide`` or a ``construct``
    record, is refused with MinaddError naming both kinds, so
    ``verify-witness`` exits 2; an object without ``command`` is read as
    a bare result.  Its ``canonical`` and then its ``witness`` part are
    read by ``CanonicalSet.from_dict`` and ``WitnessWindow.from_dict``,
    which refuse a missing field, a non-integer and a list that is not
    strictly ascending with MinaddError, so ``verify-witness`` exits 2.
    Keys they do not read, such as the ``provenance`` map of older
    records, are ignored."""
    try:
        record = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:
        raise MinaddError(f"witness record is not valid JSON: {exc}") from exc
    payload = record.get("result", record) if isinstance(record, dict) else None
    if not isinstance(payload, dict):
        raise MinaddError("witness record is not a JSON object")
    kind = record.get("command", "witness")
    if kind != "witness":
        raise MinaddError(f"witness record: got a {kind!r} record, and "
                          f"verify-witness reads a 'witness' record")
    return (CanonicalSet.from_dict(payload.get("canonical")),
            witness_mod.WitnessWindow.from_dict(payload.get("witness")))


def cmd_verify_witness(args) -> CommandResult:
    s, w = load_witness_record(args.file)
    reports = {
        "certificate": witness_mod.verify_certificate(s, w),
        "coverage": witness_mod.verify_coverage(s, w),
        "minimality": witness_mod.verify_local_minimality(s, w),
    }
    result = {name: rep.to_dict() for name, rep in reports.items()}
    ok = all(rep.ok for rep in reports.values())
    return {"file": args.file}, result, (
        EXIT_EXISTS if ok else EXIT_VERIFY_FAILED)


#: A slack, ``N``, ``const:N`` or ``cycle:a,b,c``: each value is decimal digits.
_SLACK = re.compile(r"(?:const:)?(\d+)|cycle:(\d+(?:,\d+)*)")


def parse_slack_spec(spec: str) -> Callable[[int], int]:
    """'const:N', 'cycle:a,b,c', or a bare N, each value decimal digits.

    ``_SLACK``'s ``\\d`` passes what ``str.isdecimal`` passes: no sign,
    space or '_', which ``int`` would take, and no superscript such as
    '²', which ``str.isdigit`` would pass and ``int`` rejects.  A value
    past ``int``'s digit limit is bad input too.
    """
    match = _SLACK.fullmatch(spec)
    if match is None:
        raise MinaddError(
            f"bad slack spec {spec!r}; use const:N or cycle:a,b,c")
    try:
        values = [int(tok) for tok in (match[1] or match[2]).split(",")]
    except ValueError as exc:  # past int's digit limit
        raise MinaddError(f"bad slack spec {spec!r}") from exc
    return lambda i: values[i % len(values)]


def cmd_construct(args) -> CommandResult:
    slack_fn = parse_slack_spec(args.slack)
    state = generator.generate(args.steps, slack_fn)
    result: dict = {"state": state.to_dict()}
    ok = True
    if state.steps >= 2:
        report = generator.verify(state)
        result["report"] = report.to_dict()
        ok = report.ok
    return {}, result, EXIT_EXISTS if ok else EXIT_VERIFY_FAILED


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser,
                        dict[str, argparse.ArgumentParser]]:
    """The argument parser and its command parsers by name, built once per
    process: ``parse_args`` keeps no state between calls, so every ``main``
    call can share them."""
    parser = argparse.ArgumentParser(
        prog="minadd",
        description="Decide and witness minimal additive complements of "
                    "eventually periodic integer sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("canonicalize", help="normalize a set description")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser("decide", help="decide existence of a minimal complement")
    p.add_argument("file")
    p.add_argument("--t-max", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("witness", help="build and verify a complement window")
    p.add_argument("file")
    p.add_argument("--window", required=True, metavar="LO:HI")
    p.add_argument("--t-max", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify-witness", help="re-verify a serialized witness")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=cmd_verify_witness)

    p = sub.add_parser(
        "construct",
        help="generate the non-eventually-periodic example set",
    )
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--slack", default="const:1")
    add_format(p)
    p.set_defaults(func=cmd_construct)

    return parser, sub.choices


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The top-level parser's ``parse_args(argv)``, in one pass over ``argv``.

    The top-level parser scans every argument and then hands all but the
    first to the command's parser, which scans them again.  So an ``argv``
    that starts with a command goes to that command's parser alone, and
    what it leaves over is reported by the top-level parser, as the
    subparser action would.  Any other ``argv`` names no command and can
    only print help or a usage error; the top-level parser takes it.
    """
    parser, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def _resolve_options(argv: list[str]) -> list[str]:
    """``argv`` as ``parse_args`` should read it, in one pass, or exit 2.

    Up to the first bare ``--``, each token of the command that starts
    with ``--`` is resolved through the command's option table, as
    argparse resolves it: ``--NAME`` or ``--NAME=VALUE``, where NAME is an
    option string or a prefix that no other option string starts with.

    - ``--NAME=--`` for an option that takes a value exits 2 with the
      top-level parser's ``argument --OPTION: expected one argument``.
      argparse reads it by its version: 3.11 and 3.12 hand the option an
      empty list, past its type and choices, and 3.13 hands ``'--'`` to
      its type.
    - A bare ``--NAME`` that resolves to ``--window`` takes a following
      LO:HI token as ``--NAME=LO:HI``.  argparse takes a value that starts
      with ``-`` and is not a plain negative number for an option, so
      ``--window -40:40`` would leave ``--window`` without its value; any
      other token after it is still reported as the missing value.

    Every other token is passed on as typed, those after a bare ``--`` and
    those of an ``argv`` that names no command too, so an error echoes
    only what was typed.
    """
    parser, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return argv
    actions = sub._option_string_actions
    resolved = argv[:1]
    join_at = 0  # the index of a LO:HI token that --window would take
    for i, token in enumerate(argv[1:], start=1):
        if token == "--":
            return resolved + argv[i:]
        if i == join_at and _WINDOW.fullmatch(token):
            resolved[-1] += "=" + token
            continue
        resolved.append(token)
        if token[:2] != "--":
            continue
        name, _, value = token.partition("=")
        action = actions.get(name)
        if action is None:
            named = [option for option in actions if option.startswith(name)]
            action = actions[named[0]] if len(named) == 1 else None
        if action is None or action.nargs is not None:
            continue
        if value == "--":
            parser.error(f"argument {'/'.join(action.option_strings)}: "
                         "expected one argument")
        if token == name and action.dest == "window":
            join_at = i + 1
    return resolved


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(_resolve_options(sys.argv[1:] if argv is None else argv))
    # The config is every parsed option but the file, which the input
    # echo covers, and the output format.
    config = {key: value for key, value in vars(args).items()
              if key not in ("command", "func", "file", "format")}
    started = time.perf_counter()
    try:
        inputs, result, code = args.func(args)
    except MinaddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError:
        # An input too large for this machine is bad input, as a modulus
        # too large to lift is; exit 1 would read "does not exist".
        print(f"error: {args.command} ran out of memory (MemoryError)",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        _emit({
            "command": args.command,
            "input": inputs,
            "config": config,
            "result": result,
            "timing": {"wall_time": time.perf_counter() - started},
            "version": __version__,
        }, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early; the answer's exit code stands.
        # Python flushes stdout again at exit, so point it at devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
