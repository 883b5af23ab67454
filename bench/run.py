"""minadd benchmark: one closed-loop client, one process, no threads.

    python3 bench/run.py --workload decide-scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory and nowhere else.  Workloads:

* ``decide-scan``: ``minadd.decide`` on a seeded, stratified draw of ~250
  canonical sets (m = 2..10, t_max = 2m) plus the two ROADMAP deep
  instances at t_max = 30.  Nearly all the work is the certificate search.
* ``witness-cli``: ``minadd.cli.main`` runs canonicalize, decide, witness
  (window -8000:8000) and verify-witness on 27 seeded set files, a fixed
  five of whose records are tampered before verification (exit code 4).
* ``construct``: ``minadd.cli.main(["construct", ...])`` for N = 2..12
  steps against three slack specs; the cost is ``generator.verify``.

Inputs come from the committed pools in ``bench/data`` (see
``make_corpus.py``); ``--seed`` picks the entries and their order.  Every
output is checked against the committed answers, outside the timed region.
The benchmark hands the program nothing but those inputs and ``t_max``, and
reads counters only from public outputs.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run (see
``spans.py``) and writes the spans to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "data"
WORK = ROOT / ".bench_work"

WORKLOADS = ("decide-scan", "witness-cli", "construct")
WITNESS_TAMPERED = 5
WITNESS_WINDOW = "--window=-8000:8000"
CONSTRUCT_STEPS = range(2, 13)
CONSTRUCT_SPECS = ("const:1", "const:2", "cycle:1,2,3")
SETUP_PROBES = 9
COLD_REPEATS = 3
MIN_OPS = 100  # so that at least 10 latency samples lie beyond p90
MIN_PASSES = 3  # so that each request's latency averages over spells
CHILD_TIMEOUT_S = 60
CALIBRATE_EVERY_S = 0.1
# Mean reference-loop time on the 2-CPU host the bounds were set on.
REFERENCE_NOMINAL_S = 0.0025

minadd = None  # bound by import_minadd()


def import_minadd():
    """Import the package from this checkout's ``src/`` or stop."""
    global minadd
    if not (SRC / "minadd" / "__init__.py").is_file():
        sys.exit(f"error: no minadd sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import minadd as pkg
    import minadd.cli  # noqa: F401  (binds pkg.cli, pkg.generator, pkg.witness)

    if Path(pkg.__file__).resolve().parent != SRC / "minadd":
        sys.exit(f"error: imported minadd from {pkg.__file__}, not {SRC}")
    minadd = pkg


# ---------------------------------------------------------------------------
# Answer checks.  Each returns the set of layers whose output was wrong.


def recheck(s, cert: dict) -> bool:
    """Re-verify a certificate on a freshly lifted context."""
    T = cert["T"]
    if T % s.m:
        return False
    c = minadd.Certificate(T, minadd.ResidueSubset.of(T, cert["c"]), "sufficient")
    return minadd.criteria.check_certificate(minadd.lift_period(s, T // s.m), c)


def check_verdict(s, v: dict, expected: dict, counts: Counter) -> set:
    """Compare a verdict dict with the committed answer and tally counters."""
    stats = v.get("stats") or {}
    counts["decide_ops"] += 1
    counts["nodes"] += stats.get("subsets_examined", 0)
    counts["nodes_reported"] += "subsets_examined" in stats
    counts["budget_reported"] += "budget_exhausted" in stats
    counts["budget_exhausted"] += bool(stats.get("budget_exhausted"))
    counts["decided"] += v["outcome"] in ("exists", "not-exists")
    cert = v.get("certificate")
    if cert is not None and not recheck(s, cert):
        return {"criteria"}
    if "complete_upto" in expected:
        # Seed scans were complete only up to complete_upto: later code may
        # find a certificate beyond it (re-checked above), nothing else.
        ok = v["outcome"] == "unknown" or (
            v["outcome"] == "exists" and cert is not None
            and cert["T"] > expected["complete_upto"])
    else:
        got = cert and {"T": cert["T"], "c": cert["c"]}
        ok = (v["outcome"] == expected["outcome"]
              and v["modulus"] == expected["modulus"]
              and got == expected["certificate"])
    return set() if ok else {"criteria"}


class Op:
    """One request.  ``run`` returns (output, seconds spent in the program);
    ``check`` runs afterwards, untimed, and returns the layers it found wrong.
    """

    __slots__ = ("run", "check")

    def __init__(self, run, check):
        self.run, self.check = run, check


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def cli_call(argv: list[str]):
    """``minadd.cli.main(argv)`` in-process: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = minadd.cli.main(argv)
    return code, out.getvalue()


def cli_record(result, want_code: int, counts: Counter):
    """(record or None, failures) for a CLI call's (exit code, stdout)."""
    code, text = result
    counts["emit_bytes"] += len(text.encode())
    fails = set() if code == want_code else {"cli"}
    try:
        return json.loads(text), fails
    except json.JSONDecodeError:
        return None, fails | {"cli"}


# ---------------------------------------------------------------------------
# Workloads


def load_json(name: str):
    with open(DATA / name) as fh:
        return json.load(fh)


def canonical(d: dict):
    return minadd.validate_canonical(d["m"], d["x"], d["y0"], d["y1"],
                                     d.get("shift", 0))


def build_decide_scan(rng: random.Random, workdir: Path) -> list[Op]:
    pool = load_json("decide_pool.json")
    items = [e for st in pool["strata"] for e in rng.sample(st["entries"], st["draw"])]
    items += pool["deep"]
    rng.shuffle(items)
    ops = []
    for item in items:
        s = canonical(item["set"])
        cfg = minadd.SearchConfig(t_max=item["t_max"])

        def run(s=s, cfg=cfg):
            return timed(minadd.decide, s, cfg)

        def check(v, counts, s=s, expected=item["expected"]):
            return check_verdict(s, v.to_dict(), expected, counts)

        ops.append(Op(run, check))
    return ops


def safe_interval_ints(w: dict) -> int:
    """Integers a verifier scans: the window minus its edge pads."""
    pad = minadd.Margins(w["y_plus"], w["y_minus"]).y0_margin + w["T"]
    return max(0, w["hi"] - w["lo"] - 2 * pad + 1)


class WitnessSession:
    """One set file's four commands, each waiting for the previous one.

    The session is the op: its latency is the time spent in the four
    ``cli.main`` calls.  Saving (and, for tampered sessions, editing) the
    witness record between ``witness`` and ``verify-witness`` is untimed.
    """

    def __init__(self, spec: dict, set_path: Path, record_path: Path,
                 tampered: bool):
        m = str(spec["canonical"]["m"])
        self.spec, self.record_path, self.tampered = spec, record_path, tampered
        self.s = canonical(spec["canonical"])
        self.expected = {"outcome": "exists", "modulus": self.s.m,
                         "certificate": spec["certificate"]}
        fmt = ["--format", "json"]
        self.argvs = [
            ["canonicalize", str(set_path)] + fmt,
            ["decide", str(set_path), "--t-max", m] + fmt,
            ["witness", str(set_path), WITNESS_WINDOW, "--t-max", m] + fmt,
            ["verify-witness", str(record_path)] + fmt,
        ]

    def run(self):
        results, busy = [], 0.0
        for argv in self.argvs:
            if argv[0] == "verify-witness":
                self.save_record(results[-1][1])
            res, dt = timed(cli_call, argv)
            results.append(res)
            busy += dt
        return results, busy

    def save_record(self, text: str) -> None:
        if self.tampered:
            try:
                rec = json.loads(text)
                d = rec["result"]["witness"]["d_elements"]
                del d[len(d) // 2]
                text = json.dumps(rec)
            except (json.JSONDecodeError, KeyError, TypeError, IndexError):
                pass  # the witness check reports the broken record
        self.record_path.write_text(text)

    def check(self, results, counts: Counter) -> set:
        canon, decide, witness, verify = results
        fails = set()
        rec, f = cli_record(canon, 0, counts)
        fails |= f
        if rec and (rec["result"]["canonical"] != self.spec["canonical"]
                    or rec["result"]["reflected"] != self.spec["reflected"]):
            fails.add("sets")
        rec, f = cli_record(decide, 0, counts)
        fails |= f
        if rec:
            fails |= check_verdict(self.s, rec["result"]["verdict"],
                                   self.expected, counts)
        rec, f = cli_record(witness, 0, counts)
        fails |= f
        checked = 0
        if rec:
            result = rec["result"]
            fails |= check_verdict(self.s, result["verdict"], self.expected, counts)
            w = result.get("witness")
            if w is None or not (result["coverage"]["ok"]
                                 and result["minimality"]["ok"]):
                fails.add("witness")
            if w is not None:
                checked = safe_interval_ints(w)
                counts["d_elements"] += len(w["d_elements"])
        rec, f = cli_record(verify, 4 if self.tampered else 0, counts)
        fails |= f
        if rec:
            ok = rec["result"]["coverage"]["ok"] and rec["result"]["minimality"]["ok"]
            if ok == self.tampered:
                fails.add("witness")
        counts["checked_ints"] += 2 * checked  # witness and verify-witness
        return fails


def build_witness_cli(rng: random.Random, workdir: Path) -> list:
    pool = load_json("witness_pool.json")
    # one instance per (period, witness-size tertile)
    instances = [rng.choice(stratum) for m in sorted(pool["by_m"], key=int)
                 for stratum in pool["by_m"][m]]
    rng.shuffle(instances)
    n = len(instances)
    forms = [("canonical", "raw-below", "raw-above")[i % 3] for i in range(n)]
    rng.shuffle(forms)
    tampered = set(rng.sample(range(n), WITNESS_TAMPERED))
    sessions = []
    for i, (inst, form) in enumerate(zip(instances, forms)):
        spec = inst["forms"][form]
        set_path = workdir / f"{i:02d}.set"
        set_path.write_text(spec["text"])
        sessions.append(WitnessSession(spec, set_path, workdir / f"{i:02d}.json",
                                       i in tampered))
    return sessions


def build_construct(rng: random.Random, workdir: Path) -> list[Op]:
    sequences = load_json("construct_expected.json")["sequences"]
    combos = [(steps, spec) for steps in CONSTRUCT_STEPS for spec in CONSTRUCT_SPECS]
    start = rng.randrange(len(combos))
    ops = []
    for steps, spec in combos[start:] + combos[:start]:
        argv = ["construct", "--steps", str(steps), "--slack", spec,
                "--format", "json"]
        want = {k: v[:steps] for k, v in sequences[spec].items()}

        def check(res, counts, want=want):
            rec, fails = cli_record(res, 0, counts)
            if not rec:
                return fails
            state, report = rec["result"]["state"], rec["result"]["report"]
            counts["verify_ints"] += report["window_hi"] - state["d_seq"][-1] + 1
            counts["runs"] += len(state["runs"])
            if not (report["gaps_ok"] and report["coverage_ok"]
                    and not report["uniqueness_failures"]
                    and state["d_seq"] == want["d_seq"]
                    and state["c_seq"] == want["c_seq"]):
                fails.add("generator")
            return fails

        ops.append(Op(lambda argv=argv: timed(cli_call, argv), check))
    return ops


BUILDERS = {
    "decide-scan": build_decide_scan,
    "witness-cli": build_witness_cli,
    "construct": build_construct,
}


def build(workload: str, seed: int, workdir: Path) -> list:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)


# ---------------------------------------------------------------------------
# Measurement


def reference_loop() -> int:
    """Fixed pure-Python integer and list work that never touches minadd."""
    acc, window = 0, list(range(64))
    for i in range(5000):
        h = (i * 2654435761) & 0xFFFFFFFF
        acc ^= ((h << 3) | (h >> 29)) & 0xFFFFFFFF
        window.append(acc & 63)
        window.pop(0)
    return acc


class Clock:
    """Host-speed calibration for one measured stretch.

    The host is shared: a fixed loop runs up to 1.7 times slower while
    other tenants are busy, switching within milliseconds, and the mix
    drifts over seconds.  So a reference loop is timed between ops, at most
    every ``CALIBRATE_EVERY_S``, and the stretch's times are scaled by
    ``REFERENCE_NOMINAL_S`` over the mean loop time: seconds at a fixed
    nominal host speed.  That cancels the host's drift, not a change in
    the program.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self, every: float = 0.0) -> None:
        if time.perf_counter() - self.last >= every:
            _, dt = timed(reference_loop)
            self.samples.append(dt)
            self.last = time.perf_counter()

    @property
    def factor(self) -> float:
        """Nominal seconds per raw second."""
        return REFERENCE_NOMINAL_S / statistics.mean(self.samples)


class Run:
    """Latencies, failures and per-pass counters of one measured stretch."""

    def __init__(self):
        self.clock = Clock()
        self.raw: list[float] = []
        self.pass_counts: list[Counter] = []
        self.failures = Counter()
        self.failed_ops = 0

    def pass_times(self) -> list[float]:
        """Calibrated time in the program, per pass."""
        n, f = len(self.raw) // len(self.pass_counts), self.clock.factor
        return [f * sum(self.raw[i:i + n]) for i in range(0, len(self.raw), n)]

    def latencies(self) -> list[float]:
        """Calibrated latency of every op run, averaged per request.

        In a busy spell one run of a request is up to 1.7 times slower than
        the next, and a percentile of single runs moves with the share of
        runs that landed in spells, which the calibration cannot undo.  So
        each run takes the mean latency of the same request over the
        passes.  A mean, like the calibration, is linear in that share.
        Every run stays a sample, so p90 still has the runs beyond it.
        """
        n, f = len(self.raw) // len(self.pass_counts), self.clock.factor
        per_op = [f * statistics.mean(self.raw[j::n]) for j in range(n)]
        return per_op * len(self.pass_counts)


def measure(ops: list, seconds: float, run: Run, recorder=None,
            min_ops: int = 0, min_passes: int = 1) -> None:
    """Closed loop: whole passes over ``ops`` until ``seconds`` have passed."""
    began = time.perf_counter()
    while True:
        counts = Counter()
        for op in ops:
            run.clock.sample(CALIBRATE_EVERY_S)
            if recorder is not None:
                recorder.op = len(run.raw)
            t0 = time.perf_counter()
            try:
                out, dt = op.run()
                fails = op.check(out, counts)
            except Exception:
                traceback.print_exc()
                dt, fails = time.perf_counter() - t0, {"exception"}
            run.raw.append(dt)
            if fails:
                run.failed_ops += 1
                run.failures.update(fails)
        run.pass_counts.append(counts)
        if (time.perf_counter() - began >= seconds and len(run.raw) >= min_ops
                and len(run.pass_counts) >= min_passes):
            run.clock.sample()
            return


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def fresh_interpreter(argv: list[str], ready_line: bool = False):
    """Wall time of a fresh interpreter running ``argv``, exit code, stdout.

    With ``ready_line`` the clock stops at the child's first stdout line
    (the setup probe prints it just before its first op would run).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stdout.readline() if ready_line else ""
        elapsed = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if not ready_line:
        elapsed = time.perf_counter() - t0
    return elapsed, proc.returncode, first + rest


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh-interpreter set-up: import minadd and build the workload's
    inputs, up to the first op."""
    out = []
    for _ in range(SETUP_PROBES):
        elapsed, code, text = fresh_interpreter(
            [str(BENCH / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed)], ready_line=True)
        if code != 0 or not text.startswith("ready"):
            raise RuntimeError(f"setup probe failed with exit code {code}")
        out.append(elapsed)
    return out


def cold_cli(workdir: Path, failures: Counter) -> dict:
    """Each CLI command, once per repeat, as a fresh ``python -m minadd.cli``."""
    inst = load_json("witness_pool.json")["by_m"]["5"][0][0]["forms"]["canonical"]
    set_path = workdir / "cold.set"
    set_path.write_text(inst["text"])
    record_path = workdir / "cold.json"
    commands = {
        "canonicalize": ["canonicalize", str(set_path)],
        "decide": ["decide", str(set_path), "--t-max", "5"],
        "witness": ["witness", str(set_path), WITNESS_WINDOW, "--t-max", "5",
                    "--format", "json"],
        "verify-witness": ["verify-witness", str(record_path)],
        "construct": ["construct", "--steps", "8", "--format", "json"],
    }
    times: dict = {name: [] for name in commands}
    for _ in range(COLD_REPEATS):
        for name, argv in commands.items():
            elapsed, code, text = fresh_interpreter(["-m", "minadd.cli"] + argv)
            times[name].append(elapsed)
            if code != 0:
                failures["cli"] += 1
            if name == "witness":
                record_path.write_text(text)
    return {name: statistics.median(v) for name, v in times.items()}


# ---------------------------------------------------------------------------
# Reporting.  Every time is reported in calibrated seconds (see Clock).


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload: str, run: Run, setup: list[float]) -> dict:
    lat = run.latencies()
    counts = run.pass_counts[0]
    if workload == "construct":
        # no decide ops here: a construct op's verdict is its report
        decided = 1 - run.failures["generator"] / len(lat)
    else:
        decided = counts["decided"] / counts["decide_ops"]
    return {
        # The reference loop reads slow right after a child exits, so the
        # fresh-interpreter times use the factor of the measured stretch.
        "setup_s": metric(run.clock.factor * statistics.median(setup), "s"),
        "throughput_ops_s": metric(len(lat) / sum(run.pass_times()), "1/s"),
        "latency_p50_s": metric(statistics.median(lat), "s"),
        "latency_p90_s": metric(statistics.quantiles(lat, n=10)[8], "s"),
        "decided_ratio": metric(decided, "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(plain: Run, traced: Run, recorder, cold: dict) -> tuple[dict, list]:
    passes = len(traced.pass_counts)
    counts = traced.pass_counts[0]
    factor = traced.clock.factor
    totals, calls, scan = Counter(), Counter(), Counter()
    for sp in recorder.spans:
        dur = (sp["end"] - sp["start"]) * factor
        totals[sp["name"]] += dur
        calls[sp["name"]] += 1
        if sp["name"] == "criteria.scan":
            band = ("base" if sp["T"] == sp["m"] else
                    "lifted" if sp["T"] <= 24 else "beyond24")
            scan[band] += dur

    def per_pass(seconds: float) -> float:
        return seconds / passes

    decide_busy = per_pass(totals["criteria.decide"])
    moduli = calls["criteria.scan"] // passes
    notes = []
    if counts["decide_ops"] and not counts["budget_reported"]:
        notes.append("criteria.budget_exhausted: absent from verdict stats")
    if counts["decide_ops"] and not counts["nodes_reported"]:
        notes.append("criteria.nodes: subsets_examined absent from verdict stats")
    notes += [f"not traced, attribute absent: {name}" for name in recorder.missing]
    plain_pass = statistics.mean(plain.pass_times())
    traced_pass = statistics.mean(traced.pass_times())
    failures = plain.failures + traced.failures
    m = {
        "criteria.nodes": metric(counts["nodes"], "count"),
        "criteria.nodes_per_s": metric(
            counts["nodes"] / decide_busy if decide_busy else 0.0, "1/s"),
        "criteria.scan_base_s": metric(per_pass(scan["base"]), "s"),
        "criteria.scan_lifted_s": metric(per_pass(scan["lifted"]), "s"),
        "criteria.scan_beyond24_s": metric(per_pass(scan["beyond24"]), "s"),
        "criteria.decide.calls": metric(calls["criteria.decide"] // passes, "count"),
        "criteria.decide.busy_s": metric(decide_busy, "s"),
        "criteria.moduli_scanned": metric(moduli, "count"),
        "criteria.budget_exhausted": metric(counts["budget_exhausted"], "count"),
        "criteria.decisive_ratio": metric(
            counts["decided"] / moduli if moduli else 0.0, "ratio"),
        "sets.lift_period.calls": metric(calls["sets.lift_period"] // passes, "count"),
        "sets.lift_period_s": metric(per_pass(totals["sets.lift_period"]), "s"),
        "sets.canonicalize_s": metric(per_pass(totals["sets.canonicalize"]), "s"),
        "residues.sumset_s": metric(per_pass(totals["residues.sumset"]), "s"),
        "witness.build_s": metric(per_pass(totals["witness.build"]), "s"),
        "witness.verify_coverage_s": metric(
            per_pass(totals["witness.verify_coverage"]), "s"),
        "witness.verify_local_minimality_s": metric(
            per_pass(totals["witness.verify_local_minimality"]), "s"),
        "witness.d_elements": metric(counts["d_elements"], "count"),
        "witness.checked_ints": metric(counts["checked_ints"], "count"),
        "generator.generate_s": metric(per_pass(totals["generator.generate"]), "s"),
        "generator.verify_s": metric(per_pass(totals["generator.verify"]), "s"),
        "generator.verify_ints": metric(counts["verify_ints"], "count"),
        "generator.runs": metric(counts["runs"], "count"),
        "cli.emit_bytes": metric(counts["emit_bytes"], "bytes"),
        "criteria.recheck_failures": metric(failures["criteria"], "count"),
        "sets.canonical_mismatches": metric(failures["sets"], "count"),
        "witness.verify_failures": metric(failures["witness"], "count"),
        "cli.exit_mismatches": metric(failures["cli"], "count"),
        "generator.report_failures": metric(failures["generator"], "count"),
        "trace.overhead_s": metric(traced_pass - plain_pass, "s"),
        "trace.overhead_ratio": metric((traced_pass - plain_pass) / plain_pass,
                                       "ratio"),
    }
    for layer, seconds in recorder.self_times(factor).items():
        m[f"{layer}.self_s"] = metric(per_pass(seconds), "s")
    for name, seconds in cold.items():
        m[f"cli.cold.{name}_s"] = metric(factor * seconds, "s")
    return m, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # child mode behind setup_s
    args = ap.parse_args(argv)

    import_minadd()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ops = build(args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return report(args, ops, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, ops: list, workdir: Path) -> int:
    from spans import Recorder

    plain = Run()
    if args.trace:
        measure(ops, args.seconds / 2, plain)
        recorder, traced = Recorder(), Run()
        recorder.install(minadd)
        try:
            measure(ops, args.seconds / 2, traced, recorder)
        finally:
            recorder.uninstall()
        cold = cold_cli(workdir, traced.failures)
        metrics, notes = per_layer(plain, traced, recorder, cold)
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        recorder.write(spans_path)
        notes.append(f"{len(recorder.spans)} spans written to "
                     f"{spans_path.relative_to(ROOT)}")
        runs = [plain, traced]
    else:
        measure(ops, args.seconds, plain, min_ops=MIN_OPS, min_passes=MIN_PASSES)
        setup = setup_seconds(args.workload, args.seed)
        metrics = end_to_end(args.workload, plain, setup)
        notes = [f"setup_s: median of {len(setup)} fresh interpreters"]
        runs = [plain]
    attempted = sum(len(r.raw) for r in runs)
    failed = sum(r.failed_ops for r in runs)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops "
          f"in {sum(len(r.pass_counts) for r in runs)} passes of {len(ops)}; "
          f"error_rate = {failed}/{attempted} = {failed / attempted:.4g}")
    for name, m in metrics.items():
        samples = f" (n={len(plain.raw)})" if name.startswith("latency") else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{samples}")
    for r in runs:
        print(f"  note: calibration factor {r.clock.factor:.4g} from "
              f"{len(r.clock.samples)} reference-loop samples")
    for note in notes:
        print(f"  note: {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
