"""The benchmark's own output checks pass on the program as it stands.

``bench/run.py`` checks every op's output against the committed answers,
but only when the benchmark runs.  This loads it by path, the way
``test_bench_spans.py`` loads the span recorder, builds each workload's
ops for one seed into a temporary directory, runs each op once and
asserts that no check reports a failed layer.  One pass of
``decide-scan``'s 252 ops with their checks takes a fraction of a second;
it re-checks every certificate with ``check_certificate`` and compares
each verdict with the committed answers.  ``decide-scan`` calls the
library rather than the CLI, so only the two CLI workloads must emit
output.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    module.import_minadd()
    return module


@pytest.mark.parametrize("workload", ["decide-scan", "witness-cli", "construct"])
def test_every_check_passes(bench_run, tmp_path, workload):
    ops = bench_run.build(workload, 1, tmp_path)
    assert ops
    counts = Counter()
    for op in ops:
        out, _ = op.run()
        assert op.check(out, counts) == set()
    if workload != "decide-scan":
        assert counts["emit_bytes"] > 0
