"""The benchmark's span recorder finds every attribute it wraps.

``bench/spans.py`` patches module attributes by name and only notes a
missing one, so a rename in the package would silently drop spans from a
traced run.  This loads the recorder by path and checks that nothing is
missing.
"""

import importlib.util
from pathlib import Path

import minadd
import minadd.cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_finds_every_hook():
    main, decide = minadd.cli.main, minadd.criteria.decide
    recorder = load_spans().Recorder()
    try:
        recorder.install(minadd)
        assert recorder.missing == []
        assert minadd.cli.main is not main
    finally:
        recorder.uninstall()
    assert (minadd.cli.main, minadd.criteria.decide) == (main, decide)
