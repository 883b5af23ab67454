"""Span recorder for the traced benchmark run.

The program under test is not edited.  Instead ``Recorder.install`` swaps
each public function for a timing wrapper at the module attribute its
caller looks up (``minadd.cli`` calls ``criteria.decide`` through the
``minadd.criteria`` module, ``build_witness`` calls the ``lift_period`` it
imported into ``minadd.witness``, and so on), and ``uninstall`` puts the
originals back.  Spans stay in memory until ``write``.

Calls to ``lift_period`` made by ``criteria.decide`` also delimit the
per-modulus ``criteria.scan`` spans: each scan runs from one such call to
the next, or to the return of ``decide``.  The DFS helpers in
``minadd.residues`` (``rotate``, ``mask_members``) are deliberately not
wrapped; a span per call would cost more than the work it measures, so
their time shows up as ``criteria`` self time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

LAYERS = ("sets", "residues", "criteria", "witness", "generator", "cli")


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.op = 0
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, **attrs) -> dict:
        span = {"id": len(self.spans), "name": name, "op": self.op,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        """End ``span`` and any spans still open above it (open scans)."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            top["end"] = now
            if top is span:
                return

    def _wrap(self, name: str, fn, label=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.open(label(args) if label else name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(span)

        return wrapper

    def _wrap_scan_lift(self, fn):
        """``criteria.lift_period``: start a new per-modulus scan span."""
        rec = self

        @functools.wraps(fn)
        def wrapper(s, k, *args, **kwargs):
            if rec.stack and rec.stack[-1]["name"] == "criteria.scan":
                rec.close(rec.stack[-1])
            rec.open("criteria.scan", m=s.m, T=k * s.m)
            span = rec.open("sets.lift_period")
            try:
                return fn(s, k, *args, **kwargs)
            finally:
                rec.close(span)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, minadd) -> None:
        mods = {"minadd": minadd, "criteria": minadd.criteria,
                "witness": minadd.witness, "generator": minadd.generator,
                "cli": minadd.cli, "residues": minadd.residues}
        wrappers: dict = {}  # one wrapper per function, whatever its names
        plan = [
            # (owner, attribute, span name); owner is where the caller looks
            ("criteria", "decide", "criteria.decide"),
            ("minadd", "decide", "criteria.decide"),
            ("criteria", "lift_period", None),
            ("witness", "lift_period", "sets.lift_period"),
            ("witness", "check_certificate", "criteria.check_certificate"),
            ("cli", "canonicalize", "sets.canonicalize"),
            ("witness", "build_witness", "witness.build"),
            ("witness", "verify_coverage", "witness.verify_coverage"),
            ("witness", "verify_local_minimality",
             "witness.verify_local_minimality"),
            ("generator", "generate", "generator.generate"),
            ("generator", "verify", "generator.verify"),
            ("cli", "main", None),
        ]
        for owner_name, attr, span_name in plan:
            owner = mods[owner_name]
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            if attr == "lift_period" and owner_name == "criteria":
                wrapped = self._wrap_scan_lift(fn)
            elif attr == "main":
                wrapped = self._wrap(
                    "cli", fn, lambda a: f"cli.{a[0][0] if a and a[0] else '?'}")
            else:
                wrapped = wrappers.setdefault(fn, self._wrap(span_name, fn))
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
        subset = minadd.residues.ResidueSubset
        self._saved.append((subset, "sumset", subset.sumset))
        subset.sumset = self._wrap("residues.sumset", subset.sumset)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self, factor: float = 1.0) -> dict:
        """Per-layer self time: span duration minus its children's,
        times ``factor``."""
        child = defaultdict(float)
        for sp in self.spans:
            if sp["parent"] is not None:
                child[sp["parent"]] += sp["end"] - sp["start"]
        out = dict.fromkeys(LAYERS, 0.0)
        for sp in self.spans:
            layer = sp["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + factor * (
                sp["end"] - sp["start"] - child[sp["id"]])
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp, sort_keys=True) + "\n")
