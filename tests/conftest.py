"""Shared builders for randomized and exhaustive instance sweeps, a
window enumeration of canonical sets, the generic run helpers that the
construct tests take as references, a reader of serialized
certificates, a residue set's translate by definition, the plain
certificate search the forward-checked one is diffed against, the
forward-checked walk's first item, and a work bound for tests that must
not depend on wall time.  Hypothesis runs derandomized unless a seed or
a profile is given on the command line."""

from __future__ import annotations

import contextlib
import itertools
import os
import random
import sys
import tracemalloc
from bisect import bisect_right
from math import inf

from hypothesis import settings

# A compiled cache of the package outlives the run: a later import in the
# same checkout reads it, whatever PYTHONDONTWRITEBYTECODE says then, and
# starts faster and smaller than from a clean one.  So neither the tests
# nor the CLI subprocesses they start write one.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from minadd.check import cond_b_necessary, cond_b_sufficient  # noqa: E402
from minadd.criteria import (  # noqa: E402
    Certificate,
    NECESSARY,
    _search_exhaustive,
)
from minadd.residues import ResidueSubset  # noqa: E402
from minadd.sets import (  # noqa: E402
    CanonicalSet,
    ConditionContext,
    RawSet,
    canonicalize,
    lift_period,
)

# Each test draws the same examples on every run, so a rare draw cannot
# fail a change that did not cause it.  ``--hypothesis-seed`` would be
# ignored under this profile, and ``--hypothesis-profile`` picks its own.
settings.register_profile("derandomize", derandomize=True)


def pytest_configure(config):
    if not (config.getoption("hypothesis_seed")
            or config.getoption("hypothesis_profile")):
        settings.load_profile("derandomize")


def window_elements(s: CanonicalSet, lo: int, hi: int) -> list[int]:
    """All elements of the canonical set in [lo, hi], sorted."""
    if lo > hi:
        raise ValueError(f"empty window [{lo}, {hi}]")
    out = set()
    if s.x_m:
        start = max(lo, 0)
        for n in range(start, hi + 1):
            if (n % s.m) in s.x_m:
                out.add(n)
    for e in s.y0 + s.y1:
        if lo <= e <= hi:
            out.add(e)
    return sorted(out)


def runs_contains(runs, n: int) -> bool:
    """n lies in one of the sorted, disjoint runs: the last run starting at
    or below n, found as the last tuple not above (n, inf)."""
    i = bisect_right(runs, (n, inf)) - 1
    return i >= 0 and n <= runs[i][1]


def merge_runs(intervals) -> tuple[tuple[int, int], ...]:
    """Union of closed intervals as sorted, maximal, disjoint runs."""
    out: list[list[int]] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return tuple((a, b) for a, b in out)


def certificate_from_dict(d: dict) -> Certificate:
    """The certificate that ``Certificate.to_dict`` wrote as ``d``."""
    return Certificate(d["T"], ResidueSubset.of(d["T"], d["c"]), d["variant"])


def translate_residues(s: ResidueSubset, t: int) -> ResidueSubset:
    """t + S (mod m), by definition: each residue moved by t."""
    m = s.modulus
    return ResidueSubset.of(m, [(r + t) % m for r in s.members()])


def reference_search(ctx: ConditionContext, variant: str):
    """The lexicographically smallest valid C containing 0, or None, by a
    plain DFS over every subset in lexicographic order.

    It prunes on coverage alone, with the cover that elements >= k could
    still add, and tests (b) only once a cover is full.
    """
    T = ctx.T
    full = (1 << T) - 1
    u = ctx.x_t.union(ctx.y1_res)
    cond_b = cond_b_necessary if variant == NECESSARY else cond_b_sufficient
    rot_u = [translate_residues(u, r).mask for r in range(T)]
    tail_u = [0] * (T + 1)
    for k in range(T - 1, -1, -1):
        tail_u[k] = tail_u[k + 1] | rot_u[k]

    def dfs(c_mask, cover, nxt):
        if cover == full and cond_b(ctx, ResidueSubset(T, c_mask)):
            return c_mask
        for k in range(nxt, T):
            if cover | tail_u[k] != full:
                break
            hit = dfs(c_mask | 1 << k, cover | rot_u[k], k + 1)
            if hit is not None:
                return hit
        return None

    hit = dfs(1, rot_u[0], 1)
    return None if hit is None else Certificate(T, ResidueSubset(T, hit), variant)


def walk_first(ctx: ConditionContext, variant: str, budget: int, stats):
    """The lexicographic walk's first item, the smallest valid C
    containing 0, or None when the walk yields nothing."""
    return next(_search_exhaustive(ctx, variant, budget, stats), None)


def random_context(rng: random.Random, t_lo: int = 1, t_hi: int = 12) -> ConditionContext:
    """A valid condition context with disjoint periodic/exception masks."""
    T = rng.randint(t_lo, t_hi)
    full = (1 << T) - 1
    x_mask = rng.getrandbits(T)
    y_mask = rng.getrandbits(T) & ~x_mask & full
    return ConditionContext(T, ResidueSubset(T, x_mask), ResidueSubset(T, y_mask))


def random_canonical(
    rng: random.Random, m_max: int = 5, repeat_classes: bool = False
) -> CanonicalSet:
    """A valid canonical set with a nonempty periodic part.

    Y1 holds at most one element per residue class mod m unless
    ``repeat_classes`` is set; then most of its elements get a second one
    in their class, so that the targets of a witness candidate keep other
    sources and the prune has candidates to remove.  Those draws come
    last, so they leave every other draw of a seed as it is.
    """
    m = rng.randint(1, m_max)
    x_mask = rng.getrandbits(m) or 1
    x = ResidueSubset(m, x_mask)
    y0 = sorted(
        {
            -(rng.randint(1, 3) * m) + r
            for r in x.members()
            if rng.random() < 0.3
        }
    )
    outside = [r for r in range(m) if r not in x]
    y1 = sorted(
        {
            r + m * rng.randint(-2, 2)
            for r in outside
            if rng.random() < 0.6
        }
    )
    if repeat_classes:
        y1 = sorted({*y1, *(y + m * rng.choice((-3, -2, -1, 1, 2, 3))
                            for y in y1 if rng.random() < 0.9)})
    return CanonicalSet(m, x, tuple(y0), tuple(y1))


def shifted_copy(s: CanonicalSet, d: int) -> CanonicalSet:
    """Canonical form of the elementwise translate W + d."""
    ys = s.y0 + s.y1
    threshold = d + (max(ys) + 1 if ys else 0)
    threshold = max(threshold, d)
    if s.x_m:
        residues = ResidueSubset.of(
            s.m, {(r + d) % s.m for r in s.x_m.members()}
        )
        lo = min(ys) if ys else 0
        extras = ()
        if threshold - 1 - d >= lo:
            extras = tuple(
                w + d
                for w in window_elements(s, lo, threshold - 1 - d)
                if w + d < threshold
            )
        raw = RawSet(s.m, residues, threshold, extras)
    else:
        extras = tuple(e + d for e in ys)
        raw = RawSet(
            s.m,
            ResidueSubset(s.m, 0),
            max(extras) + 1 if extras else 0,
            extras,
        )
    return canonicalize(raw)


def enumerate_contexts(t_cap: int, m_range=range(1, 6)):
    """Every lifted context with T <= t_cap reachable from the given periods."""
    seen = set()
    for m in m_range:
        for k in range(1, t_cap // m + 1):
            T = k * m
            for x_bits in range(1, 1 << m):
                base = CanonicalSet(m, ResidueSubset(m, x_bits))
                lifted = lift_period(base, k)
                free = [r for r in range(T) if r not in lifted.x_t]
                for picks in itertools.chain.from_iterable(
                    itertools.combinations(free, n) for n in range(len(free) + 1)
                ):
                    y = ResidueSubset.of(T, picks)
                    key = (T, lifted.x_t.mask, y.mask)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield ConditionContext(T, lifted.x_t, y)


@contextlib.contextmanager
def bounded_work(max_lines=300_000, max_peak_mb=20):
    """Fail once the block runs more than ``max_lines`` Python lines, or
    afterwards if its allocations peaked above ``max_peak_mb``.

    Bounds the work rather than the wall time, so host load cannot fail
    it, and a walk over a huge range stops at the budget instead of
    running on.
    """
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            if lines > max_lines:
                raise AssertionError(f"more than {max_lines} lines run")
        return tracer

    tracemalloc.start()
    sys.settrace(tracer)
    try:
        yield
    finally:
        sys.settrace(None)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < max_peak_mb * 2**20, f"allocations peaked at {peak} bytes"
