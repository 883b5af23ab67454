"""Regenerate the committed benchmark corpus and its expected answers.

    python3 bench/make_corpus.py

writes ``bench/data/decide_pool.json``, ``bench/data/witness_pool.json``
and ``bench/data/construct_expected.json``.  The draw is fixed by
``GENERATION_SEED``; the benchmark's own ``--seed`` later picks which pool
entries a run uses, so the answers here cover every seed.

Expected answers do not come from the code under test alone.  At every
working modulus ``T`` within the naive oracle's cap the answer is the
oracle's (``minadd.oracle.naive_find_certificate``, which enumerates all
subsets of ``Z_T`` by definition).  Above the cap and up to ``T = 24`` it
is the library's complete scan at the commit that generated the corpus,
and each entry records which source each modulus used.  Raw set files get
their expected canonical form from a membership-based reference written
here, not from ``minadd.sets.canonicalize``.

The library is only called for answers above the oracle cap, for the
construct sequences, and for the sizes that stratify the pools: search
nodes for the decide pool, witness sizes for the witness pool.  Every seed
then draws the same mix of cheap and expensive instances.  Takes a few
minutes on one core.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import minadd  # noqa: E402
from minadd import cli, generator, oracle  # noqa: E402
from minadd.criteria import (  # noqa: E402
    NECESSARY,
    SUFFICIENT,
    Certificate,
    find_certificate,
)
from minadd.residues import ResidueSubset  # noqa: E402
from minadd.sets import ConditionContext  # noqa: E402

GENERATION_SEED = 3242
DECIDE_POOL_DRAWS = 1500
DECIDE_BULK_SIZE = 250
WITNESS_POOL_PER_M = 21
WITNESS_STRATA = 3
WITNESS_HALF_WINDOW = 8000
M_RANGE = range(2, 11)
COMPLETE_SCAN_LIMIT = 24

# ROADMAP baseline instances that cross the exhaustive/heuristic switch at
# T = 24 when scanned to t_max = 30.
DEEP_INSTANCES = [
    {
        "name": "roadmap-m5",
        "set": {"m": 5, "x": [0, 3], "y0": [], "y1": [6, 9]},
        "t_max": 30,
        "why": "ROADMAP baseline: UNKNOWN at seed, ~1M nodes to t_max=30; "
               "a complete pruned search makes it cheap",
    },
    {
        "name": "roadmap-m10",
        "set": {"m": 10, "x": [1, 2, 4, 5, 8], "y0": [-16],
                "y1": [-17, 19, 26]},
        "t_max": 30,
        "why": "hardest random m<=12 case found at re-anchor; two complete "
               "scans (T=10, 20) then a heuristic one at T=30",
    },
]

CONSTRUCT_SPECS = ["const:1", "const:2", "cycle:1,2,3"]
CONSTRUCT_MAX_STEPS = 12


def draw_canonical(rng: random.Random, m: int) -> dict:
    """A canonical set with a proper nonempty periodic part and nonempty y1."""
    while True:
        x = [r for r in range(m) if rng.random() < 0.5]
        if 0 < len(x) < m:
            break
    outside = [r for r in range(m) if r not in x]
    y0 = sorted({r - m * rng.randint(1, 3) for r in x if rng.random() < 0.3})
    y1: set[int] = set()
    want = rng.randint(1, min(4, 2 * len(outside)))
    while len(y1) < want:
        y1.add(rng.choice(outside) + m * rng.randint(-3, 3))
    return {"m": m, "x": x, "y0": y0, "y1": sorted(y1)}


def ref_context(s: dict, k: int) -> ConditionContext:
    """Lift to T = k*m straight from the definition."""
    m, T = s["m"], k * s["m"]
    x_t = [x + i * m for i in range(k) for x in s["x"]]
    return ConditionContext(
        T, ResidueSubset.of(T, x_t), ResidueSubset.of(T, {y % T for y in s["y1"]})
    )


def search(ctx: ConditionContext, variant: str):
    if ctx.T <= oracle.NAIVE_T_CAP:
        return oracle.naive_find_certificate(ctx, variant), "oracle"
    if ctx.T > COMPLETE_SCAN_LIMIT:
        raise ValueError(f"no complete reference above T={COMPLETE_SCAN_LIMIT}")
    return find_certificate(ctx, variant), "seed-scan"


def expected_scan(s: dict, t_max: int) -> dict:
    """The verdict a complete scan over T = m, 2m, ... <= t_max must give."""
    sources = {}
    for k in range(1, t_max // s["m"] + 1):
        ctx = ref_context(s, k)
        T = ctx.T
        nec, sources[T] = search(ctx, NECESSARY)
        if nec is None:
            return {"outcome": "not-exists", "modulus": T, "certificate": None,
                    "sources": sources}
        suf, _ = search(ctx, SUFFICIENT)
        if suf is not None:
            return {"outcome": "exists", "modulus": T,
                    "certificate": {"T": T, "c": list(suf.c.members())},
                    "sources": sources}
    return {"outcome": "unknown", "modulus": t_max, "certificate": None,
            "sources": sources}


def canonical_of(s: dict):
    return minadd.validate_canonical(s["m"], s["x"], s["y0"], s["y1"])


def seed_decide(s: dict, t_max: int) -> dict:
    """The library's verdict, used for stratification and as a sanity check."""
    return minadd.decide(canonical_of(s), minadd.SearchConfig(t_max=t_max)).to_dict()


def agrees(verdict: dict, expected: dict) -> bool:
    cert = verdict["certificate"]
    return (
        verdict["outcome"] == expected["outcome"]
        and verdict["modulus"] == expected["modulus"]
        and (cert and {"T": cert["T"], "c": cert["c"]}) == expected["certificate"]
    )


def largest_remainder(sizes: dict, total: int) -> dict:
    pool = sum(sizes.values())
    ideal = {k: total * n / pool for k, n in sizes.items()}
    counts = {k: math.floor(v) for k, v in ideal.items()}
    short = total - sum(counts.values())
    for k in sorted(ideal, key=lambda k: (counts[k] - ideal[k], k))[:short]:
        counts[k] += 1
    return counts


def make_decide_pool(rng: random.Random) -> dict:
    seen, entries = set(), []
    for _ in range(DECIDE_POOL_DRAWS):
        s = draw_canonical(rng, rng.choice(M_RANGE))
        key = json.dumps(s, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        t_max = 2 * s["m"]
        expected = expected_scan(s, t_max)
        verdict = seed_decide(s, t_max)
        if not agrees(verdict, expected):
            raise SystemExit(f"seed decide disagrees with the reference on {s}")
        nodes = verdict["stats"]["subsets_examined"]
        k = expected["modulus"] // s["m"]
        stratum = (f"m{s['m']}/{expected['outcome']}@{k}"
                   f"/n{round(2 * math.log2(nodes + 1))}")
        entries.append({"set": s, "t_max": t_max, "expected": expected,
                        "stratum": stratum})
    sizes: dict = {}
    for e in entries:
        sizes[e["stratum"]] = sizes.get(e["stratum"], 0) + 1
    counts = largest_remainder(sizes, DECIDE_BULK_SIZE)
    strata = [
        {"stratum": key, "draw": counts[key],
         "entries": [e for e in entries if e["stratum"] == key]}
        for key in sorted(sizes)
    ]
    for st in strata:
        for e in st["entries"]:
            del e["stratum"]
    deep = []
    for inst in DEEP_INSTANCES:
        s = inst["set"]
        expected = expected_scan(s, COMPLETE_SCAN_LIMIT)
        if expected["outcome"] != "unknown":
            raise SystemExit(f"deep instance {inst['name']} resolves below T=24")
        deep.append({**inst, "expected": {
            "outcome": "unknown", "complete_upto": COMPLETE_SCAN_LIMIT,
            "sources": expected["sources"]}})
    return {"generation_seed": GENERATION_SEED, "bulk_size": DECIDE_BULK_SIZE,
            "strata": strata, "deep": deep}


def ref_canonical(m: int, x: list, threshold: int, extras: list) -> dict:
    """Canonical form of a below-bounded raw description, by membership.

    The shift is the least multiple of m at or above the threshold; every
    member below it becomes an exception, routed by its residue class.
    """
    shift = -(-threshold // m) * m
    low = min(extras + [threshold])
    members = [n for n in range(low, shift)
               if n in extras or (n >= threshold and n % m in x)]
    y0 = [n - shift for n in members if n % m in x]
    y1 = [n - shift for n in members if n % m not in x]
    return {"m": m, "x": sorted(x), "y0": y0, "y1": y1, "shift": shift}


def render_raw(rng: random.Random, s: dict) -> tuple[dict, dict]:
    """A raw description of s translated by a multiple of m."""
    m = s["m"]
    d = m * rng.randint(-3, 3)
    threshold = d + max(s["y1"] + [-1]) + 1 + rng.randint(0, m)
    canon = canonical_of(s)
    extras = [n for n in range(d + min(s["y0"] + s["y1"]), threshold)
              if canon.contains(n - d)]
    raw = {"period": m, "residues": s["x"], "threshold": threshold,
           "extras": extras}
    return raw, ref_canonical(m, s["x"], threshold, extras)


def set_file(fields: dict) -> str:
    lines = []
    for key, value in fields.items():
        if isinstance(value, list):
            value = ",".join(map(str, value))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def make_witness_pool(rng: random.Random) -> dict:
    by_m = {}
    for m in M_RANGE:
        entries, seen = [], set()
        while len(entries) < WITNESS_POOL_PER_M:
            s = draw_canonical(rng, m)
            key = json.dumps(s, sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            if expected_scan(s, m)["outcome"] != "exists":
                continue
            raw, raw_canon = render_raw(rng, s)
            forms = {
                "canonical": (set_file(dict(s, shift=0)),
                              dict(s, shift=0), False),
                "raw-below": (set_file(raw), raw_canon, False),
                "raw-above": (set_file(dict(raw, orientation="above")),
                              raw_canon, True),
            }
            rendered = {}
            for form, (text, canon, reflected) in forms.items():
                answer = expected_scan(canon, m)
                if answer["outcome"] != "exists":
                    raise SystemExit(f"{form} rendering of {s} lost its certificate")
                rendered[form] = {"text": text, "canonical": canon,
                                  "reflected": reflected,
                                  "certificate": answer["certificate"]}
            cert = rendered["canonical"]["certificate"]
            w = minadd.build_witness(
                canonical_of(s),
                Certificate(m, ResidueSubset.of(m, cert["c"]), SUFFICIENT),
                -WITNESS_HALF_WINDOW, WITNESS_HALF_WINDOW)
            entries.append({"set": s, "forms": rendered,
                            "d_elements": len(w.d_elements)})
        # Witness work grows with the complement's size: split each period's
        # entries into size tertiles and let every seed draw one from each.
        entries.sort(key=lambda e: e["d_elements"])
        k = len(entries)
        by_m[str(m)] = [entries[i * k // WITNESS_STRATA:(i + 1) * k // WITNESS_STRATA]
                        for i in range(WITNESS_STRATA)]
    return {"generation_seed": GENERATION_SEED, "by_m": by_m}


def make_construct_expected() -> dict:
    out = {}
    for spec in CONSTRUCT_SPECS:
        state = generator.generate(CONSTRUCT_MAX_STEPS, cli.parse_slack_spec(spec))
        out[spec] = {"d_seq": list(state.d_seq), "c_seq": list(state.c_seq)}
    return {"max_steps": CONSTRUCT_MAX_STEPS, "sequences": out}


def main() -> None:
    rng = random.Random(GENERATION_SEED)
    outputs = {
        "decide_pool.json": make_decide_pool(rng),
        "witness_pool.json": make_witness_pool(rng),
        "construct_expected.json": make_construct_expected(),
    }
    for name, data in outputs.items():
        path = HERE / "data" / name
        path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"wrote {path.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
