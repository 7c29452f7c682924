"""Kernel-fusion benchmark — fused register programs vs the walker.

The fusion backend (``repro.interp.fuse``) lowers a construct's
statement sequence into whole-array register programs: gathers and
scatters replay the memoized index recipes, arithmetic and guards run
as vectorized numpy ops, and the Clock cost of each sweep is replayed
from a precomputed static charge table instead of per-statement
``Clock.charge`` calls.  ``REPRO_NO_FUSION=1`` (here: the
``fusion=False`` constructor toggle) runs every construct on the walker
with its memoised reference maps, with bit-identical results and
fingerprints.

Workloads, chosen to show every face honestly:

* ``apsp`` (n=64 and n=128) — min-plus APSP over a connected chain
  graph: the active set never collapses, the frontier engine declines to
  compress, and every sweep is a full fused sweep.  This is fusion's
  home turf.  The headline metric is the *steady-state* per-sweep cost:
  the marginal wall time of one extra sweep, measured by differencing a
  long (chain) run against a short (already transitively closed) run of
  the same compiled program — parse, analysis, plan and kernel builds
  cancel out exactly.  Whole-run ratios are reported alongside.
* ``wavefront`` (n=48) — the wavefront recurrence as ``*solve``:
  ternary border guards, short-circuit predicates and NEWS-tier gathers
  all through the fused path.
* ``split`` — a construct body with a user function call in the middle:
  the call runs as an unfused segment on the walker between two fused
  segments.
  Fusion must still win nothing silently — the row asserts the honest
  segment counters and bit-identical fingerprints.
* ``unfusable`` — a body with a declaration, which the pass refuses
  entirely (``unfusable`` counter).  The fused build must cost parity:
  this row catches any overhead the bail path leaks into steady sweeps.

Every row asserts bit-identical results and Clock fingerprints between
fused and unfused runs across {tree, plans, plans+frontier,
plans+frontier+fusion}.  Acceptance (full sizes): the APSP n=64
steady-state per-sweep speedup of fused plans+frontier over
plans+frontier is at least 2x.

Writes ``BENCH_fusion.json`` at the repository root plus the usual text
report under ``benchmarks/results/``.

Run small (CI smoke): ``python benchmarks/bench_fusion.py --smoke``
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

import pytest

from repro.bench.report import format_table
from repro.interp.program import UCProgram

from _common import save_report

REPO_ROOT = Path(__file__).resolve().parents[1]
REPS = 3

APSP_UC = """
index_set I:i = {0..N-1}, J:j = I, K:k = I;
int dist[N][N];
main {
    *solve (I, J)
        dist[i][j] = $<(K; dist[i][k] + dist[k][j]);
}
"""

WAVEFRONT_STAR_UC = """
index_set I:i = {0..N-1}, J:j = I;
int a[N][N];
main {
    *solve (I, J)
        a[i][j] = (i == 0 || j == 0) ? 1
                : a[i-1][j] + a[i-1][j-1] + a[i][j-1];
}
"""

SPLIT_UC = """
index_set I:i = {0..N-1};
int a[N], b[N], c[N];
int inc(int x) { return x + 1; }
main {
    *par (I) st (a[i] < 3 * N) {
        a[i] = a[i] + 2;
        c[i] = inc(i);
        b[i] = a[i] + 1;
    }
}
"""

UNFUSABLE_UC = """
index_set I:i = {0..N-1};
int a[N];
main {
    *par (I) st (a[i] < 2 * N) {
        int t;
        t = a[i] + 2;
        a[i] = t;
    }
}
"""

FULL_SIZES = {"apsp64": 64, "apsp128": 128, "wavefront": 48, "split": 512, "unfusable": 512}
SMOKE_SIZES = {"apsp64": 16, "apsp128": 24, "wavefront": 12, "split": 64, "unfusable": 64}


def _chain_input(n: int) -> dict:
    """A connected weight-1 chain: long shortest paths keep every sweep
    busy, so the frontier engine never compresses and fusion carries all
    of them."""
    d = np.full((n, n), 10**9, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for v in range(n - 1):
        d[v, v + 1] = 1
        d[v + 1, v] = 1
    return {"dist": d}


def _closed_input(n: int) -> dict:
    """Already transitively closed: quiesces after the reference sweep.
    Differencing against the chain run cancels all one-time costs."""
    d = np.full((n, n), 3, dtype=np.int64)
    np.fill_diagonal(d, 0)
    return {"dist": d}


MODES = {
    "tree": dict(plans=False, frontier=False),
    "plans": dict(plans=True, frontier=False, fusion=False),
    "plans+frontier": dict(plans=True, frontier=True, fusion=False),
    "plans+frontier+fusion": dict(plans=True, frontier=True, fusion=True),
}


def _best_of(src, defines, inputs, **kw):
    prog = UCProgram(src, defines=defines, **kw)
    best = None
    result = None
    for _ in range(REPS):
        run_inputs = {k: v.copy() for k, v in inputs.items()} if inputs else None
        t0 = time.perf_counter()
        result = prog.run(run_inputs)
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best, result


def _sweeps(result) -> int:
    return result.frontier.get("full_sweeps", 0) + result.frontier.get(
        "compressed_sweeps", 0
    )


def _measure_modes(name, src, defines, inputs):
    """Run every mode; assert value + fingerprint equality; return stats."""
    out = {}
    for mode, kw in MODES.items():
        t, r = _best_of(src, defines, inputs, **kw)
        out[mode] = (t, r)
    ref = out["plans"][1]
    for mode, (_t, r) in out.items():
        for var in r.keys():
            a, b = r[var], ref[var]
            same = np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            assert same, f"{name}/{mode}: {var!r} diverges from the plans mode"
    # fusion must be fingerprint-invisible within each frontier mode
    assert (
        out["plans+frontier+fusion"][1].fingerprint
        == out["plans+frontier"][1].fingerprint
    ), f"{name}: fusion changed the Clock fingerprint"
    assert out["plans"][1].fingerprint == out["tree"][1].fingerprint, (
        f"{name}: the two engines disagree on the full-sweep fingerprint"
    )
    return out


def _apsp_row(label, n):
    defines = {"N": n}
    long_runs = _measure_modes(label, APSP_UC, defines, _chain_input(n))
    short_runs = _measure_modes(label + " (closed)", APSP_UC, defines, _closed_input(n))

    fused = long_runs["plans+frontier+fusion"][1]
    assert fused.fusion.get("fused_sweeps", 0) >= 2, (
        f"{label}: expected fused sweeps, got {dict(fused.fusion)}"
    )
    assert fused.fusion.get("charge_table_hits", 0) >= 2, (
        f"{label}: charge tables never replayed: {dict(fused.fusion)}"
    )

    def steady(mode):
        t_long, r_long = long_runs[mode]
        t_short, r_short = short_runs[mode]
        ds = _sweeps(r_long) - _sweeps(r_short)
        assert ds > 0, f"{label}/{mode}: no extra steady-state sweeps to charge"
        return (t_long - t_short) / ds

    steady_fused = steady("plans+frontier+fusion")
    steady_plain = steady("plans+frontier")
    whole_fused = long_runs["plans+frontier+fusion"][0]
    whole_plain = long_runs["plans+frontier"][0]
    return [
        {
            "workload": label,
            "engine": "steady",
            "fused_ms_per_sweep": steady_fused * 1e3,
            "unfused_ms_per_sweep": steady_plain * 1e3,
            "speedup": steady_plain / steady_fused,
            "sweeps": _sweeps(long_runs["plans+frontier+fusion"][1]),
            "counters": dict(fused.fusion),
        },
        {
            "workload": label,
            "engine": "whole",
            "fused_ms": whole_fused * 1e3,
            "unfused_ms": whole_plain * 1e3,
            "tree_ms": long_runs["tree"][0] * 1e3,
            "plans_ms": long_runs["plans"][0] * 1e3,
            "speedup": whole_plain / whole_fused,
        },
    ]


def _simple_row(label, src, defines, inputs, *, expect):
    runs = _measure_modes(label, src, defines, inputs)
    fused = runs["plans+frontier+fusion"][1]
    if expect == "fused":
        assert fused.fusion.get("fused_sweeps", 0) >= 1, (
            f"{label}: nothing fused: {dict(fused.fusion)}"
        )
    elif expect == "split":
        assert fused.fusion.get("fused_segments", 0) >= 2, dict(fused.fusion)
        assert fused.fusion.get("unfused_segments", 0) >= 1, dict(fused.fusion)
    elif expect == "unfusable":
        assert fused.fusion.get("unfusable", 0) >= 1, dict(fused.fusion)
        assert fused.fusion.get("fused_segments", 0) == 0, dict(fused.fusion)
    return {
        "workload": label,
        "engine": "whole",
        "fused_ms": runs["plans+frontier+fusion"][0] * 1e3,
        "unfused_ms": runs["plans+frontier"][0] * 1e3,
        "tree_ms": runs["tree"][0] * 1e3,
        "plans_ms": runs["plans"][0] * 1e3,
        "speedup": runs["plans+frontier"][0] / runs["plans+frontier+fusion"][0],
        "counters": dict(fused.fusion),
    }


def run_bench(small: bool = False):
    sizes = SMOKE_SIZES if small else FULL_SIZES
    rows = []
    rows.extend(_apsp_row(f"apsp n={sizes['apsp64']}", sizes["apsp64"]))
    rows.extend(_apsp_row(f"apsp n={sizes['apsp128']}", sizes["apsp128"]))
    n = sizes["wavefront"]
    rows.append(
        _simple_row(
            f"wavefront n={n}", WAVEFRONT_STAR_UC, {"N": n}, None, expect="fused"
        )
    )
    n = sizes["split"]
    rows.append(
        _simple_row(
            f"split n={n}",
            SPLIT_UC,
            {"N": n},
            {"a": np.zeros(n, dtype=np.int64)},
            expect="split",
        )
    )
    n = sizes["unfusable"]
    rows.append(
        _simple_row(
            f"unfusable n={n}",
            UNFUSABLE_UC,
            {"N": n},
            {"a": np.zeros(n, dtype=np.int64)},
            expect="unfusable",
        )
    )
    return rows, small


def check_bench(rows, small: bool) -> None:
    by_key = {(r["workload"], r["engine"]): r for r in rows}
    if not small:
        # the acceptance row: fused steady-state sweeps at least 2x
        # cheaper than the walker's
        key = next(k for k in by_key if k[0].startswith("apsp n=64"))
        row = by_key[(key[0], "steady")]
        assert row["speedup"] >= 2.0, (
            f"{key[0]}: steady-state fusion speedup {row['speedup']:.2f}x "
            f"below the 2x acceptance bar"
        )
    for r in rows:
        if r["workload"].startswith("unfusable"):
            # the bail path must cost wall-clock parity, not a cliff
            assert r["speedup"] >= 0.5, (
                f"{r['workload']}: unfusable fallback overhead exceeded 2x "
                f"({r['speedup']:.2f}x)"
            )


def write_json(rows, small: bool) -> Path:
    out = REPO_ROOT / "BENCH_fusion.json"
    out.write_text(
        json.dumps(
            {
                "benchmark": "kernel fusion: fused register programs vs "
                "the walker",
                "mode": "small" if small else "full",
                "reps": REPS,
                "escape_hatch": "REPRO_NO_FUSION=1",
                "steady_state_metric": "marginal wall time per extra sweep, "
                "chain input minus transitively-closed input",
                "rows": rows,
            },
            indent=2,
        )
        + "\n"
    )
    return out


def report(rows, small: bool) -> None:
    table = format_table(
        [
            "workload",
            "metric",
            "unfused (ms)",
            "fused (ms)",
            "speedup",
        ],
        [
            (
                r["workload"],
                "ms/sweep" if r["engine"] == "steady" else "whole run",
                r.get("unfused_ms", r.get("unfused_ms_per_sweep")),
                r.get("fused_ms", r.get("fused_ms_per_sweep")),
                f"{r['speedup']:.2f}x",
            )
            for r in rows
        ],
        title="Kernel fusion vs the walker "
        "(identical results and Clock fingerprints in every mode)",
    )
    save_report("bench_fusion", table)
    path = write_json(rows, small)
    print(f"wrote {path}")


@pytest.mark.benchmark(group="fusion")
def test_fusion_speedup(benchmark):
    rows, small = benchmark.pedantic(run_bench, iterations=1, rounds=1)
    check_bench(rows, small)
    report(rows, small)


if __name__ == "__main__":
    is_small = "--smoke" in sys.argv[1:] or "--small" in sys.argv[1:]
    bench_rows, bench_small = run_bench(small=is_small)
    check_bench(bench_rows, bench_small)
    report(bench_rows, bench_small)
