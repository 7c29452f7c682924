"""Frontier (active-set) sweep engine tests.

The frontier engine compresses iterated-construct sweeps onto the VPs
that can still change (see ``src/repro/interp/frontier.py``).  These
tests pin its observable contract: bit-identical results and fingerprints
with the escape hatch, a never-higher Clock with the engine on, honest
counters, and fallback on bodies it cannot analyze.
"""

import numpy as np

from repro.interp.program import UCProgram
from tests.conftest import run_uc

#: APSP over two disconnected communities: {11..63} is pairwise weight 3
#: (already closed under min-plus, so it quiesces after the first sweep)
#: while {0..10} is a chain whose long paths keep relaxing for several
#: more sweeps.  After sweep one only the 11x11 chain block can change,
#: so the active set collapses to ~7% of the domain — exactly the shape
#: the compression estimate accepts.  Smaller grids are correctly left
#: uncompressed (shallow reductions never amortize the sweep overhead),
#: which is why this test pays for a 64x64 run.
APSP = """
index_set I:i = {0..63}, J:j = I, K:k = I;
int d[64][64];
main {
    *solve (I, J)
        d[i][j] = $<(K; d[i][k] + d[k][j]);
}
"""


#: the same closure written through pure builtin calls: compressed sweeps
#: evaluate and charge them from the table the other engines use
APSP_BUILTINS = APSP.replace(
    "d[i][k] + d[k][j]",
    "max(d[i][k], 0) + min(d[k][j], power2(30)) + abs(ABS(0))",
)


def _apsp_input():
    d = np.full((64, 64), 10**9, dtype=np.int64)
    d[11:, 11:] = 3
    np.fill_diagonal(d, 0)
    for v in range(10):
        d[v, v + 1] = d[v + 1, v] = 1
    return {"d": d}


GUARDED_CHAIN = (
    "index_set I:i = {0..4};\nint a[5], b[5];\n"
    "main { solve (I) { a[i] = (i == 0) ? 1 : b[i-1] + 1; "
    "b[i] = a[i] * 2; } }"
)

WAVEFRONT = (
    "int N = 8;\nindex_set I:i = {0..N-1}, J:j = I;\nint a[8][8];\n"
    "main { solve (I, J) a[i][j] = (i == 0 || j == 0) ? 1 "
    ": a[i-1][j] + a[i-1][j-1] + a[i][j-1]; }"
)


class TestStarFrontier:
    def test_compressed_sweeps_and_counters(self):
        r = run_uc(APSP, _apsp_input())
        assert r.frontier["constructs"] == 1
        assert r.frontier["full_sweeps"] >= 1
        assert r.frontier["compressed_sweeps"] >= 1
        assert r.frontier["active_lanes"] < r.frontier["domain_lanes"]
        assert r.frontier_trace, "compressed sweeps must leave a trace"
        assert all(a <= d for a, d in r.frontier_trace)

    def test_builtin_calls_compress_like_the_oracle(self):
        on = run_uc(APSP_BUILTINS, _apsp_input())
        assert on.frontier["compressed_sweeps"] >= 1
        off = run_uc(APSP_BUILTINS, _apsp_input(), frontier=False)
        tree = run_uc(APSP_BUILTINS, _apsp_input(), plans=False)
        assert np.array_equal(on["d"], off["d"])
        assert np.array_equal(on["d"], tree["d"])
        assert on.fingerprint == tree.fingerprint

    def test_identical_results_and_never_higher_clock(self):
        on = run_uc(APSP, _apsp_input())
        off = run_uc(APSP, _apsp_input(), frontier=False)
        assert np.array_equal(on["d"], off["d"])
        assert on.elapsed_us <= off.elapsed_us
        assert not off.frontier

    def test_disable_flag_restores_full_sweep_fingerprint(self, monkeypatch):
        base = run_uc(APSP, _apsp_input(), frontier=False)
        monkeypatch.setenv("REPRO_NO_FRONTIER", "1")
        hatch = run_uc(APSP, _apsp_input())
        assert hatch.fingerprint == base.fingerprint
        assert not hatch.frontier

    def test_both_engines_agree_under_frontier(self):
        plans = run_uc(APSP, _apsp_input(), plans=True)
        tree = run_uc(APSP, _apsp_input(), plans=False)
        assert np.array_equal(plans["d"], tree["d"])
        assert plans.fingerprint == tree.fingerprint


class TestGuardedFrontier:
    def test_skips_quiescent_assignments(self):
        on = run_uc(GUARDED_CHAIN, solve_strategy="guarded")
        off = run_uc(GUARDED_CHAIN, solve_strategy="guarded", frontier=False)
        assert on.frontier["guarded_constructs"] == 1
        assert on.frontier["guarded_skips"] >= 1
        assert np.array_equal(on["a"], off["a"])
        assert np.array_equal(on["b"], off["b"])
        # skipping only fires when no lane could fire, so convergence
        # takes the same sweeps and the Clock never rises
        assert on.elapsed_us <= off.elapsed_us

    def test_single_assignment_falls_back(self):
        # with one assignment a skip can only happen when the sweep would
        # make no progress at all, so the bookkeeping is not armed
        r = run_uc(WAVEFRONT, solve_strategy="guarded")
        full = run_uc(WAVEFRONT, solve_strategy="guarded", frontier=False)
        assert r.frontier.get("fallbacks", 0) >= 1
        assert "guarded_constructs" not in r.frontier
        assert r.fingerprint == full.fingerprint

    def test_data_dependent_subscript_falls_back(self):
        src = (
            "index_set I:i = {0..3};\nint a[4], p[4], q[4];\n"
            "main { solve (I) { a[i] = (i == 0) ? 1 : a[p[i]] + 1; "
            "q[i] = a[i]; } }"
        )
        inputs = {"p": np.array([0, 0, 1, 2])}
        r = run_uc(src, inputs, solve_strategy="guarded")
        assert r.frontier.get("fallbacks", 0) >= 1
        assert r["a"].tolist() == [1, 2, 3, 4]


class TestProgramSurface:
    def test_runresult_exposes_frontier_stats(self):
        prog = UCProgram(APSP, frontier=True)
        r = prog.run(_apsp_input())
        assert isinstance(r.frontier, dict)
        assert isinstance(r.frontier_trace, list)

    def test_frontier_runs_are_deterministic(self):
        a = run_uc(APSP, _apsp_input())
        b = run_uc(APSP, _apsp_input())
        assert a.fingerprint == b.fingerprint
        assert dict(a.frontier) == dict(b.frontier)
        assert a.frontier_trace == b.frontier_trace
