"""Differential tests: the compiled plan engine vs the tree-walking oracle.

The plan engine (``repro.interp.plan``) must be an *invisible*
optimization: for every program, results, stdout, and the full cost
ledger (``Clock.fingerprint()``) must be bit-identical to the
tree-walker's.  These tests run every workload and example under both
engines and compare everything.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.shortest_path import random_distance_matrix
from repro.bench import workloads as W
from repro.bench.workloads import log2_ceil
from repro.interp import eval_expr, fuse, plan
from repro.interp.compile_store import CompileStore
from repro.interp.plan_cache import PlanCache
from repro.interp.program import UCProgram
from repro.lang.errors import UCRuntimeError

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "uc"
BIG = 1 << 20


def run_both(src, defines=None, inputs=None, seed=20250704, **kw):
    """One run per engine; returns (plans_result, tree_result, fingerprints)."""
    prints = []
    results = []
    for plans in (True, False):
        prog = UCProgram(src, defines=defines, plans=plans, **kw)
        results.append(prog.run(dict(inputs or {}), seed=seed))
        prints.append(prog.last_interpreter.machine.clock.fingerprint())
    return results[0], results[1], prints


def assert_identical(src, defines=None, inputs=None, **kw):
    on, off, (fp_on, fp_off) = run_both(src, defines, inputs, **kw)
    assert fp_on == fp_off, "cost ledgers diverge between engines"
    assert on.elapsed_us == off.elapsed_us
    assert on.counts == off.counts
    assert on.stdout == off.stdout
    for name in on.keys():
        va, vb = on[name], off[name]
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), f"variable {name!r} diverges"
        else:
            assert va == vb, f"variable {name!r} diverges"


RNG = np.random.default_rng(11)


WORKLOADS = {
    "apsp_solve": (W.APSP_SOLVE_UC, {"N": 16}, {"dist": random_distance_matrix(16, seed=3)}, {}),
    "apsp_solve_guarded": (
        W.APSP_SOLVE_UC,
        {"N": 16},
        {"dist": random_distance_matrix(16, seed=3)},
        {"solve_strategy": "guarded"},
    ),
    "apsp_n2": (W.APSP_N2_UC, {"N": 16}, {"d": random_distance_matrix(16, seed=3)}, {}),
    "apsp_n2_selfinit": (W.APSP_N2_UC_SELFINIT, {"N": 16}, None, {}),
    "apsp_n3": (
        W.APSP_N3_UC,
        {"N": 16, "LOGN": log2_ceil(16)},
        {"d": random_distance_matrix(16, seed=3)},
        {},
    ),
    "wavefront": (W.WAVEFRONT_UC, {"N": 10}, None, {}),
    "wavefront_guarded": (W.WAVEFRONT_UC, {"N": 10}, None, {"solve_strategy": "guarded"}),
    "obstacle": (W.OBSTACLE_UC, {"R": 12, "WALL": BIG}, None, {}),
    "prefix_starpar": (W.PREFIX_STARPAR_UC, {"N": 16}, None, {}),
    "prefix_seq": (W.PREFIX_SEQ_UC, {"N": 16, "LOGN": 4}, None, {}),
    "oddeven": (W.ODDEVEN_UC, {"N": 16}, {"x": RNG.integers(0, 99, 16)}, {}),
    "ranksort": (W.RANKSORT_UC, {"N": 16}, {"a": RNG.permutation(16)}, {}),
    "digit_count": (W.DIGIT_COUNT_UC, {"N": 16}, {"samples": RNG.integers(0, 10, 16)}, {}),
    "matmul": (
        W.MATMUL_UC,
        {"N": 8},
        {"a": RNG.integers(0, 9, (8, 8)), "b": RNG.integers(0, 9, (8, 8))},
        {},
    ),
    "apsp_no_cse": (
        W.APSP_SOLVE_UC,
        {"N": 12},
        {"dist": random_distance_matrix(12, seed=3)},
        {"cse": False},
    ),
    "apsp_no_procopt": (
        W.APSP_SOLVE_UC,
        {"N": 12},
        {"dist": random_distance_matrix(12, seed=3)},
        {"processor_opt": False},
    ),
}


class TestWorkloadsDifferential:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_identical_results_and_clock(self, name):
        src, defines, inputs, kw = WORKLOADS[name]
        assert_identical(src, defines, inputs, **kw)

    def test_dynamic_obstacle(self):
        walls = (np.random.default_rng(5).random((10, 10)) < 0.2).astype(np.int64)
        walls[0, 0] = 0
        assert_identical(
            W.DYNAMIC_OBSTACLE_UC, {"R": 10, "WALL": BIG}, {"walls": walls}
        )


class TestExamplesDifferential:
    """Every shipped .uc example behaves identically under both engines
    (same seed -> same rand() stream -> comparable outputs)."""

    @pytest.mark.parametrize(
        "script,defines",
        [("apsp.uc", {"N": 8}), ("histogram.uc", {"N": 32}), ("shifted.uc", None)],
    )
    def test_example(self, script, defines):
        src = (EXAMPLES / script).read_text()
        assert_identical(src, defines)


class TestPlanCache:
    def test_iterated_construct_hits_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_PLANS", raising=False)
        src = """
        index_set I:i = {0..15}, K:k = {0..7};
        int a[16];
        main {
            par (I) a[i] = i;
            seq (K) par (I) a[i] = a[i] + 1;
        }
        """
        prog = UCProgram(src)
        res = prog.run()
        assert list(res["a"]) == [i + 8 for i in range(16)]
        cache = prog.last_interpreter.plan_cache
        stats = cache.stats()
        # the seq-in-par body compiles once, then hits on every iteration
        assert stats["misses"] >= 1
        assert stats["hits"] >= 7

    def test_disable_via_constructor(self):
        src = "index_set I:i = {0..7}; int a[8]; main { par (I) a[i] = i; }"
        prog = UCProgram(src, plans=False)
        prog.run()
        assert prog.last_interpreter.plans_enabled is False
        assert len(prog.last_interpreter.plan_cache) == 0

    def test_disable_via_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_PLANS", "1")
        src = "index_set I:i = {0..7}; int a[8]; main { par (I) a[i] = i; }"
        prog = UCProgram(src, plans=True)
        prog.run()
        assert prog.last_interpreter.plans_enabled is False

    def test_node_identity_guard(self):
        """A recycled id() can never resurrect a stale plan."""
        cache = PlanCache(capacity=4)
        node_a = object()
        plan_a = cache.get_or_build("construct", node_a, (), lambda: "plan-a")
        assert plan_a == "plan-a"
        # same key coordinates but a different node object -> rebuild
        class Fake:
            pass

        fake = Fake()
        cache._entries[("construct", id(fake), ())] = (object(), "stale")
        rebuilt = cache.get_or_build("construct", fake, (), lambda: "fresh")
        assert rebuilt == "fresh"

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        nodes = [object() for _ in range(3)]
        for k, node in enumerate(nodes):
            cache.get_or_build("construct", node, (), lambda k=k: f"plan-{k}")
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        # oldest entry evicted; newest two still hit
        cache.get_or_build("construct", nodes[2], (), lambda: "rebuilt")
        assert cache.stats()["hits"] == 1


class TestRecipeGeometry:
    """Grids chosen to stress the np.ix_ recipe construction: transposed
    subscripts, constant axes, negative/overflow offsets (oob replay)."""

    def test_transposed_gather(self):
        src = """
        index_set I:i = {0..5}, J:j = {0..6}, K:k = {0..7};
        int a[8][7], out[6][7][8];
        main {
            seq (K) st (k < 4) par (I, J) out[i][j][k] = a[k][j] + i;
        }
        """
        assert_identical(src)

    def test_offset_gather_with_oob_guard(self):
        src = """
        index_set I:i = {0..9}, K:k = {0..2};
        int a[10], b[10];
        main {
            par (I) b[i] = i;
            seq (K) par (I) st (i > 0) a[i] = b[i-1] + a[i] + 1;
        }
        """
        assert_identical(src)

    def test_constant_subscript(self):
        assert_identical(
            """
            index_set I:i = {0..7}, K:k = {0..3};
            int m[4][8], v[8];
            main {
                par (I, K) m[k][i] = i * 4 + k;
                seq (K) par (I) v[i] = v[i] + m[0][i] + m[k][i];
            }
            """
        )


class TestRecipeProbe:
    """A take recipe is kept only if it reads the right positions.  Over
    all-zero data a wrong recipe gathers the same values as the right
    one, so ``ref_map`` checks it on an index probe, not on live data."""

    SRC = """
    index_set I:i = {0..7}, J:j = {0..7}, K:k = {0..3};
    int a[8][8], b[8][8];
    main {
        seq (K) {
            par (I, J) b[i][j] = a[i][7 - j] + i * 8 + j;
            par (I, J) a[i][j] = b[i][j] * 2 + k;
        }
    }
    """

    @pytest.mark.parametrize("fusion", [True, False], ids=["fused", "plans"])
    def test_swapped_recipe_is_rejected(self, fusion, monkeypatch):
        monkeypatch.delenv("REPRO_NO_PLANS", raising=False)
        real = plan._build_index_recipe

        def swapped(subs, view_shape, grid_shape):
            r = real(subs, view_shape, grid_shape)
            if r is not None and len(r.vecs) == 2:
                r = plan._IndexRecipe(
                    r.vecs[::-1], r.perm, r.squeeze, r.expand, r.shape
                )
            return r

        monkeypatch.setattr(plan, "_build_index_recipe", swapped)
        assert_identical(self.SRC, compile_store=None, fusion=fusion)


class TestPureBuiltins:
    """Plans evaluate every pure builtin from the oracle's own table."""

    SRC = """
    index_set I:i = {0..15}, K:k = {0..2};
    int a[16], s;
    float f[16];
    main {
        par (I) a[i] = i - 7;
        seq (K) par (I) {
            a[i] = max(min(a[i] * 3, 40), 0 - 40) + power2(i % 5) + abs(a[i])
                   + ABS(k - i);
            f[i] = sqrt(fabs(a[i] * 1.5)) + f[i];
        }
        s = power2(3) + abs(0 - 4) + min(3, 9) + max(2, 1);
    }
    """

    def test_every_builtin_matches_the_oracle(self):
        assert_identical(self.SRC)

    def test_negative_sqrt_message_matches_the_oracle(self):
        src = (
            "index_set I:i = {0..3};\nfloat f[4];\nint s;\n"
            "main { s = 0 - 4; par (I) f[i] = sqrt(s); }"
        )
        messages = []
        for plans in (True, False):
            with pytest.raises(UCRuntimeError, match="sqrt of a negative") as err:
                UCProgram(src, plans=plans).run()
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def count_classifications(monkeypatch):
    """Count every reference classification the engines ask for."""
    calls = {"n": 0}
    for mod in (plan, eval_expr, fuse):
        for name in ("classify_reference", "classify_write"):
            real = getattr(mod, name)

            def counted(*args, _real=real, **kwargs):
                calls["n"] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    return calls


WARM = {
    "apsp_n2": (W.APSP_N2_UC, {"N": 16}, lambda r: {"d": random_distance_matrix(16, seed=r)}, {}),
    "oddeven": (W.ODDEVEN_UC, {"N": 16}, lambda r: {"x": np.random.default_rng(r).permutation(16)}, {}),
    "wavefront": (W.WAVEFRONT_UC, {"N": 10}, lambda r: None, {}),
    "wavefront_guarded": (W.WAVEFRONT_UC, {"N": 10}, lambda r: None, {"solve_strategy": "guarded"}),
    "obstacle": (W.OBSTACLE_UC, {"R": 12, "WALL": BIG}, lambda r: None, {}),
}


class TestWarmRunMemos:
    """Reference memos survive across seq steps and across runs: a warm
    run through a shared compile store classifies no static reference."""

    @pytest.fixture(autouse=True)
    def _memoising_engine(self, monkeypatch):
        # the memos under test belong to the plan engine with the tier
        # dispatcher on (the router-only ablation re-gathers by design)
        monkeypatch.delenv("REPRO_NO_PLANS", raising=False)
        monkeypatch.delenv("REPRO_NO_COMM_TIERS", raising=False)

    @pytest.mark.parametrize("name", sorted(WARM))
    def test_second_run_classifies_nothing(self, name, monkeypatch):
        src, defines, make, kw = WARM[name]
        prog = UCProgram(src, defines=defines, compile_store=CompileStore(), **kw)
        calls = count_classifications(monkeypatch)
        prog.run(make(1), seed=1)
        assert calls["n"] > 0
        calls["n"] = 0
        warm = prog.run(make(2), seed=2)
        assert calls["n"] == 0
        # the warm run is still exactly the tree oracle's run
        oracle = UCProgram(src, defines=defines, plans=False, compile_store=None, **kw)
        cold = oracle.run(make(2), seed=2)
        assert (
            prog.last_interpreter.machine.clock.fingerprint()
            == oracle.last_interpreter.machine.clock.fingerprint()
        )
        for var in cold.keys():
            assert np.array_equal(np.asarray(warm[var]), np.asarray(cold[var]))

    def test_table_never_exceeds_its_bound(self, monkeypatch):
        monkeypatch.setattr(plan, "MEMO_ENTRIES", 4)
        sizes = []
        real_put = plan._MemoTable.put

        def put(table, key, memo):
            real_put(table, key, memo)
            sizes.append(len(table))

        monkeypatch.setattr(plan._MemoTable, "put", put)
        # d[i][k] / d[k][j] need one entry per k = 0..15: the table cycles
        src, defines, make, _kw = WARM["apsp_n2"]
        assert_identical(src, defines, make(3), compile_store=CompileStore())
        assert max(sizes) == 4

    def test_byte_budget_keeps_one_entry(self, monkeypatch):
        monkeypatch.setattr(plan, "MEMO_BYTES", 1)
        sizes = []
        real_put = plan._MemoTable.put

        def put(table, key, memo):
            real_put(table, key, memo)
            sizes.append(len(table))
            assert table.nbytes == sum(m.nbytes for m in table.entries.values())

        monkeypatch.setattr(plan._MemoTable, "put", put)
        src, defines, make, _kw = WARM["apsp_n2"]
        assert_identical(src, defines, make(3), compile_store=CompileStore())
        assert sizes and max(sizes) == 1

    def test_new_layout_misses_the_memo(self, monkeypatch):
        """A relayout installs a new Layout: memos built for the old one
        must miss, and the run must match the oracle under the new one."""
        src, defines, make, _kw = WARM["apsp_n2"]
        prog = UCProgram(src, defines=defines, compile_store=CompileStore())
        prog.run(make(1), seed=1)
        moved = replace(prog.layouts.get("d"), axis_perm=(1, 0))
        prog.layouts.add(moved)
        calls = count_classifications(monkeypatch)
        got = prog.run(make(2), seed=2)
        assert calls["n"] > 0
        oracle = UCProgram(src, defines=defines, plans=False, compile_store=None)
        oracle.layouts.add(moved)
        want = oracle.run(make(2), seed=2)
        assert np.array_equal(got["d"], want["d"])
        fp = prog.last_interpreter.machine.clock.fingerprint()
        assert fp == oracle.last_interpreter.machine.clock.fingerprint()


#: odd-even transposition sort with swap() in a protected seq/par body
SWAP_SORT = """
index_set I:i = {0..N-2}, K:k = {0..N-1};
int x[N];
main {
    seq (K)
      par (I)
        st (i % 2 == k % 2 && x[i] > x[i+1]) swap(x[i], x[i+1]);
}
"""
SWAP_X = np.random.default_rng(4).permutation(16)


class TestCompiledSwap:
    """swap() runs through memoised gathers and scatters, indistinguishable
    from the memo-free walker's."""

    @pytest.mark.parametrize("src", [W.ODDEVEN_UC, SWAP_SORT], ids=["oneof", "seqpar"])
    @pytest.mark.parametrize(
        "kw",
        [{}, {"sanitize": True}, {"shards": 4}, {"comm_tiers": False}, {"frontier": False}],
        ids=["default", "sanitize", "shards4", "router-only", "no-frontier"],
    )
    def test_parity(self, src, kw):
        assert_identical(src, {"N": 16}, {"x": SWAP_X}, **kw)

    def test_warm_swap_classifies_nothing(self, monkeypatch):
        """A swap's references memoise like any other: a warm run of a
        seq/par swap sort through a shared store classifies nothing."""
        monkeypatch.delenv("REPRO_NO_PLANS", raising=False)
        monkeypatch.delenv("REPRO_NO_COMM_TIERS", raising=False)
        prog = UCProgram(SWAP_SORT, defines={"N": 16}, compile_store=CompileStore())
        prog.run({"x": SWAP_X})
        calls = count_classifications(monkeypatch)
        res = prog.run({"x": SWAP_X[::-1].copy()})
        assert list(res["x"]) == sorted(SWAP_X)
        assert calls["n"] == 0

    def test_sanitizer_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        on, off, (fp_on, fp_off) = run_both(W.ODDEVEN_UC, {"N": 16}, {"x": SWAP_X})
        assert fp_on == fp_off
        assert on.sanitizer == off.sanitizer
        assert on.sanitizer

    def test_tier_log(self):
        logs = []
        for plans in (True, False):
            prog = UCProgram(W.ODDEVEN_UC, defines={"N": 16}, plans=plans, log_tiers=True)
            prog.run({"x": SWAP_X})
            logs.append(prog.last_interpreter.tier_log)
        assert logs[0] == logs[1]
        assert logs[0]

    @pytest.mark.parametrize("spec", ["kill:2@alu#20", "drop@alu#30", "kill:1@alu#5;drop@alu#40"])
    def test_fault_recovery(self, spec):
        on, off, (fp_on, fp_off) = run_both(SWAP_SORT, {"N": 16}, {"x": SWAP_X}, faults=spec)
        assert fp_on == fp_off
        assert on.recovery == off.recovery and on.recovery["retries"] >= 1
        assert list(on["x"]) == list(off["x"]) == sorted(SWAP_X)

    def test_user_function_named_swap_wins(self):
        src = """
        index_set I:i = {0..7};
        int x[8], y[8];
        int swap(int a, int b) { return a * 10 + b; }
        main {
            par (I) x[i] = i;
            par (I) st (i < 7) y[i] = swap(x[i], x[i+1]);
        }
        """
        assert_identical(src)
        res = UCProgram(src).run()
        assert list(res["y"][:7]) == [i * 10 + i + 1 for i in range(7)]

    @pytest.mark.parametrize("plans", [True, False])
    def test_non_reference_argument_error(self, plans):
        src = """index_set I:i = {0..7};
int x[8];
main { par (I) swap(x[i], 3); }"""
        with pytest.raises(UCRuntimeError) as exc:
            UCProgram(src, plans=plans).run()
        assert "swap takes two array references" in str(exc.value)
        assert (exc.value.line, exc.value.col) == (3, 16)

    @pytest.mark.parametrize("plans", [True, False])
    def test_colliding_lanes_raise_uc101(self, plans):
        src = """index_set I:i = {0..3};
int x[4];
main {
    par (I) x[i] = i + 1;
    par (I) swap(x[i], x[0]);
}"""
        with pytest.raises(UCRuntimeError) as exc:
            UCProgram(src, plans=plans).run()
        msg = str(exc.value)
        assert msg.startswith("[UC101] par assigns multiple distinct values to 'x'")
        assert "(paper §3.4)" in msg
        assert (exc.value.line, exc.value.col) == (5, 24)

    def test_host_swap_delegates(self):
        src = """
        index_set K:k = {0..3};
        int x[4];
        main { x[0] = 5; x[3] = 7; seq (K) st (k < 2) swap(x[k], x[3-k]); }
        """
        assert_identical(src)
        assert list(UCProgram(src).run()["x"]) == [7, 0, 0, 5]
