"""Batched lane execution (``UCProgram.run_batch``).

The contract under test: lane ``i`` of ``run_batch(inputs)`` is
bit-identical — variable values, stdout and the Clock cost fingerprint —
to ``run(inputs[i])``, under every engine/frontier/fusion combination.
Lane sweeps run the fused register program itself (one leading lane
axis), so the differentials below cover every fused step kind.
"""

import numpy as np
import pytest

from repro.interp import batch as batch_mod
from repro.interp import fuse as fuse_mod
from repro.interp.program import UCProgram
from repro.lang.errors import UCRuntimeError

APSP = (
    "int N = 12;\n"
    "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
    "int dist[12][12];\n"
    "main {\n"
    "    *solve (I, J) dist[i][j] = $<(K; dist[i][k] + dist[k][j]);\n"
    "}\n"
)

DRAIN = (
    "int N = 10;\n"
    "index_set I:i = {0..N-1}, J:j = I;\n"
    "int a[10][10];\n"
    "int b[10][10];\n"
    "main {\n"
    "    *par (I, J) st (a[i][j] > 0) {\n"
    "        b[i][j] = b[i][j] + a[i][j];\n"
    "        a[i][j] = a[i][j] - 1;\n"
    "    }\n"
    "}\n"
)

_FLAGS = [
    {"frontier": True, "fusion": True},
    {"frontier": True, "fusion": False},
    {"frontier": False, "fusion": True},
    {"frontier": False, "fusion": False},
]


def _chain(n, w):
    d = np.full((n, n), 10**9, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for a in range(n - 1):
        d[a, a + 1] = w
        d[a + 1, a] = w
    return d


def _copy(inp):
    if inp is None:
        return None
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in inp.items()}


@pytest.fixture
def lane_engine(monkeypatch):
    """Lanes stack only on the plan engine's fused kernels, unsharded
    (and NEWS-shift gathers need the tier dispatcher): pin that
    configuration whatever ablation the suite runs under."""
    for var in (
        "REPRO_NO_PLANS", "REPRO_NO_FUSION", "REPRO_SHARDS", "REPRO_NO_COMM_TIERS",
    ):
        monkeypatch.delenv(var, raising=False)


def _assert_lanes_match(solo, batch, names):
    assert len(solo) == len(batch)
    for i, (a, b) in enumerate(zip(solo, batch)):
        for name in names:
            assert np.array_equal(a[name], b[name]), f"lane {i}: {name} differs"
        assert a.fingerprint == b.fingerprint, f"lane {i}: fingerprint differs"
        assert a.stdout == b.stdout, f"lane {i}: stdout differs"
        assert a.frontier == b.frontier, f"lane {i}: frontier counters differ"
        assert a.fusion == b.fusion, f"lane {i}: fusion counters differ"


class TestSolveIdentity:
    @pytest.mark.parametrize("flags", _FLAGS)
    def test_lanes_bit_identical_to_solo(self, flags):
        inputs = [{"dist": _chain(12, w)} for w in (1, 2, 3, 5, 8)]
        solo = [
            UCProgram(APSP, compile_store=None, **flags).run(_copy(inp))
            for inp in inputs
        ]
        batch = UCProgram(APSP, compile_store=None, **flags).run_batch(
            [_copy(inp) for inp in inputs]
        )
        _assert_lanes_match(solo, batch, ["dist"])

    @pytest.mark.usefixtures("lane_engine")
    def test_batched_lanes_marker(self):
        inputs = [{"dist": _chain(12, w)} for w in (1, 2, 3)]
        prog = UCProgram(APSP, compile_store=None)
        batch = prog.run_batch(inputs)
        for r in batch:
            assert r.compile["batched_lanes"] == 3.0

    def test_shared_compile_store_counts_one_backend(self):
        from repro.interp.compile_store import CompileStore

        store = CompileStore()
        prog = UCProgram(APSP, compile_store=store)
        results = prog.run_batch([{"dist": _chain(12, w)} for w in (1, 2)])
        stats = results[-1].store
        assert stats["backend_entries"] == 1
        assert stats["backend_misses"] == 1


class TestParIdentity:
    @pytest.mark.parametrize("flags", _FLAGS)
    def test_lanes_bit_identical_to_solo(self, flags):
        rng = np.random.default_rng(11)
        inputs = [
            {
                "a": rng.integers(0, 5, size=(10, 10)).astype(np.int64),
                "b": np.zeros((10, 10), dtype=np.int64),
            }
            for _ in range(4)
        ]
        solo = [
            UCProgram(DRAIN, compile_store=None, **flags).run(_copy(inp))
            for inp in inputs
        ]
        batch = UCProgram(DRAIN, compile_store=None, **flags).run_batch(
            [_copy(inp) for inp in inputs]
        )
        _assert_lanes_match(solo, batch, ["a", "b"])

    def test_staggered_retirement(self):
        """Lanes whose predicates drain at different sweeps retire
        independently; late lanes are unaffected by early retirees."""
        inputs = [
            {
                "a": np.full((10, 10), depth, dtype=np.int64),
                "b": np.zeros((10, 10), dtype=np.int64),
            }
            for depth in (1, 7, 3, 0)
        ]
        solo = [
            UCProgram(DRAIN, compile_store=None).run(_copy(inp)) for inp in inputs
        ]
        batch = UCProgram(DRAIN, compile_store=None).run_batch(
            [_copy(inp) for inp in inputs]
        )
        _assert_lanes_match(solo, batch, ["a", "b"])
        assert all(np.all(r["a"] == 0) for r in batch)


class TestScalarLanes:
    SRC = (
        "int N = 8;\n"
        "index_set I:i = {0..N-1};\n"
        "int x[8];\n"
        "int y[8];\n"
        "int total;\n"
        "main {\n"
        "    total = $+(I; x[i]);\n"
        "    par (I) y[i] = x[i] * total;\n"
        "}\n"
    )

    def test_divergent_scalars_stay_per_lane(self):
        rng = np.random.default_rng(3)
        inputs = [
            {"x": rng.integers(0, 50, size=8).astype(np.int64)} for _ in range(5)
        ]
        solo = [
            UCProgram(self.SRC, compile_store=None).run(_copy(inp))
            for inp in inputs
        ]
        batch = UCProgram(self.SRC, compile_store=None).run_batch(
            [_copy(inp) for inp in inputs]
        )
        _assert_lanes_match(solo, batch, ["x", "y", "total"])
        totals = {int(r["total"]) for r in batch}
        assert len(totals) > 1, "lanes should really have diverged"


class TestFallbacks:
    def test_empty_inputs(self):
        prog = UCProgram(APSP, compile_store=None)
        assert prog.run_batch([]) == []

    def test_none_inputs_use_defaults(self):
        prog = UCProgram(APSP, compile_store=None)
        solo = [
            UCProgram(APSP, compile_store=None).run(None) for _ in range(2)
        ]
        batch = prog.run_batch([None, None])
        _assert_lanes_match(solo, batch, ["dist"])

    def test_single_input_matches_solo(self):
        inp = {"dist": _chain(12, 2)}
        solo = UCProgram(APSP, compile_store=None).run(_copy(inp))
        [batch] = UCProgram(APSP, compile_store=None).run_batch([_copy(inp)])
        assert np.array_equal(solo["dist"], batch["dist"])
        assert solo.fingerprint == batch.fingerprint

    def test_single_input_skips_lane_machinery(self, monkeypatch):
        entered = []
        orig = batch_mod._BatchRun.execute

        def spy(self):
            entered.append(1)
            return orig(self)

        monkeypatch.setattr(batch_mod._BatchRun, "execute", spy)
        inp = {"dist": _chain(12, 3)}
        solo = UCProgram(APSP, compile_store=None).run(_copy(inp))
        [batch] = UCProgram(APSP, compile_store=None).run_batch([_copy(inp)])
        assert np.array_equal(solo["dist"], batch["dist"])
        assert solo.fingerprint == batch.fingerprint
        assert not entered, "a batch of one must dispatch straight to run()"

    def test_sharded_program_takes_the_sequential_loop(self, monkeypatch):
        entered = []
        orig = batch_mod._BatchRun.execute

        def spy(self):
            entered.append(1)
            return orig(self)

        monkeypatch.setattr(batch_mod._BatchRun, "execute", spy)
        prog = UCProgram(APSP, compile_store=None, shards=2)
        assert not batch_mod.batchable(prog)
        inputs = [{"dist": _chain(12, w)} for w in (1, 2)]
        batch = prog.run_batch([_copy(inp) for inp in inputs])
        solo = [
            UCProgram(APSP, compile_store=None, shards=2).run(_copy(inp))
            for inp in inputs
        ]
        _assert_lanes_match(solo, batch, ["dist"])
        assert not entered, "sharded programs must not enter the lane engine"
        # REPRO_SHARDS overrides shards=2 (the documented precedence)
        assert all(r.shards.get("n_shards") == prog.effective_shards() for r in batch)

    def test_lane_error_matches_solo_error(self):
        src = (
            "int d;\n"
            "int out;\n"
            "main { out = 100 / d; }\n"
        )
        inputs = [{"d": 5}, {"d": 0}, {"d": 2}]
        with pytest.raises(UCRuntimeError) as solo_err:
            UCProgram(src, compile_store=None).run(_copy(inputs[1]))
        with pytest.raises(UCRuntimeError) as batch_err:
            UCProgram(src, compile_store=None).run_batch(
                [_copy(inp) for inp in inputs]
            )
        assert str(solo_err.value) == str(batch_err.value)

    def test_faulted_program_still_matches(self):
        """Fault injection forces the sequential path; results match."""
        assert not batch_mod.batchable(
            UCProgram(APSP, compile_store=None, faults="drop@router_send#2")
        )
        inputs = [{"dist": _chain(12, w)} for w in (1, 4)]
        solo = [
            UCProgram(APSP, compile_store=None, faults="drop@router_send#2").run(
                _copy(inp)
            )
            for inp in inputs
        ]
        batch = UCProgram(
            APSP, compile_store=None, faults="drop@router_send#2"
        ).run_batch([_copy(inp) for inp in inputs])
        _assert_lanes_match(solo, batch, ["dist"])


class TestBlockedReduceNarrowing:
    """The int32 window of the blocked reduction must be bit-exact."""

    def test_bounds_straddling_int32_stay_int64(self):
        n = 48  # big enough that the blocked-reduce slab path engages
        src = (
            f"int N = {n};\n"
            "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
            f"int dist[{n}][{n}];\n"
            "main {\n"
            "    *solve (I, J) dist[i][j] = $<(K; dist[i][k] + dist[k][j]);\n"
            "}\n"
        )
        # 2^31 is exactly one past INT32_MAX after one addition: the
        # narrowing window must refuse and the int64 path must agree
        # with solo to the bit
        big = 2**30
        inputs = []
        for w in (1, 3):
            d = np.full((n, n), big, dtype=np.int64)
            np.fill_diagonal(d, 0)
            for a in range(n - 1):
                d[a, a + 1] = w
                d[a + 1, a] = w
            inputs.append({"dist": d})
        solo = [
            UCProgram(src, compile_store=None).run(_copy(inp)) for inp in inputs
        ]
        batch = UCProgram(src, compile_store=None).run_batch(
            [_copy(inp) for inp in inputs]
        )
        _assert_lanes_match(solo, batch, ["dist"])

    def test_int32_window_rejects_overflowing_ops(self):
        w = fuse_mod._int32_window
        m = fuse_mod._INT32_MAX
        assert w("+", "min", (0, 100), (0, 100), 16)
        assert not w("+", "min", (0, m), (0, 1), 16)
        assert not w("+", "min", (0, m + 1), (0, 0), 16)  # operand too wide
        assert w("*", "max", (0, 46000), (0, 46000), 4)
        assert not w("*", "max", (0, 47000), (0, 47000), 4)
        assert w("+", "add", (0, 100), (0, 100), 16)
        assert not w("+", "add", (0, m // 4), (0, 0), 16)  # partial sums
        assert not w("+", "mul", (1, 2), (1, 2), 16)  # products explode
        assert not w("<<", "min", (0, 1), (0, 1), 4)  # shifts never narrow


# ---------------------------------------------------------------------------
# lane-vs-solo differentials: one program per fused step kind
# ---------------------------------------------------------------------------


def _drain_1d(n=8):
    """Inputs for the 1-D programs: values, per-element sweep counts and
    per-lane scalars that differ between lanes."""

    def make(rng, k):
        return {
            "a": rng.integers(-3, 4, size=n).astype(np.int64),
            "c": rng.integers(0, 4, size=n).astype(np.int64),
            "s": k + 1,
        }

    return make


def _prog_1d(body, decls="", n=8):
    return (
        f"int N = {n};\n"
        "index_set I:i = {0..N-1}, J:j = I;\n"
        f"int a[{n}], b[{n}], c[{n}];\n"
        f"int s, t, m;\n{decls}"
        "main {\n"
        f"    *par (I) st (c[i] > 0) {{ {body} c[i] = c[i] - 1; }}\n"
        "}\n"
    )


def _apsp_lanes(n):
    def make(rng, k):
        return {"dist": _chain(n, 1 + k)}

    src = (
        f"int N = {n};\n"
        "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
        f"int dist[{n}][{n}];\n"
        "main {\n"
        "    *solve (I, J) dist[i][j] = $<(K; dist[i][k] + dist[k][j]);\n"
        "}\n"
    )
    return src, make


def _float_sum_lanes(n):
    def make(rng, k):
        return {
            "f": rng.standard_normal((n, n)),
            "c": np.full((n, n), k + 1, dtype=np.int64),
        }

    src = (
        f"int N = {n};\n"
        "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
        f"float f[{n}][{n}], x[{n}][{n}];\n"
        f"int c[{n}][{n}];\n"
        "main {\n"
        "    *par (I, J) st (c[i][j] > 0) {\n"
        "        x[i][j] = $+(K; f[i][k] * f[k][j]);\n"
        "        c[i][j] = c[i][j] - 1;\n"
        "    }\n"
        "}\n"
    )
    return src, make


def _gather_2d(n=8):
    def make(rng, k):
        return {
            "a": rng.integers(0, 50, size=(n, n)).astype(np.int64),
            "c": rng.integers(0, 3, size=(n, n)).astype(np.int64),
            "s": 2 * k - 1,
        }

    src = (
        f"int N = {n};\n"
        "index_set I:i = {0..N-1}, J:j = I;\n"
        f"int a[{n}][{n}], b[{n}][{n}], c[{n}][{n}];\n"
        "int s;\n"
        "main {\n"
        "    *par (I, J) st (c[i][j] > 0) {\n"
        "        b[i][j] = a[j][i] + a[i][0] * s;\n"
        "        c[i][j] = c[i][j] - 1;\n"
        "    }\n"
        "}\n"
    )
    return src, make


def _news_shift(n=8):
    src = (
        f"int N = {n};\n"
        "index_set I:i = {0..N-2};\n"
        f"int a[{n}], b[{n}], c[{n}];\n"
        "int s;\n"
        "main {\n"
        "    *par (I) st (c[i] > 0) { b[i] = a[i + 1] + s; c[i] = c[i] - 1; }\n"
        "}\n"
    )
    return src, _drain_1d(n)


#: name -> (source, make_input(rng, lane)); each exercises one step kind
LANE_PROGRAMS = {
    "unary": (
        _prog_1d("b[i] = -a[i] + !a[i] + ~a[i] + -s + !(s - 1) + ~s;"),
        _drain_1d(),
    ),
    "ternary": (
        _prog_1d(
            "b[i] = ((a[i] > 0) ? a[i] * s : s - a[i]) + ((a[i] < 0) ? s : 7);"
        ),
        _drain_1d(),
    ),
    "shortcircuit": (
        _prog_1d(
            "b[i] = (1 && (s - 2)) + (0 || a[i]) + ((a[i] > 0) && (a[i] < 2))"
            " + ((a[i] > 1) || (s - 2));"
        ),
        _drain_1d(),
    ),
    "masked_scalar_assign": (
        _prog_1d("m = s + 0 * a[i]; b[i] = a[i] + m;"),
        _drain_1d(),
    ),
    "lane_scalars": (
        _prog_1d("b[i] = i * s + a[i] - t; t = s * 3 - t; m = 100 / s;"),
        _drain_1d(),
    ),
    "reduce_others": (
        _prog_1d("b[i] = $+(J st (a[j] > i - 4) a[j] * s others -1);"),
        _drain_1d(),
    ),
    "int_min_small": _apsp_lanes(12),
    "int_min_blocked": _apsp_lanes(64),
    "float_sum_small": _float_sum_lanes(8),
    "float_sum_blocked": _float_sum_lanes(64),
    "news_shift_gather": _news_shift(),
    "recipe_gather": _gather_2d(),
}


def _lane_inputs(make, seed=5, lanes=3):
    rng = np.random.default_rng(seed)
    return [make(rng, k) for k in range(lanes)]


@pytest.mark.usefixtures("lane_engine")
class TestSharedExecutor:
    """Lane sweeps run the same fused steps as solo sweeps."""

    @pytest.mark.parametrize("name", sorted(LANE_PROGRAMS))
    def test_lanes_match_solo(self, name):
        src, make = LANE_PROGRAMS[name]
        inputs = _lane_inputs(make)
        solo = [UCProgram(src, compile_store=None).run(_copy(i)) for i in inputs]
        batch = UCProgram(src, compile_store=None).run_batch(
            [_copy(i) for i in inputs]
        )
        _assert_lanes_match(solo, batch, list(solo[0].keys()))
        assert batch[0].compile["batched_lanes"] > 0, "lanes never stacked"

    def test_every_step_kind_runs_lane_stacked(self, monkeypatch):
        seen = set()
        kinds = [
            fuse_mod._ReadScalar, fuse_mod._Unary, fuse_mod._Binary,
            fuse_mod._Bool, fuse_mod._Mask, fuse_mod._TruthyInt,
            fuse_mod._Combine, fuse_mod._Where, fuse_mod._Gather,
            fuse_mod._Scatter, fuse_mod._AssignScalar, fuse_mod._Reduce,
        ]

        def spy(cls):
            orig = cls.run

            def run(self, fr, regs):
                if fr.lead:
                    tag = cls.__name__
                    if cls is fuse_mod._Gather:
                        m = self.map
                        tag += ".shift" if m.shift is not None else (
                            ".recipe" if m.recipe is not None else ".index"
                        )
                    seen.add(tag)
                return orig(self, fr, regs)

            monkeypatch.setattr(cls, "run", run)

        for cls in kinds:
            spy(cls)
        for name in sorted(LANE_PROGRAMS):
            if name.endswith("_blocked"):
                continue  # same step kinds as the small variants
            src, make = LANE_PROGRAMS[name]
            UCProgram(src, compile_store=None).run_batch(_lane_inputs(make))
        expected = {c.__name__ for c in kinds if c is not fuse_mod._Gather}
        expected |= {"_Gather.shift", "_Gather.recipe", "_Gather.index"}
        assert expected <= seen, f"never ran lane-stacked: {expected - seen}"

    def test_lane_uc101_raises_solo_error(self):
        src = _prog_1d("m = a[i];")
        inputs = [
            {"a": np.full(8, 4, dtype=np.int64), "c": np.ones(8, dtype=np.int64)},
            {"a": np.arange(8, dtype=np.int64), "c": np.ones(8, dtype=np.int64)},
        ]
        with pytest.raises(UCRuntimeError) as solo_err:
            UCProgram(src, compile_store=None).run(_copy(inputs[1]))
        with pytest.raises(UCRuntimeError) as batch_err:
            UCProgram(src, compile_store=None).run_batch(
                [_copy(inp) for inp in inputs]
            )
        assert "UC101" in str(solo_err.value)
        assert str(solo_err.value) == str(batch_err.value)

    def test_lane_bounds_error_raises_solo_error(self):
        src = _prog_1d("b[i] = a[i + 1];")
        ok = np.ones(8, dtype=np.int64)
        ok[7] = 0  # the last element never reads past the end
        inputs = [
            {"a": np.arange(8, dtype=np.int64), "c": ok},
            {"a": np.arange(8, dtype=np.int64), "c": np.ones(8, dtype=np.int64)},
        ]
        with pytest.raises(UCRuntimeError) as solo_err:
            UCProgram(src, compile_store=None).run(_copy(inputs[1]))
        with pytest.raises(UCRuntimeError) as batch_err:
            UCProgram(src, compile_store=None).run_batch(
                [_copy(inp) for inp in inputs]
            )
        assert "out of range" in str(solo_err.value)
        assert str(solo_err.value) == str(batch_err.value)


@pytest.mark.usefixtures("lane_engine")
class TestBatchedLanesReport:
    """``batched_lanes`` counts lanes that really ran lane-stacked."""

    SRC = (
        "int N = 8;\n"
        "index_set I:i = {0..N-1};\n"
        "int a[8];\n"
        "int f(int x) { return x - 1; }\n"
        "main { *par (I) st (a[i] > 0) a[i] = f(a[i]); }\n"
    )

    def _inputs(self):
        return [{"a": np.full(8, k + 1, dtype=np.int64)} for k in range(3)]

    def test_unfused_construct_reports_zero(self, monkeypatch):
        calls = []
        orig = batch_mod._BatchConstruct._sweep_compute

        def spy(self, *a, **kw):
            calls.append(1)
            return orig(self, *a, **kw)

        monkeypatch.setattr(batch_mod._BatchConstruct, "_sweep_compute", spy)
        batch = UCProgram(self.SRC, compile_store=None).run_batch(self._inputs())
        assert not calls
        assert all(r.compile["batched_lanes"] == 0.0 for r in batch)
        assert all(np.all(r["a"] == 0) for r in batch)

    def test_cli_prints_per_lane_mode(self, tmp_path, capsys):
        import json

        from repro.cli import main

        f = tmp_path / "call.uc"
        f.write_text(self.SRC)
        params = tmp_path / "params.json"
        params.write_text(json.dumps([{"a": [k + 1] * 8} for k in range(3)]))
        assert main(["run", str(f), "--batch", str(params)]) == 0
        out = capsys.readouterr().out
        assert "batched x" not in out
        assert "per-lane" in out
