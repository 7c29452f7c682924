"""Static solve-scheduling tests (paper §3.6 / reference [14])."""

import numpy as np
import pytest

from repro.compiler.solve_sched import _dependency_levels, _shift_levels, try_schedule
from repro.interp.env import Env
from repro.interp.eval_expr import ExecContext
from repro.interp.interpreter import Interpreter
from repro.interp.solve import _collect_assignments
from repro.interp.statements import enter_grid
from repro.interp.values import GridContext
from repro.interp.program import UCProgram
from repro.lang import ast as uc_ast
from repro.machine import Machine


def schedule_for(src, defines=None):
    prog = UCProgram(src, defines=defines)
    interp = Interpreter(prog.info, Machine(), prog.layouts)
    solve_stmt = next(
        s for s in uc_ast.walk(prog.info.program.main) if isinstance(s, uc_ast.UCStmt)
    )
    ctx = ExecContext(GridContext(), None, Env(interp.global_env))
    inner = enter_grid(interp, solve_stmt, ctx)
    return try_schedule(
        interp, solve_stmt, _collect_assignments(solve_stmt), inner
    )


WAVEFRONT = (
    "int N = 6;\nindex_set I:i = {0..N-1}, J:j = I;\nint a[6][6];\n"
    "main { solve (I, J) a[i][j] = (i == 0 || j == 0) ? 1 "
    ": a[i-1][j] + a[i-1][j-1] + a[i][j-1]; }"
)


class TestSchedule:
    def test_wavefront_levels_are_antidiagonals(self):
        sched = schedule_for(WAVEFRONT)
        assert sched is not None
        i, j = np.indices((6, 6))
        assert np.array_equal(sched.levels, i + j)
        assert sched.max_level == 10

    def test_1d_recurrence_levels(self):
        src = (
            "index_set I:i = {0..7};\nint f[8];\n"
            "main { solve (I) f[i] = (i == 0) ? 1 : f[i-1] * 2; }"
        )
        sched = schedule_for(src)
        assert sched is not None
        assert sched.levels.tolist() == list(range(8))

    def test_no_dependencies_single_level(self):
        src = (
            "index_set I:i = {0..7};\nint f[8];\n"
            "main { solve (I) f[i] = i * i; }"
        )
        sched = schedule_for(src)
        assert sched is not None
        assert sched.max_level == 0

    def test_data_dependent_reference_unschedulable(self):
        src = (
            "index_set I:i = {0..7};\nint f[8], p[8];\n"
            "main { solve (I) f[i] = (i == 0) ? 1 : f[p[i]]; }"
        )
        assert schedule_for(src) is None

    def test_forward_dependency_unschedulable(self):
        src = (
            "index_set I:i = {0..7};\nint f[8];\n"
            "main { solve (I) f[i] = (i == 7) ? 1 : f[i+1]; }"
        )
        assert schedule_for(src) is None

    def test_scalar_target_unschedulable(self):
        src = (
            "index_set I:i = {0..7};\nint s;\n"
            "main { solve (I) s = 3; }"
        )
        assert schedule_for(src) is None

    def test_reduction_over_target_unschedulable(self):
        src = (
            "index_set I:i = {0..7}, J:j = I;\nint f[8];\n"
            "main { solve (I) f[i] = $+(J st (j < i) f[j]); }"
        )
        assert schedule_for(src) is None


class TestLevelMachinery:
    def test_shift_levels_negative_offset(self):
        levels = np.arange(6).reshape(2, 3)
        out = _shift_levels(levels, (-1, 0))
        assert out.tolist() == [[-1, -1, -1], [0, 1, 2]]

    def test_shift_levels_positive_offset(self):
        levels = np.arange(6).reshape(2, 3)
        out = _shift_levels(levels, (0, 1))
        assert out.tolist() == [[1, 2, -1], [4, 5, -1]]

    def test_dependency_levels_simple_chain(self):
        levels = _dependency_levels((5,), [(-1,)])
        assert levels.tolist() == [0, 1, 2, 3, 4]

    def test_dependency_levels_empty_deps(self):
        levels = _dependency_levels((3, 3), [])
        assert levels.max() == 0

    def test_dependency_levels_two_offsets(self):
        levels = _dependency_levels((4, 4), [(-1, 0), (0, -1)])
        i, j = np.indices((4, 4))
        assert np.array_equal(levels, i + j)

    @pytest.mark.parametrize("d", [(-2, 0), (-7, 0), (0, 3), (0, 9), (-2, -3)])
    def test_shift_levels_offset_at_or_beyond_extent(self, d):
        levels = np.arange(6).reshape(2, 3)
        assert (_shift_levels(levels, d) == -1).all()


FAR_WAVEFRONT = (
    "index_set I:i = {0..N-1}, J:j = I;\nint a[N][N];\n"
    "main { solve (I, J) a[i][j] = (i == 0 || j == 0) ? 1 "
    ": a[i-10][j] + a[i-1][j-1] + a[i][j-1]; }"
)


class TestFarDependence:
    """An offset at or beyond the grid extent reaches no grid point."""

    def test_far_offset_schedules(self):
        sched = schedule_for(FAR_WAVEFRONT, {"N": 6})
        assert sched is not None
        _i, j = np.indices((6, 6))
        # the far reference adds no dependency; (-1,-1) and (0,-1) still do
        assert np.array_equal(sched.levels, j)

    @pytest.mark.parametrize("plans", [True, False])
    def test_far_reference_out_of_range_is_a_located_error(self, plans):
        from repro.lang.errors import UCRuntimeError

        with pytest.raises(UCRuntimeError) as exc:
            UCProgram(FAR_WAVEFRONT, defines={"N": 6}, plans=plans).run()
        assert "subscript 0 of 'a' out of range (value -9, extent 6)" in str(exc.value)
        assert (exc.value.line, exc.value.col) == (3, 56)

    @pytest.mark.parametrize("plans", [True, False])
    def test_guarded_far_reference_runs(self, plans):
        src = (
            "index_set I:i = {0..N-1}, J:j = I;\nint a[N][N];\n"
            "main { solve (I, J) a[i][j] = (i == 0 || j == 0) ? 1 "
            ": (i >= 10 ? a[i-10][j] : 0) + a[i-1][j-1] + a[i][j-1]; }"
        )
        got = UCProgram(src, defines={"N": 6}, plans=plans).run()["a"]
        want = np.ones((6, 6), dtype=np.int64)
        for i in range(1, 6):
            for j in range(1, 6):
                want[i, j] = want[i - 1, j - 1] + want[i, j - 1]
        assert np.array_equal(got, want)
