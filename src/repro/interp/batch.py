"""Batched lane execution: run S instances of one program in lockstep.

``UCProgram.run_batch`` executes many *instances* of the same UC program
(same source, same machine geometry, different scalar parameters or
initial fields) in a single pass.  Each instance — a **lane** — keeps
its own simulated :class:`~repro.machine.machine.Machine` and
:class:`~repro.interp.interpreter.Interpreter`, so per-lane results,
stdout and :class:`~repro.machine.cost.Clock` fingerprints are
**bit-identical** to ``S`` solo ``run()`` calls.  What is shared is the
host-side *work*: for iterated constructs (``*par``/``*solve``) whose
bodies the kernel-fusion pass fully compiled, the construct's own
register program (:mod:`repro.interp.fuse`) runs once over lane-stacked
``(S,) + shape`` arrays instead of ``S`` times over ``shape`` — the lane
axis is just one more leading axis, as the paper's processor
optimization treats the VP count as one more index-set extent — and the
static charge tables are replayed per lane (:meth:`Clock.replay`), which
is what keeps the clocks exact.

This module owns only what is lane-specific: the batchability screen,
lane stacking and chunking, per-lane charge replay, retirement and
compaction, and frontier demotion.  The lane axis is processed in
**chunks** sized to keep the stacked working set cache-resident
(:data:`_CHUNK_TARGET_ELEMS`); per-lane scalars that diverge between
lanes travel as :class:`~repro.interp.values.LaneScalars` vectors.

Correctness is layered as three fallbacks, outermost first:

1. **Whole-batch sequential** — any engine feature the lanes do not
   model (faults, checkpoints, sanitizer, tier logs, recovery, shards),
   fewer than two lanes, or *any* exception raised while batching (a
   lane's UC101 or bounds violation raises the solo error from the
   shared step) falls back to a fresh ``[prog.run(inp) for inp in
   inputs]`` loop.  The engines are deterministic, so the rerun
   reproduces the exact solo result or error.
2. **Per-lane construct** — a construct that fails the (side-effect
   free) screen — not fused, an unfused segment, a scatter that is not
   provably single-assignment — executes per lane through the ordinary
   ``exec_stmt`` path; the rest of ``main`` stays in lockstep.
3. **Lane demotion** — mid-construct, a lane whose frontier session
   elects a compressed sweep leaves the batch: its rows are written
   back and the lane continues in the solo sweep loop
   (:func:`~repro.interp.solve.solve_star_sweeps`,
   :func:`~repro.interp.statements.par_star_sweeps`).

Lanes whose fixed point converges (``*solve``) or whose predicates all
falsify (``*par``) retire from the batch, shrinking the stacked arrays.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Set

import numpy as np

from ..lang import ast
from ..machine import Machine
from ..machine.field import lane_stack
from . import frontier, fuse
from .env import Env
from .eval_expr import ExecContext
from .fuse import _Reduce, _Scatter
from .interpreter import Interpreter
from .plan_cache import PlanCache
from .solve import _modified_names, solve_star_sweeps
from .statements import (
    MAX_SWEEPS,
    ReturnSignal,
    _check_starred,
    bind_grid,
    enter_grid,
    exec_stmt,
    par_star_sweeps,
)
from .values import (
    ArrayVar,
    GridContext,
    LaneScalars,
    ScalarVar,
    coerce_scalar,
)

#: target stacked-register size per chunk (int64 elements).  ~4 MB keeps
#: the whole register file of a chunk inside L2/L3 so the per-step numpy
#: passes stay memory-bandwidth friendly; lanes beyond the chunk wait.
_CHUNK_TARGET_ELEMS = 1 << 19

#: refuse to batch when the stacked arrays would exceed this
_MEMORY_CAP_BYTES = 1 << 28


class _BatchAbort(Exception):
    """Abandon the batched attempt; the sequential rerun reproduces the
    exact solo behaviour (results or error) deterministically."""


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def batchable(prog) -> bool:
    """Can instances of ``prog`` share lockstep ``run_batch`` lanes?

    False for every engine feature the batched path does not model
    (faults, checkpoints, sanitizer, tier logs, a custom recovery
    policy, sharding).  The execution service's coalescer uses this
    screen to decide whether identical queued jobs ride one batch or run
    solo; ``run_batch`` itself applies the same screen (plus the
    lane-count minimum) to pick the sequential loop.
    """
    return not (
        prog.faults is not None
        or prog.checkpoints
        or prog.sanitize
        or prog.log_tiers
        or prog.recovery is not None
        or prog.info.program.main is None
        # sharded runs keep per-shard clocks and a pair-traffic ledger the
        # lane machines would not carry; the solo loop preserves them
        # (results and fingerprints would match either way)
        or prog.effective_shards() > 1
    )


def run_batch(prog, inputs, *, seed: int = 20250704) -> List[Any]:
    """Execute ``prog`` once per element of ``inputs``; see
    :meth:`UCProgram.run_batch`."""
    inputs = list(inputs)
    if not inputs:
        return []
    if len(inputs) == 1:
        # single-instance fast path: a batch of one IS a solo run, so
        # skip the batchability screen and every piece of lane machinery
        # (stacking, chunking, lockstep driver) and dispatch directly
        return [prog.run(inputs[0] if inputs[0] else None, seed=seed)]
    if not batchable(prog):
        return _sequential(prog, inputs, seed)
    try:
        return _BatchRun(prog, inputs, seed).execute()
    except Exception:
        # a genuine program error re-raises from the deterministic
        # sequential rerun with its exact solo message
        return _sequential(prog, inputs, seed)


def _sequential(prog, inputs, seed: int) -> List[Any]:
    return [prog.run(inp if inp else None, seed=seed) for inp in inputs]


# ---------------------------------------------------------------------------
# lockstep driver
# ---------------------------------------------------------------------------


class _BatchRun:
    def __init__(self, prog, inputs, seed: int) -> None:
        self.prog = prog
        self.inputs = inputs
        self.seed = seed
        self.S = len(inputs)
        self.interps: List[Interpreter] = []
        #: lanes that took part in at least one lane-stacked sweep
        self.stacked: Set[int] = set()

    def execute(self) -> List[Any]:
        from .program import RunResult

        prog = self.prog
        machines = [
            Machine(prog.machine_config, seed=self.seed) for _ in range(self.S)
        ]
        shared = prog._shared_plan_cache(machines[0], None)
        plan_cache = shared if shared is not None else PlanCache()
        for m in machines:
            self.interps.append(
                Interpreter(
                    prog.info,
                    m,
                    prog.layouts,
                    seed=self.seed,
                    solve_strategy=prog.solve_strategy,
                    processor_opt=prog.processor_opt,
                    cse=prog.cse,
                    plans=prog.plans,
                    comm_tiers=prog.comm_tiers,
                    frontier=prog.frontier,
                    fusion=prog.fusion,
                    log_tiers=prog.log_tiers,
                    sanitize=prog.sanitize,
                    checkpoints=False,
                    recovery_policy=prog.recovery,
                    solve_sweep_limit=prog.solve_sweep_limit,
                    plan_cache=plan_cache,
                )
            )
        ip0 = self.interps[0]
        # the env escape hatches apply inside the Interpreter ctor, so
        # gate on the *resolved* state, not the UCProgram flags
        if (
            ip0.sanitizer is not None
            or ip0.tier_log is not None
            or ip0.recovery is not None
        ):
            raise _BatchAbort()
        for ip, inp in zip(self.interps, self.inputs):
            if inp:
                ip.load_inputs(inp)
        for m in machines:
            m.clock.reset()
        pc_before = plan_cache.counters()
        t_exec = time.perf_counter()
        self._lockstep()
        execute_s = time.perf_counter() - t_exec
        pc_after = plan_cache.counters()
        results = []
        for ip in self.interps:
            r = RunResult(ip)
            r.compile = prog._compile_summary(
                pc_after, pc_before, execute_s / self.S
            )
            r.compile["batched_lanes"] = float(len(self.stacked))
            if shared is not None and prog.compile_store is not None:
                r.store = prog.compile_store.stats()
            results.append(r)
        prog.last_interpreter = self.interps[-1]
        return results

    def _lockstep(self) -> None:
        main = self.prog.info.program.main
        ctxs = [
            ExecContext(GridContext(), None, Env(ip.global_env))
            for ip in self.interps
        ]
        if isinstance(main, ast.Block):
            # mirror exec_stmt's Block case: one child env for the body
            ctxs = [c.with_env(c.env.child()) for c in ctxs]
            stmts = list(main.stmts)
        else:
            stmts = [main]
        done = [False] * self.S
        for stmt in stmts:
            live = [i for i in range(self.S) if not done[i]]
            if not live:
                return
            if (
                isinstance(stmt, ast.UCStmt)
                and stmt.star
                and stmt.kind in ("par", "solve")
                and len(live) > 1
            ):
                _BatchConstruct(self, stmt, live, ctxs).run()
            else:
                for i in live:
                    try:
                        exec_stmt(self.interps[i], stmt, ctxs[i])
                    except ReturnSignal:
                        done[i] = True


# ---------------------------------------------------------------------------
# the lane frame
# ---------------------------------------------------------------------------


class _LaneFrame(fuse.Frame):
    """A chunk of lanes seen by the fused register program: arrays are
    lane-stacked views, scalars are per-lane :class:`ScalarVar` lists,
    and every register carries the lane axis in front.

    Charges are not replayed here — each lane's clock replays the tables
    of the arms it actually ran after the sweep — and no CSE entries are
    dropped: lane sweeps run fused segments only, never inside an armed
    cache.
    """

    lead = 1

    def __init__(self, n: int, arrays, scalars) -> None:
        self.ip = None
        self.lead_shape = (n,)
        self.arrays = arrays  # name -> (n,) + arr.shape view
        self.scalars = scalars  # name -> [ScalarVar] * n
        self.active = np.ones(n, dtype=bool)  # lanes the current arm runs in

    def data(self, arr: ArrayVar) -> np.ndarray:
        return self.arrays[arr.name]

    def read(self, var: ScalarVar):
        vals = [v.value for v in self.scalars[var.name]]
        first = vals[0]
        if all(v == first for v in vals[1:]):
            return first
        return LaneScalars(vals)

    def assign(self, var: ScalarVar, value) -> None:
        for j, v in enumerate(self.scalars[var.name]):
            if not self.active[j]:
                continue
            x = value.values[j] if isinstance(value, LaneScalars) else value
            if x is not fuse._NO_WRITE:
                v.value = coerce_scalar(v.ctype, x)

    def lanes(self, fn, *vals):
        """``fn`` per active lane over LaneScalars entries / stacked rows;
        idle lanes hold 0 so lifted vectors stay numeric."""
        out = []
        for j, on in enumerate(self.active):
            if not on:
                out.append(0)
                continue
            out.append(
                fn(*(
                    v.values[j] if isinstance(v, LaneScalars)
                    else v[j] if isinstance(v, np.ndarray) else v
                    for v in vals
                ))
            )
        return LaneScalars(out)

    def invalidate(self, name: str) -> None:
        pass

    def charge(self, entries) -> None:
        pass


def _lane_ready(fused) -> bool:
    """Lane sweeps run fused segments only (an unfused segment runs on the
    walker, which has no lane axis), and only provably single-assignment scatters (so no
    cross-lane duplicate check runs)."""
    for segs in fused.arm_segments:
        for seg in segs:
            if seg[0] != "f":
                return False
    return all(s.map.unique for s in fused.steps() if isinstance(s, _Scatter))


def _max_elems(fused) -> int:
    """Largest per-lane register footprint (construct grid or any
    reduction's inner grid), in elements."""
    return max(
        [int(np.prod(fused.shape))]
        + [int(np.prod(s.inner_shape)) for s in fused.steps() if isinstance(s, _Reduce)]
    )


# ---------------------------------------------------------------------------
# one batched construct
# ---------------------------------------------------------------------------


class _BatchConstruct:
    """Lockstep execution of one ``*par``/``*solve`` across the live lanes."""

    def __init__(self, run, stmt: ast.UCStmt, live, ctxs) -> None:
        self.batch = run
        self.stmt = stmt
        self.live = list(live)  # global lane ids, row-aligned with stacks
        self.ctxs = ctxs
        self.interps = [run.interps[i] for i in live]

    def run(self) -> None:
        fused = self._screen()
        if fused is None:
            for ip, i in zip(self.interps, self.live):
                exec_stmt(ip, self.stmt, self.ctxs[i])
            return
        self._prepare(fused)
        if self.stmt.kind == "solve":
            self._drive_solve()
        else:
            self._drive_par()

    # -- screening (pure: any failure falls back to per-lane execution) --

    def _screen(self):
        stmt = self.stmt
        ip0 = self.interps[0]
        if not (ip0.fusion_enabled and ip0.plans_enabled):
            return None
        try:
            if stmt.kind == "par":
                _check_starred(stmt)  # *solve terminates by fixed point
            ctx0 = self.ctxs[self.live[0]]
            if ctx0.mask is not None:
                return None
            # bind_grid, not enter_grid: screening must not touch any
            # lane's clock
            probe = bind_grid(ip0, stmt, ctx0)
            fused = fuse.fused_for(ip0, stmt, probe)
            if fused is None or fused.others_segments is not None:
                return None
            if not _lane_ready(fused):
                return None
            arr_names = {
                name for kind, name, _e in fused.checks if kind == "array"
            }
            sc_names = {
                name for kind, name, _e in fused.checks if kind == "scalar"
            }
            for name in _modified_names(stmt):
                if name not in arr_names and name not in sc_names:
                    return None
            stacked = sum(
                e.data.nbytes
                for kind, _n, e in fused.checks
                if kind == "array"
            ) * len(self.live)
            max_elems = _max_elems(fused)
            chunk = max(
                1, min(len(self.live), _CHUNK_TARGET_ELEMS // max(1, max_elems))
            )
            if stacked + 4 * chunk * max_elems * 8 > _MEMORY_CAP_BYTES:
                return None
            self.chunk = chunk
            self.arr_names = arr_names
            self.sc_names = sc_names
            return fused
        except Exception:
            return None

    # -- committed prepare (failures abort to the sequential rerun) -------

    def _prepare(self, fused) -> None:
        stmt = self.stmt
        self.fused = fused
        self.inners: List[ExecContext] = []
        self.sessions: List[Optional[frontier.StarSession]] = []
        for ip, i in zip(self.interps, self.live):
            inner = enter_grid(ip, stmt, self.ctxs[i])
            if fuse.fused_for(ip, stmt, inner) is not fused:
                raise _BatchAbort()
            sess = frontier.star_session(ip, stmt, inner, stmt.kind)
            self.inners.append(inner)
            self.sessions.append(sess)
        on = [s is not None for s in self.sessions]
        if any(on) and not all(on):
            raise _BatchAbort()
        self.sessions_on = all(on)
        self.modified = _modified_names(stmt)
        self.mod_arrays = [n for n in self.modified if n in self.arr_names]
        self.mod_scalars = [n for n in self.modified if n in self.sc_names]
        if self.sessions_on:
            for sess in self.sessions:
                if any(n not in self.arr_names for n in sess.an.modified):
                    raise _BatchAbort()
        self.vp_ratio = self.interps[0].grid_vpset(
            self.inners[0].grid.shape
        ).vp_ratio
        # lane-stack every array the kernel touches; per-lane scalar vars
        self.array_vars: Dict[str, List[ArrayVar]] = {}
        self.stacks: Dict[str, np.ndarray] = {}
        self.scalar_vars: Dict[str, List[ScalarVar]] = {}
        for kind, name, _e in fused.checks:
            if kind not in ("array", "scalar"):
                continue
            want = ArrayVar if kind == "array" else ScalarVar
            vs = [inner.env.try_lookup(name) for inner in self.inners]
            if not all(isinstance(b, want) for b in vs):
                raise _BatchAbort()
            if kind == "array":
                self.array_vars[name] = vs
                self.stacks[name] = lane_stack([v.field for v in vs])
            else:
                self.scalar_vars[name] = vs

    def _writeback(self, row: int) -> None:
        """Flush one lane's stacked rows into its real fields."""
        for name, vs in self.array_vars.items():
            vs[row].field.data[...] = self.stacks[name][row]

    def _compact(self, keep: List[int]) -> None:
        """Drop retired/demoted rows from every row-aligned structure."""
        self.live = [self.live[r] for r in keep]
        self.interps = [self.interps[r] for r in keep]
        self.inners = [self.inners[r] for r in keep]
        self.sessions = [self.sessions[r] for r in keep]
        for name in self.array_vars:
            self.array_vars[name] = [self.array_vars[name][r] for r in keep]
            self.stacks[name] = self.stacks[name][keep]
        for name in self.scalar_vars:
            self.scalar_vars[name] = [self.scalar_vars[name][r] for r in keep]

    # -- one batched compute pass -----------------------------------------

    def _sweep_compute(self, collect_masks: bool):
        """Run the fused kernel's predicates and arms over all rows,
        chunked along the lane axis.  Returns ``arm_any[k, row]`` (and the
        stacked per-arm masks when ``collect_masks``, for ``*par``
        bookkeeping)."""
        fused = self.fused
        n_rows = len(self.live)
        self.batch.stacked.update(self.live)
        K = len(fused.arm_mask_regs)
        spatial = tuple(range(1, 1 + len(fused.shape)))
        arm_any = np.zeros((K, n_rows), dtype=bool)
        masks_full = (
            [np.zeros((n_rows,) + fused.shape, dtype=bool) for _ in range(K)]
            if collect_masks
            else None
        )
        for lo in range(0, n_rows, self.chunk):
            hi = min(n_rows, lo + self.chunk)
            fr = _LaneFrame(
                hi - lo,
                {name: stk[lo:hi] for name, stk in self.stacks.items()},
                {name: vs[lo:hi] for name, vs in self.scalar_vars.items()},
            )
            sweep = fused.start(fr, np.ones((hi - lo,) + fused.shape, dtype=bool))
            for k, mask in enumerate(sweep.masks):
                arm_any[k, lo:hi] = mask.any(axis=spatial) if spatial else mask
                if collect_masks:
                    masks_full[k][lo:hi] = mask
            for k, segs in enumerate(fused.arm_segments):
                fr.active = arm_any[k, lo:hi]
                if fr.active.any():
                    fused.run_arm(
                        sweep, segs, fused.arm_mask_regs[k], sweep.masks[k], None
                    )
        return arm_any, masks_full

    def _charge_preds(self, clock) -> None:
        for prog in self.fused.pred_progs:
            if prog is not None:
                clock.replay(prog[0])
                clock.count_fusion("charge_table_hits")

    def _charge_arms(self, clock, arm_any, row: int) -> None:
        for k, segs in enumerate(self.fused.arm_segments):
            if not arm_any[k, row]:
                continue
            for seg in segs:
                clock.replay(seg[1])
                clock.count_fusion("charge_table_hits")
        clock.count_fusion("fused_sweeps")

    def _marks(self):
        """Per-row (clock time, alloc count) opening a full sweep, for the
        frontier sessions' reference cost."""
        if not self.sessions_on:
            return None
        return [
            (ip.machine.clock.time_us, ip.machine.clock.count("alloc"))
            for ip in self.interps
        ]

    def _changed(self, before) -> Dict[str, np.ndarray]:
        return {n: before[n] != self.stacks[n] for n in self.mod_arrays}

    def _record_full(self, before, changed, marks, rows) -> None:
        """Close the full sweep on each listed row's frontier session, from
        before/after deltas computed once for all lanes."""
        dirs = {}
        for n in self.mod_arrays:
            axes = tuple(range(1, before[n].ndim))
            dirs[n] = (
                (self.stacks[n] > before[n]).any(axis=axes),
                (self.stacks[n] < before[n]).any(axis=axes),
            )
        for row in rows:
            names = self.sessions[row].an.modified
            self.sessions[row].record_full(
                *marks[row],
                {n: changed[n][row] for n in names},
                {n: (bool(dirs[n][0][row]), bool(dirs[n][1][row])) for n in names},
            )

    def _sess_key(self, row: int):
        """Hashable digest of everything a lane's ``plan_compressed``
        decision depends on.  ``plan_compressed`` is pure (no clock
        charges, no counters) and reads only the session's prev/dirs/
        reference/ref_pes state plus shared per-construct analysis, so
        lanes with equal digests get equal None/plan decisions — the
        drivers memoise the (common) all-None outcome across lanes."""
        sess = self.sessions[row]
        if sess.prev is None or sess.reference is None:
            return None
        key = [
            sess.reference,
            sess.ref_pes,
            self.interps[row].machine.n_live_pes,
            tuple(sorted((k, v.tobytes()) for k, v in sess.prev.items())),
            tuple(sorted(sess.dirs.items())),
        ]
        if self.stmt.kind == "par":
            if sess.par_masks is None:
                return None
            key.append(tuple(m.tobytes() for m in sess.par_masks))
        return tuple(key)

    def _demote(self, finish, sweeps: int) -> None:
        """Lanes whose frontier session elects a compressed sweep leave
        the batch and continue in the solo sweep loop ``finish``."""
        if not self.sessions_on:
            return
        keep: List[int] = []
        none_keys = set()
        for row in range(len(self.live)):
            key = self._sess_key(row)
            if key is not None and key in none_keys:
                keep.append(row)
                continue
            states = self.sessions[row].plan_compressed()
            if states is None:
                if key is not None:
                    none_keys.add(key)
                keep.append(row)
                continue
            self._writeback(row)
            finish(
                self.interps[row], self.stmt, self.inners[row],
                self.sessions[row], self.vp_ratio, sweeps=sweeps, states=states,
            )
        if len(keep) != len(self.live):
            self._compact(keep)

    def _retire(self, going: np.ndarray) -> None:
        """Write back and drop the rows flagged in ``going``."""
        keep = []
        for row in range(len(self.live)):
            if going[row]:
                self._writeback(row)
            else:
                keep.append(row)
        if len(keep) != len(self.live):
            self._compact(keep)

    # -- *solve ------------------------------------------------------------

    def _drive_solve(self) -> None:
        limit = self.interps[0].solve_sweep_limit
        n_mod = len(self.modified) or 1
        sweeps = 0
        while True:
            self._demote(solve_star_sweeps, sweeps)
            if not self.live:
                return
            before = {
                name: self.stacks[name].copy() for name in self.mod_arrays
            }
            before_sc = {
                name: [v.value for v in self.scalar_vars[name]]
                for name in self.mod_scalars
            }
            marks = self._marks()
            arm_any, _ = self._sweep_compute(collect_masks=False)
            for row, ip in enumerate(self.interps):
                clock = ip.machine.clock
                clock.charge("alu", count=n_mod, vp_ratio=self.vp_ratio)
                self._charge_preds(clock)
                self._charge_arms(clock, arm_any, row)
                clock.charge("global_or", vp_ratio=self.vp_ratio)
                clock.charge("host_cm_latency")
            changed = self._changed(before)
            lane_changed = np.zeros(len(self.live), dtype=bool)
            for ch in changed.values():
                lane_changed |= ch.any(axis=tuple(range(1, ch.ndim)))
            for name, vals in before_sc.items():
                now = [v.value for v in self.scalar_vars[name]]
                for row in range(len(self.live)):
                    if vals[row] != now[row]:
                        lane_changed[row] = True
            if self.sessions_on:
                self._record_full(before, changed, marks, range(len(self.live)))
            self._retire(~lane_changed)  # fixed point: lane retires
            sweeps += 1
            if self.live and sweeps > limit:
                raise _BatchAbort()  # sequential rerun raises the solo error

    # -- *par --------------------------------------------------------------

    def _drive_par(self) -> None:
        sweeps = 0
        while True:
            self._demote(par_star_sweeps, sweeps)
            if not self.live:
                return
            before = None
            if self.sessions_on:
                before = {
                    name: self.stacks[name].copy() for name in self.mod_arrays
                }
            marks = self._marks()
            arm_any, masks_full = self._sweep_compute(collect_masks=True)
            ran = arm_any.any(axis=0)
            for row, ip in enumerate(self.interps):
                clock = ip.machine.clock
                self._charge_preds(clock)
                clock.charge("global_or", vp_ratio=self.vp_ratio)
                clock.charge("host_cm_latency")
                if ran[row]:
                    self._charge_arms(clock, arm_any, row)
            if self.sessions_on:
                # solo returns before full_end on a sweep that ran nothing
                rows = [row for row in range(len(self.live)) if ran[row]]
                self._record_full(before, self._changed(before), marks, rows)
                for row in rows:
                    self.sessions[row].par_masks = [m[row].copy() for m in masks_full]
            self._retire(~ran)  # predicates all false: lane done
            sweeps += 1
            if self.live and sweeps > MAX_SWEEPS:
                raise _BatchAbort()  # sequential rerun raises the solo error
