"""Kernel fusion: lower a construct body to whole-array NumPy programs.

The walker (:mod:`repro.interp.eval_expr`) with its memoised reference
maps (:mod:`repro.interp.plan`) already skips the expensive per-reference
analyses (classification, tier decisions, index lowering), but the
steady-state sweep loop still dispatches once per expression node per
sweep.  This pass goes one step further, in the spirit of the paper's
"UC compiles to tight data-parallel code" claim: for an iterated
construct it compiles the whole charge-and-compute statement sequence
once, into

* a **register program**: a flat list of steps over preallocated value
  slots (``regs``).  Gathers and scatters hold the same kind of
  :class:`~repro.interp.plan.RefMap` a walker memo holds (one lowering
  of the subscripts, built by ``ref_map``), arithmetic becomes direct
  ``numpy`` calls, guards become boolean mask registers; and
* a **static charge table**: the exact ``Clock.charge`` /
  ``charge_scan`` / ``count_tier`` sequence each statement would issue,
  recorded once at compile time by running the real cost helpers against
  a recorder, and replayed per sweep with three tuple reads per entry.

Because every charge a fused statement can issue is provably
data-independent (that is what the fusability checks below establish),
replaying the table is *bit-identical* to the unfused engine — the
differential suites hold ``fusion=True`` to the tree-walker's exact
fingerprint.  Statements the pass cannot prove static (host calls,
dynamic subscripts, data-dependent short-circuits, send-reduce
candidates...) become **unfused segments**: the fused sweep runs just
that statement on the walker (``exec_stmt``), keeping the rest of the
body on the fast path.

The register program is the only step executor, for solo sweeps and
for ``run_batch`` lanes alike.  Steps reach data through a per-sweep
:class:`Frame`: the solo frame reads the bound variables directly; the
batch engine's lane frame (:mod:`repro.interp.batch`) serves chunks of
lane-stacked arrays and per-lane scalars, and puts one leading lane axis
in front of every register.

Correctness subtleties worth naming:

* **CSE simulation.**  Inside a construct the engine arms a
  common-subexpression cache whose hits *remove* charges.  Fusion must
  predict every hit and miss exactly, in both directions, so the
  compiler simulates the cache statically: cache keys are the same
  ``(expr text, grid shape)`` pairs, and each store is tagged with a
  *mask token* describing the chain of predicate refinements under which
  it was computed.  A lookup whose token extends the store's token is a
  guaranteed runtime hit (its mask is pointwise contained in the stored
  mask); any other present-key lookup is data-dependent and demotes the
  statement to an unfused segment.  Writes drop entries by read-set,
  exactly like ``Interpreter.cse_invalidate``; an invalidation issued
  from a *conditional* arm tombstones the key, and a later lookup from a
  different arm bails the whole construct (at run time the killer arm
  may be skipped, leaving the entry live).  Texts reachable from both
  fused and unfused parts of one body bail the construct too — the two
  cache worlds must never overlap.
* **Error paths.**  Charges replay before the statement's value steps
  run, so a statement that *raises* (bounds, UC101, division by zero)
  leaves slightly different partial charges than the unfused engine.
  Those errors abort the run — the fingerprint of a completed run is
  unaffected — and the differential tests only assert messages there.
* **Escape hatch.**  ``REPRO_NO_FUSION=1`` or ``UCProgram(fusion=False)``
  runs every construct on the walker; the memo-free walker
  (``plans=False``) remains the ground truth either way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..compiler.cstar_gen import expr_to_text
from ..lang import ast
from ..lang.errors import UCMultipleAssignmentError, UCRuntimeError
from ..lang.scope import IndexSetValue
from ..machine.scan import INF
from ..mapping.locality import classify_reference, classify_write
from . import commtiers
from . import eval_expr as E
from .plan import _condensed, _lead_axes, ref_map
from .sendreduce import send_reduce_split
from .statements import exec_stmt
from .values import ArrayVar, ElementBinding, LaneScalars, ScalarVar, coerce_scalar

__all__ = ["fused_for", "Frame", "FusedConstruct"]

#: cached sentinel for constructs the pass declined to fuse
_UNFUSABLE = object()

#: marker for register values not known at compile time
_DYN = object()


class _Bail(Exception):
    """The whole construct cannot be fused."""


class _Demote(Exception):
    """The current statement cannot be fused (falls back per-statement)."""


# ---------------------------------------------------------------------------
# charge tables
# ---------------------------------------------------------------------------


class _Recorder:
    """Clock stand-in that records the charge recipe instead of charging.

    The compiler runs the *real* cost helpers (``charge_tier_at`` and
    friends) against this recorder, so the table is the genuine charge
    sequence by construction, not a reimplementation of it.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: List[Tuple] = []

    def charge(self, kind: str, *, count: int = 1, vp_ratio: int = 1) -> float:
        self.entries.append(("c", kind, count, vp_ratio))
        return 0.0

    def charge_scan(
        self, n_vps: int, *, vp_ratio: int = 1, steps_per_level: int = 1
    ) -> float:
        self.entries.append(("s", n_vps, vp_ratio, steps_per_level))
        return 0.0

    def count_tier(self, tier: str) -> None:
        self.entries.append(("t", tier))

    def note_shard_ref(self, tier, rc, layout, grid_shape, write) -> None:
        # recorded unconditionally so compiled charge tables are identical
        # for every shard count (the compile store shares them); replay
        # ignores the entry unless a shard sink is installed
        self.entries.append(("x", tier, rc, layout, grid_shape, write))

    def note_shard_reduce(self, op, order_safe, n_vps, vp_ratio, grid_shape) -> None:
        # same story for reduction observations (the "r" tag): the UC5xx
        # verdict rides the table so sharded replay can gate pre-combining
        self.entries.append(("r", op, order_safe, n_vps, vp_ratio, grid_shape))


# ---------------------------------------------------------------------------
# sweep frames
# ---------------------------------------------------------------------------


#: a scalar write a step decided not to perform (empty lane mask)
_NO_WRITE = object()


class Frame:
    """Where one sweep's register program finds its data.

    A step reads arrays, reads and writes front-end scalars, charges its
    static table and drops CSE entries only through its frame, so one
    step implementation serves both callers:

    * this class, the **solo** frame: arrays are the bound
      :class:`ArrayVar` data, scalars are plain values, registers carry
      no leading axis (``lead == 0``);
    * :class:`repro.interp.batch._LaneFrame`: arrays are a chunk of
      lane-stacked ``(n,) + shape`` views, scalars that differ between
      lanes travel as :class:`LaneScalars`, and every register carries
      the lane axis in front (``lead == 1``), so reduce, squeeze, expand
      and NEWS-shift axes move up by one.
    """

    lead = 0
    lead_shape: Tuple[int, ...] = ()

    def __init__(self, ip) -> None:
        self.ip = ip

    def data(self, arr: ArrayVar) -> np.ndarray:
        return arr.data

    def read(self, var: ScalarVar):
        return var.value

    def assign(self, var: ScalarVar, value) -> None:
        if value is not _NO_WRITE:
            var.value = coerce_scalar(var.ctype, value)
            self.ip.cse_invalidate(var.name)

    def lanes(self, fn, *vals):
        """``fn(*vals)`` once per lane; a solo sweep has exactly one."""
        return fn(*vals)

    def invalidate(self, name: str) -> None:
        self.ip.cse_invalidate(name)

    def charge(self, entries) -> None:
        clock = self.ip.machine.clock
        clock.replay(entries)
        clock.count_fusion("charge_table_hits")


def _lift(v, ndim: int):
    """A per-lane scalar as an array broadcasting lane-wise over ``ndim``
    dimensions; anything else unchanged."""
    return v.lifted(ndim) if isinstance(v, LaneScalars) else v


def _bool_bcast(v, shape):
    """``broadcast(truthy(v))`` over ``shape``."""
    return np.broadcast_to(np.asarray(E._truthy(_lift(v, len(shape)))), shape)


def _scalar(fr: Frame, fn, *vals):
    """``fn(*vals)`` on scalar operands, lane by lane when any differs
    between lanes."""
    for v in vals:
        if isinstance(v, LaneScalars):
            return fr.lanes(fn, *vals)
    return fn(*vals)


def _truthy_int(v):
    t = E._truthy(v)
    return t.astype(np.int64) if isinstance(t, np.ndarray) else int(t)


# ---------------------------------------------------------------------------
# register-program steps
# ---------------------------------------------------------------------------
# Each step is ``run(fr, regs)``: read source registers, write ``dst``.
# Mask registers hold boolean arrays; everything else holds whatever the
# unfused evaluator would have produced (scalars or grid-shaped arrays),
# with the frame's lead axes in front.


class _ReadScalar:
    __slots__ = ("dst", "var")

    def __init__(self, dst: int, var: ScalarVar) -> None:
        self.dst = dst
        self.var = var

    def run(self, fr: Frame, regs) -> None:
        regs[self.dst] = fr.read(self.var)


class _Unary:
    __slots__ = ("dst", "src", "node")

    def __init__(self, dst: int, src: int, node: ast.Unary) -> None:
        self.dst = dst
        self.src = src
        self.node = node

    def apply(self, v):
        return E.apply_unary(self.node.op, v, self.node)

    def run(self, fr: Frame, regs) -> None:
        regs[self.dst] = _scalar(fr, self.apply, regs[self.src])


class _Binary:
    __slots__ = ("dst", "a", "b", "node", "rank")

    def __init__(self, dst: int, a: int, b: int, node: ast.Binary, rank: int) -> None:
        self.dst = dst
        self.a = a
        self.b = b
        self.node = node
        self.rank = rank  # grid rank of the context the operands live in

    def apply(self, a, b):
        return E.apply_binop(self.node.op, a, b, self.node)

    def run(self, fr: Frame, regs) -> None:
        a = regs[self.a]
        b = regs[self.b]
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            nd = fr.lead + self.rank
            regs[self.dst] = self.apply(_lift(a, nd), _lift(b, nd))
        else:
            regs[self.dst] = _scalar(fr, self.apply, a, b)


class _Bool:
    """``dst = broadcast(truthy(src))`` — a predicate's boolean view."""

    __slots__ = ("dst", "src", "shape")

    def __init__(self, dst: int, src: int, shape: Tuple[int, ...]) -> None:
        self.dst = dst
        self.src = src
        self.shape = shape

    def run(self, fr: Frame, regs) -> None:
        regs[self.dst] = _bool_bcast(regs[self.src], fr.lead_shape + self.shape)


class _Mask:
    """``dst = base & cond`` (or ``& ~cond``): one context refinement."""

    __slots__ = ("dst", "base", "cond", "invert")

    def __init__(self, dst: int, base: int, cond: int, invert: bool) -> None:
        self.dst = dst
        self.base = base
        self.cond = cond
        self.invert = invert

    def run(self, fr: Frame, regs) -> None:
        c = regs[self.cond]
        regs[self.dst] = regs[self.base] & (~c if self.invert else c)


class _TruthyInt:
    """Scalar-left short-circuit result: ``int(truthy(v))`` / int64 array."""

    __slots__ = ("dst", "src")

    def __init__(self, dst: int, src: int) -> None:
        self.dst = dst
        self.src = src

    def run(self, fr: Frame, regs) -> None:
        regs[self.dst] = _scalar(fr, _truthy_int, regs[self.src])


class _Combine:
    """Array short-circuit combine: ``(lbool op rbool).astype(int64)``."""

    __slots__ = ("dst", "lbool", "right", "is_and", "shape")

    def __init__(self, dst, lbool, right, is_and, shape) -> None:
        self.dst = dst
        self.lbool = lbool
        self.right = right
        self.is_and = is_and
        self.shape = shape

    def run(self, fr: Frame, regs) -> None:
        lbool = regs[self.lbool]
        rbool = _bool_bcast(regs[self.right], fr.lead_shape + self.shape)
        out = (lbool & rbool) if self.is_and else (lbool | rbool)
        regs[self.dst] = out.astype(np.int64)


class _Where:
    __slots__ = ("dst", "cbool", "then", "els", "rank")

    def __init__(self, dst, cbool, then, els, rank) -> None:
        self.dst = dst
        self.cbool = cbool
        self.then = then
        self.els = els
        self.rank = rank

    def run(self, fr: Frame, regs) -> None:
        nd = fr.lead + self.rank
        regs[self.dst] = np.where(
            regs[self.cbool], _lift(regs[self.then], nd), _lift(regs[self.els], nd)
        )


class _Gather:
    """One array read through its compiled :class:`~repro.interp.plan.RefMap`."""

    __slots__ = ("dst", "node", "arr", "mask", "map", "view_ok")

    def __init__(self, dst, node, arr, mask, map_, view_ok) -> None:
        self.dst = dst
        self.node = node
        self.arr = arr
        self.mask = mask
        self.map = map_
        self.view_ok = view_ok

    def run(self, fr: Frame, regs) -> None:
        self.map.check(self.node, regs[self.mask])
        regs[self.dst] = self.map.take(fr.data(self.arr), fr.lead, self.view_ok)


class _Scatter:
    """One masked array write through its compiled
    :class:`~repro.interp.plan.RefMap`."""

    __slots__ = ("node", "arr", "val", "mask", "map")

    def __init__(self, node, arr, val, mask, map_) -> None:
        self.node = node
        self.arr = arr
        self.val = val
        self.mask = mask
        self.map = map_

    def run(self, fr: Frame, regs) -> None:
        mask = regs[self.mask]
        self.map.check(self.node, mask)
        self.map.store(
            fr.data(self.arr),
            _lift(regs[self.val], mask.ndim),
            mask,
            self.node,
            getattr(fr.ip, "current_construct", None),
        )
        fr.invalidate(self.node.base)


class _AssignScalar:
    """Masked parallel write to a front-end scalar (all lanes must agree)."""

    __slots__ = ("var", "val", "mask", "node")

    def __init__(self, var, val, mask, node) -> None:
        self.var = var
        self.val = val
        self.mask = mask
        self.node = node

    def agreed(self, vals: np.ndarray, mask: np.ndarray):
        """The one value every enabled element assigns (UC101 otherwise)."""
        flat = vals[mask]
        if flat.size == 0:
            return _NO_WRITE
        if np.any(flat != flat[0]):
            other = flat[flat != flat[0]][0]
            raise UCMultipleAssignmentError(
                f"[UC101] par assigns multiple distinct values to scalar "
                f"{self.var.name!r} (values {flat[0].item()!r} and "
                f"{other.item()!r}); reduce the grid value first ($+, $min, "
                "...) or make the choice explicit with the $, operator "
                "(paper §3.4)",
                self.node.line,
                self.node.col,
            )
        return flat[0]

    def run(self, fr: Frame, regs) -> None:
        value = regs[self.val]
        if isinstance(value, np.ndarray):
            mask = regs[self.mask]
            value = fr.lanes(self.agreed, np.broadcast_to(value, mask.shape), mask)
        fr.assign(self.var, value)


# ---------------------------------------------------------------------------
# blocked reductions
# ---------------------------------------------------------------------------

#: elementwise binary ops apply_binop maps 1:1 onto a ufunc with no
#: dtype munging — eligible to fuse into a blocked reduce
_BLOCKED_BINOPS = frozenset({"+", "-", "*", "&", "|", "^", "<<", ">>"})

#: target elements for the blocked-reduce temporary (512 KB of int64):
#: big enough to amortise the python loop, small enough to stay in
#: cache instead of making the DRAM round trip the unblocked path pays
_BLOCK_TMP_ELEMS = 1 << 16

#: byte budget for the integer-path temporary slab (same 512 KB; int32
#: narrowing doubles the element count that fits)
_BLOCK_TMP_BYTES = 1 << 19

_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1

#: never scan more than this many real elements for narrowing bounds —
#: a fully materialised operand would cost more to scan than we save
_BOUNDS_SCAN_MAX = 1 << 17


def _int32_window(op: str, red_op: str, bounds_a, bounds_b, red_extent: int):
    """True when evaluating ``a op b`` then ``red_op``-reducing in int32
    is bit-identical to int64: interval arithmetic proves every operand,
    every elementwise result and every partial reduction fits in int32
    (so no wraparound can occur in either width)."""
    lo_a, hi_a = bounds_a
    lo_b, hi_b = bounds_b
    for x in (lo_a, hi_a, lo_b, hi_b):
        if not (_INT32_MIN <= x <= _INT32_MAX):
            return False
    if op == "+":
        lo, hi = lo_a + lo_b, hi_a + hi_b
    elif op == "-":
        lo, hi = lo_a - hi_b, hi_a - lo_b
    elif op == "*":
        prods = (lo_a * lo_b, lo_a * hi_b, hi_a * lo_b, hi_a * hi_b)
        lo, hi = min(prods), max(prods)
    elif op in ("&", "|", "^"):
        # int32-representable operands are closed under bitwise ops
        # (sign extension commutes with &, | and ^)
        lo, hi = _INT32_MIN, _INT32_MAX
    else:
        return False  # shifts: overflow analysis not worth the cases
    if not (_INT32_MIN <= lo and hi <= _INT32_MAX):
        return False
    if red_op in ("min", "max"):
        return True  # result stays within the element bounds
    if red_op == "add":
        # every partial sum is bounded by extent x the signed extremes
        return (
            _INT32_MIN <= red_extent * min(lo, 0)
            and red_extent * max(hi, 0) <= _INT32_MAX
        )
    return False  # "mul": products explode past any useful bound


def _block_operands(a, b, shape):
    """The two operands of a blocked reduce, broadcast to ``shape``, and
    their common dtype; None when numpy would not compute the binary in
    plain int64/float64."""
    ops = []
    kinds = []
    for v in (a, b):
        v = _lift(v, len(shape))
        if isinstance(v, np.ndarray):
            if v.dtype not in (np.dtype(np.int64), np.dtype(np.float64)):
                return None
            ops.append(np.broadcast_to(v, shape))
            kinds.append(v.dtype)
        elif isinstance(v, (bool, np.bool_)):
            return None
        elif isinstance(v, (int, np.integer)):
            if not (-(2**63) <= int(v) < 2**63):
                return None  # numpy would object-promote
            ops.append(int(v))
            kinds.append(int(v))
        elif isinstance(v, (float, np.floating)):
            ops.append(float(v))
            kinds.append(float(v))
        else:
            return None
    try:
        dtype = np.result_type(*kinds)
    except TypeError:
        return None
    if dtype not in (np.dtype(np.int64), np.dtype(np.float64)):
        return None
    return ops, dtype


def _slab_reduce(bin_ufunc, red_ufunc, ops, shape, red_axes, block_axis,
                 width, out, out_block_pos, dtype) -> None:
    """``out = red_ufunc.reduce(bin_ufunc(*ops), red_axes)``, computed
    ``width`` positions of ``block_axis`` (a non-reduced axis) at a time
    through one reused temporary slab."""
    extent = shape[block_axis]
    tmp_shape = list(shape)
    tmp_shape[block_axis] = width
    tmp = np.empty(tuple(tmp_shape), dtype=dtype)
    sl_in = [slice(None)] * len(shape)
    sl_out = [slice(None)] * out.ndim
    for k0 in range(0, extent, width):
        w = min(width, extent - k0)
        sl_in[block_axis] = slice(k0, k0 + w)
        sl_out[out_block_pos] = slice(k0, k0 + w)
        tsl = sl_in.copy()
        tsl[block_axis] = slice(0, w)
        t = tmp[tuple(tsl)]
        a, b = (
            o[tuple(sl_in)] if isinstance(o, np.ndarray) else o for o in ops
        )
        bin_ufunc(a, b, out=t)
        out[tuple(sl_out)] = red_ufunc.reduce(t, axis=red_axes)


# ---------------------------------------------------------------------------
# the reduction step
# ---------------------------------------------------------------------------


class _Reduce:
    """A whole ``$op(sets; ...)`` reduction as one composite step."""

    __slots__ = (
        "dst",
        "op",
        "n_sets",
        "inner_shape",
        "reduce_axes",
        "mask",
        "base",
        "arms",
        "others",
        "order_safe",
    )

    def __init__(
        self,
        dst,
        op,
        n_sets,
        inner_shape,
        reduce_axes,
        mask,
        base,
        arms,
        others,
        order_safe=False,
    ) -> None:
        self.dst = dst
        self.op = op
        self.n_sets = n_sets
        self.inner_shape = inner_shape
        self.reduce_axes = reduce_axes
        self.mask = mask  # statement-level mask register
        self.base = base  # register receiving the broadcast base mask
        #: [(pred_steps|None, pred_out, arm_mask_reg, expr_steps, expr_out)]
        self.arms = arms
        self.others = others  # (steps, out, others_mask_reg) | None
        #: UC501 determinism verdict: the blocked combine may reorder the
        #: reduction only when the analyzer proved it order-safe
        self.order_safe = order_safe

    def run(self, fr: Frame, regs) -> None:
        m = regs[self.mask]
        shape = fr.lead_shape + self.inner_shape
        axes = _lead_axes(self.reduce_axes, fr.lead)
        base = np.broadcast_to(m.reshape(m.shape + (1,) * self.n_sets), shape)
        regs[self.base] = base
        if (
            len(self.arms) == 1
            and self.arms[0][0] is None
            and self.others is None
            and bool(np.all(m))
        ):
            # all elements enabled, one unconditional arm: ``np.where(mask,
            # v, identity)`` is the identity map, so reduce the operand
            # directly.  Same astype chain as ``_reduce_op`` → identical
            # values and dtype.
            _ps, _po, amreg, esteps, eout = self.arms[0]
            regs[amreg] = base
            regs[self.dst] = self._reduce_all(fr, regs, esteps, eout, shape, axes)
            return
        arm_values: List[np.ndarray] = []
        arm_masks: List[np.ndarray] = []
        union: Optional[np.ndarray] = None
        for psteps, pout, amreg, esteps, eout in self.arms:
            if psteps is None:
                am = base
            else:
                for s in psteps:
                    s.run(fr, regs)
                pv = _bool_bcast(regs[pout], shape)
                am = base & pv
                union = pv if union is None else (union | pv)
            regs[amreg] = am
            for s in esteps:
                s.run(fr, regs)
            arm_values.append(self._operand(regs[eout], shape))
            arm_masks.append(am)
        if self.others is not None:
            osteps, oout, omreg = self.others
            om = base & (~union if union is not None else np.zeros(shape, bool))
            regs[omreg] = om
            for s in osteps:
                s.run(fr, regs)
            arm_values.append(self._operand(regs[oout], shape))
            arm_masks.append(om)
        regs[self.dst] = E._reduce_op(self.op, arm_values, arm_masks, axes)

    @staticmethod
    def _operand(v, shape) -> np.ndarray:
        return np.broadcast_to(np.asarray(_lift(v, len(shape))), shape)

    def _reduce_all(self, fr, regs, esteps, eout, shape, axes):
        """Reduce one unmasked operand, blocked when its grid is large."""
        block = self._block_plan(esteps, eout, shape, axes)
        if block is not None:
            for s in esteps[:-1]:
                s.run(fr, regs)
            last = esteps[-1]
            out = self._blocked(last, regs, shape, axes, *block)
            if out is not None:
                return out
            esteps = (last,)
        for s in esteps:
            s.run(fr, regs)
        val = self._operand(regs[eout], shape)
        ufunc = E._RED_UFUNC[self.op]
        logical = self.op in ("logand", "logor", "logxor")
        dtype = E._result_dtype(self.op, [val])
        v = val.astype(bool) if logical else (
            val.astype(dtype) if val.dtype != dtype else val
        )
        total = ufunc.reduce(v, axis=axes) if axes else v
        return np.asarray(total).astype(np.int64 if logical else dtype)

    def _block_plan(self, esteps, eout, shape, axes):
        """(block_axis, elements per block-axis position) when the
        operand's trailing elementwise binary can fuse into a slab-blocked
        reduce, else None.

        Eligible: a non-logical reduction over a grid bigger than two
        slabs whose operand ends in a plain ufunc binary, with a
        non-reduced axis wide enough to cut into several slabs.
        """
        if not axes or not esteps:
            return None
        last = esteps[-1]
        if not isinstance(last, _Binary) or last.dst != eout:
            return None
        if last.node.op not in _BLOCKED_BINOPS:
            return None
        if self.op in ("logand", "logor", "logxor") or self.op not in E._RED_UFUNC:
            return None
        total = int(np.prod(shape))
        if total <= 2 * _BLOCK_TMP_ELEMS:
            return None  # already cache-sized; blocking only adds overhead
        # slab along the widest non-reduced axis
        out_axes = [i for i in range(len(shape)) if i not in axes]
        block_axis = max(out_axes, key=lambda i: shape[i], default=None)
        if block_axis is None or shape[block_axis] < 2:
            return None
        per_unit = total // shape[block_axis]
        width = max(1, _BLOCK_TMP_ELEMS // max(1, per_unit))
        if width >= shape[block_axis]:
            return None
        return block_axis, per_unit

    def _blocked(self, last: _Binary, regs, shape, axes, block_axis, per_unit):
        """Evaluate ``last`` fused into the reduction, slab by slab along
        ``block_axis``, so the full operand never hits DRAM; None when the
        operand dtypes rule it out (the caller then runs ``last``).

        Because the blocking axis is not reduced over, each output element
        still reduces its complete, contiguous input run in one ufunc call
        — the grouping (and hence numpy's pairwise float summation order)
        is untouched, so the result is bit-identical to the unblocked
        evaluation for every dtype.
        """
        got = _block_operands(regs[last.a], regs[last.b], shape)
        if got is None:
            return None
        ops, dtype = got
        if dtype != E._result_dtype(self.op, [np.empty(0, dtype)]):
            return None  # the unblocked path would astype before reducing
        bin_ufunc = E._SIMPLE_BINOPS[last.node.op]
        red_ufunc = E._RED_UFUNC[self.op]
        out_axes = [i for i in range(len(shape)) if i not in axes]
        result = np.empty(tuple(shape[i] for i in out_axes), dtype=dtype)
        out_block_pos = out_axes.index(block_axis)
        if not (dtype == np.dtype(np.int64) and self.order_safe):
            # float64 — and int64 without a UC501 proof: keep the reduced
            # axes innermost and the original pairwise grouping.  Float
            # reduction order is observable, so only grouping-preserving
            # blocking is bit-identical; for unproven int64 sites it is the
            # verdict-mandated order-preserving fallback (integers exact).
            width = max(1, _BLOCK_TMP_ELEMS // max(1, per_unit))
            _slab_reduce(bin_ufunc, red_ufunc, ops, shape, axes, block_axis,
                         width, result, out_block_pos, dtype)
            return result
        # The reordering below is legal only under the site's UC501
        # determinism verdict (stamped onto the step at fuse-compile time
        # from repro.analysis.determinism — min/max always; int add/mul,
        # exact mod 2^64).  Put the reduced axes OUTERMOST: numpy then
        # reduces by vectorised accumulation over long contiguous output
        # rows instead of one short run per output element.  When interval
        # bounds prove every elementwise result and partial reduction fits
        # in int32, compute in int32 (half the slab traffic) and upcast
        # the block result exactly.
        red_extent = 1
        for ax in axes:
            red_extent *= shape[ax]
        work = np.dtype(np.int64)
        arrays = [o for o in ops if isinstance(o, np.ndarray)]
        if all(_condensed(o).size <= _BOUNDS_SCAN_MAX for o in arrays):
            bounds = []
            for o in ops:
                if isinstance(o, np.ndarray):
                    c = _condensed(o)
                    bounds.append((int(c.min()), int(c.max())))
                else:
                    bounds.append((int(o), int(o)))
            if _int32_window(last.node.op, self.op, bounds[0], bounds[1], red_extent):
                work = np.dtype(np.int32)
        perm = tuple(axes) + tuple(out_axes)
        t_ops = []
        for o in ops:
            if not isinstance(o, np.ndarray):
                t_ops.append(work.type(o))
                continue
            if o.dtype != work:
                o = np.broadcast_to(_condensed(o).astype(work), shape)
            t_ops.append(o.transpose(perm))
        n_red = len(axes)
        width = max(1, _BLOCK_TMP_BYTES // max(1, per_unit * work.itemsize))
        width = min(width, shape[block_axis])
        _slab_reduce(bin_ufunc, red_ufunc, t_ops, tuple(shape[ax] for ax in perm),
                     tuple(range(n_red)), n_red + out_block_pos, width, result,
                     out_block_pos, work)
        return result


# ---------------------------------------------------------------------------
# compile-time value descriptors
# ---------------------------------------------------------------------------


class _Val:
    """A compiled expression: its register, arrayness, and static value."""

    __slots__ = ("reg", "is_array", "static")

    def __init__(self, reg: int, is_array: bool, static: Any) -> None:
        self.reg = reg
        self.is_array = is_array
        self.static = static


class _GCtx:
    """Compile-time view of one grid context (construct or reduction)."""

    __slots__ = ("grid", "shape", "vp_ratio", "env_extra")

    def __init__(self, grid, vp_ratio: int, env_extra=None) -> None:
        self.grid = grid
        self.shape = tuple(grid.shape)
        self.vp_ratio = vp_ratio
        #: reduction element names shadowing the construct env: name -> axis
        self.env_extra: Dict[str, int] = env_extra or {}


def _is_prefix(store: Tuple, lookup: Tuple) -> bool:
    return len(store) <= len(lookup) and lookup[: len(store)] == store


def _cacheable(node: ast.Expr) -> bool:
    return isinstance(node, (ast.Binary, ast.Index, ast.Unary, ast.Ternary))


def _pure_reads(node: ast.Expr) -> Optional[frozenset]:
    """Read-set of a pure expression; None if impure (uncacheable)."""
    reads = set()
    for n in ast.walk(node):
        if isinstance(n, (ast.Call, ast.Assign, ast.IncDec, ast.Reduction)):
            return None
        if isinstance(n, ast.Name):
            reads.add(n.ident)
        elif isinstance(n, ast.Index):
            reads.add(n.base)
    return frozenset(reads)


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


class _Fuser:
    def __init__(self, ip, stmt: ast.UCStmt, inner) -> None:
        self.ip = ip
        self.stmt = stmt
        self.env = inner.env
        self.costs = ip.machine.clock.costs
        top_grid = inner.grid
        self.top = _GCtx(top_grid, ip.grid_vpset(top_grid.shape).vp_ratio)
        # registers
        self.n_regs = 0
        self.consts: List[Tuple[int, Any]] = []
        # per-statement buffers
        self.steps: List[Any] = []
        self.charges: List[Tuple] = []
        # runtime binding checks: (kind, name, expected)
        self.checks: List[Tuple] = []
        self._check_map: Dict[str, Tuple] = {}
        # static CSE simulation
        self.cse_on = bool(ip.cse_enabled)
        self.sim: Dict[Tuple, Tuple[Tuple, _Val]] = {}
        self.tombs: Dict[Tuple, Any] = {}
        self.fused_texts: set = set()
        self.unfused_texts: set = set()
        #: current invalidation context: None (certain) or an arm id
        self.inv_ctx: Any = None

    # -- registers ---------------------------------------------------------

    def reg(self) -> int:
        r = self.n_regs
        self.n_regs += 1
        return r

    def const(self, value) -> int:
        r = self.reg()
        self.consts.append((r, value))
        return r

    def static_val(self, value) -> _Val:
        return _Val(self.const(value), isinstance(value, np.ndarray), value)

    # -- binding checks ----------------------------------------------------

    def check(self, kind: str, name: str, expected) -> None:
        if name in self._check_map:
            return
        self._check_map[name] = (kind, expected)
        self.checks.append((kind, name, expected))

    # -- CSE simulation ----------------------------------------------------

    def sim_invalidate(self, name: str) -> None:
        """Drop sim entries that can observe a write to ``name``; record a
        tombstone when the drop happens under a conditional arm."""
        if not self.cse_on:
            return
        dead = [
            key
            for key, (_tok, _val, reads) in self.sim.items()
            if name in reads
        ]
        for key in dead:
            del self.sim[key]
            if self.inv_ctx is not None:
                self.tombs[key] = self.inv_ctx
        if self.inv_ctx is None:
            for key in dead:
                self.tombs.pop(key, None)

    def sim_clear(self) -> None:
        """A full invalidation (user call / nested construct)."""
        if not self.cse_on:
            return
        for key in list(self.sim):
            del self.sim[key]
            if self.inv_ctx is not None:
                self.tombs[key] = self.inv_ctx
        if self.inv_ctx is None:
            self.tombs.clear()

    # -- statement-level compilation --------------------------------------

    def lower_construct(self) -> "FusedConstruct":
        stmt = self.stmt
        # global bails: declarations anywhere would give later statements a
        # different environment than the flattened per-statement segments;
        # control transfers out of a construct body are not a thing we can
        # segment.  ``oneof`` never reaches here (its dispatch is separate).
        bodies = [b.stmt for b in stmt.blocks]
        if stmt.others is not None:
            bodies.append(stmt.others)
        for body in bodies:
            for n in ast.walk(body):
                if isinstance(
                    n,
                    (
                        ast.VarDecl,
                        ast.IndexSetDecl,
                        ast.DeclGroup,
                        ast.Return,
                        ast.Break,
                        ast.Continue,
                    ),
                ):
                    raise _Bail()

        base_reg = self.reg()
        arm_mask_regs = [self.reg() for _ in stmt.blocks]
        others_mask_reg = self.reg() if stmt.others is not None else None

        # predicates first, in arm order — exactly the _block_masks order.
        # An unfusable predicate bails the construct: predicates have no
        # per-statement fallback slot.
        pred_progs: List[Optional[Tuple]] = []
        for block in stmt.blocks:
            if block.pred is None:
                pred_progs.append(None)
                continue
            self._begin_unit()
            try:
                v = self.lower_expr(block.pred, self.top, base_reg, (), False)
            except _Demote:
                raise _Bail()
            pred_progs.append((tuple(self.charges), tuple(self.steps), v.reg))

        fused_count = 0
        unfused_count = 0
        arm_segments: List[List[Tuple]] = []
        for k, block in enumerate(stmt.blocks):
            conditional = block.pred is not None
            token = ((("a", k),) if conditional else ())
            segs, nf, nu = self._compile_body(
                block.stmt, arm_mask_regs[k], token, ("a", k) if conditional else None
            )
            arm_segments.append(segs)
            fused_count += nf
            unfused_count += nu
        others_segments = None
        if stmt.others is not None:
            segs, nf, nu = self._compile_body(
                stmt.others, others_mask_reg, (("a", -1),), ("a", -1)
            )
            others_segments = segs
            fused_count += nf
            unfused_count += nu

        if fused_count == 0:
            # nothing actually fused: the segmented runner would only add
            # overhead over the walker
            raise _Bail()
        if self.cse_on and (self.fused_texts & self.unfused_texts):
            # one cache world per construct: a text both fused (simulated
            # cache) and unfused (real cache) could hit across the seam
            raise _Bail()

        return FusedConstruct(
            shape=self.top.shape,
            checks=tuple(self.checks),
            n_regs=self.n_regs,
            consts=tuple(self.consts),
            base_reg=base_reg,
            pred_progs=tuple(pred_progs),
            arm_mask_regs=tuple(arm_mask_regs),
            arm_segments=tuple(tuple(s) for s in arm_segments),
            others_mask_reg=others_mask_reg,
            others_segments=(
                tuple(others_segments) if others_segments is not None else None
            ),
            fused_count=fused_count,
            unfused_count=unfused_count,
        )

    def _begin_unit(self) -> None:
        self.steps = []
        self.charges = []

    def _flatten(self, body: ast.Stmt) -> List[ast.Stmt]:
        # one-level deep: with declarations globally bailed, a Block's
        # child environment is indistinguishable from its parent's
        out: List[ast.Stmt] = []
        work = [body]
        while work:
            s = work.pop(0)
            if isinstance(s, ast.Block):
                work = list(s.stmts) + work
            else:
                out.append(s)
        return out

    def _compile_body(
        self, body: ast.Stmt, mask_reg: int, token: Tuple, inv_ctx
    ) -> Tuple[List[Tuple], int, int]:
        """Compile one arm body into ('f', charges, steps) / ('u', stmt)
        segments; returns (segments, n_fused, n_unfused)."""
        segs: List[Tuple] = []
        n_fused = 0
        n_unfused = 0
        self.inv_ctx = inv_ctx
        for s in self._flatten(body):
            if isinstance(s, ast.EmptyStmt):
                continue
            if isinstance(s, ast.ExprStmt):
                sim_snap = dict(self.sim)
                tomb_snap = dict(self.tombs)
                nregs_snap = self.n_regs
                consts_snap = len(self.consts)
                self._begin_unit()
                try:
                    self.lower_expr(s.expr, self.top, mask_reg, token, False)
                    segs.append(("f", tuple(self.charges), tuple(self.steps)))
                    n_fused += 1
                    continue
                except _Demote:
                    self.sim = sim_snap
                    self.tombs = tomb_snap
                    self.n_regs = nregs_snap
                    del self.consts[consts_snap:]
            self._note_unfused(s)
            segs.append(("u", s))
            n_unfused += 1
        self.inv_ctx = None
        return segs, n_fused, n_unfused

    def _note_unfused(self, s: ast.Stmt) -> None:
        """Apply an unfused statement's effects to the CSE simulation and
        collect its texts for the fused/unfused overlap check."""
        clear = False
        writes: set = set()
        for n in ast.walk(s):
            if isinstance(n, ast.UCStmt):
                clear = True  # nested construct: cse_suspend exit clears all
            elif isinstance(n, ast.Call):
                if self.ip.info.functions.get(n.func) is not None:
                    clear = True  # user call: cse_suspend exit clears all
                elif n.func == "swap":
                    for a in n.args:
                        if isinstance(a, ast.Index):
                            writes.add(a.base)
            elif isinstance(n, (ast.Assign, ast.IncDec)):
                t = n.target
                if isinstance(t, ast.Name):
                    writes.add(t.ident)
                elif isinstance(t, ast.Index):
                    writes.add(t.base)
            if self.cse_on and _cacheable(n):
                reads = _pure_reads(n)
                if reads is not None:
                    self.unfused_texts.add(expr_to_text(n))
        if clear:
            self.sim_clear()
        else:
            for w in writes:
                self.sim_invalidate(w)

    # -- expression compilation -------------------------------------------

    def lower_expr(
        self, node: ast.Expr, g: _GCtx, mask_reg: int, token: Tuple, view_ok: bool
    ) -> _Val:
        if self.cse_on and _cacheable(node):
            reads = _pure_reads(node)
            if reads is not None:
                text = expr_to_text(node)
                key = (text, g.shape)
                ent = self.sim.get(key)
                if ent is not None:
                    store_tok, val, _reads = ent
                    if _is_prefix(store_tok, token):
                        return val
                    raise _Demote()  # data-dependent cross-context hit
                tomb = self.tombs.get(key)
                if tomb is not None and tomb != self.inv_ctx:
                    raise _Demote()  # killer arm may be skipped at run time
                val = self._compile_inner(node, g, mask_reg, token, view_ok)
                self.sim[key] = (token, val, reads)
                self.fused_texts.add(text)
                return val
        return self._compile_inner(node, g, mask_reg, token, view_ok)

    def _compile_inner(
        self, node: ast.Expr, g: _GCtx, mask_reg: int, token: Tuple, view_ok: bool
    ) -> _Val:
        if isinstance(node, ast.IntLit):
            return self.static_val(node.value)
        if isinstance(node, ast.FloatLit):
            return self.static_val(node.value)
        if isinstance(node, ast.InfLit):
            return self.static_val(INF)
        if isinstance(node, ast.Name):
            return self._compile_name(node, g)
        if isinstance(node, ast.Index):
            return self._compile_gather(node, g, mask_reg, token, view_ok)
        if isinstance(node, ast.Unary):
            return self._compile_unary(node, g, mask_reg, token, view_ok)
        if isinstance(node, ast.Binary):
            if node.op in ("&&", "||"):
                return self._compile_shortcircuit(node, g, mask_reg, token, view_ok)
            return self._compile_binary(node, g, mask_reg, token, view_ok)
        if isinstance(node, ast.Ternary):
            return self._compile_ternary(node, g, mask_reg, token, view_ok)
        if isinstance(node, ast.Reduction):
            return self._compile_reduction(node, g, mask_reg, token)
        if isinstance(node, ast.Assign):
            return self._compile_assign(node, g, mask_reg, token)
        if isinstance(node, ast.IncDec):
            one = ast.IntLit(line=node.line, col=node.col, value=1)
            synth = ast.Assign(
                line=node.line,
                col=node.col,
                target=node.target,
                op="+" if node.op == "++" else "-",
                value=one,
            )
            return self._compile_assign(synth, g, mask_reg, token)
        # Call (host side effects, RNG), StringLit, anything exotic
        raise _Demote()

    def _charge(self, kind: str, count: int = 1, vp_ratio: int = 1) -> None:
        self.charges.append(("c", kind, count, vp_ratio))

    def _alu(self, g: _GCtx, count: int = 1) -> None:
        self._charge("alu", count, g.vp_ratio)

    def _lookup(self, name: str, g: _GCtx):
        if name in g.env_extra:
            return ElementBinding(name, "", "axis", axis=g.env_extra[name])
        b = self.env.try_lookup(name)
        if b is None:
            raise _Demote()
        return b

    def _compile_name(self, node: ast.Name, g: _GCtx) -> _Val:
        b = self._lookup(node.ident, g)
        if isinstance(b, ElementBinding):
            if b.kind != "axis":
                raise _Demote()  # seq element: rebinding per front-end step
            if node.ident not in g.env_extra:
                self.check("axis", node.ident, b.axis)
            return self.static_val(g.grid.axis_values(b.axis))
        if isinstance(b, ScalarVar):
            self.check("scalar", node.ident, b)
            r = self.reg()
            self.steps.append(_ReadScalar(r, b))
            return _Val(r, False, _DYN)
        if isinstance(b, (int, float)) and not isinstance(b, bool):
            self.check("const", node.ident, b)
            return self.static_val(b)
        # ParallelLocal, IndexSetValue, SliceParam...: not fused in v1
        raise _Demote()

    def _compile_unary(self, node, g, mask_reg, token, view_ok) -> _Val:
        v = self.lower_expr(node.operand, g, mask_reg, token, view_ok)
        if node.op not in ("-", "!", "~"):
            raise _Demote()
        self._alu(g)
        if v.static is not _DYN:
            try:
                folded = E.apply_unary(node.op, v.static, node)
            except UCRuntimeError:
                raise _Demote()
            return self.static_val(folded)
        r = self.reg()
        self.steps.append(_Unary(r, v.reg, node))
        return _Val(r, v.is_array, _DYN)

    def _compile_binary(self, node, g, mask_reg, token, view_ok) -> _Val:
        a = self.lower_expr(node.left, g, mask_reg, token, view_ok)
        b = self.lower_expr(node.right, g, mask_reg, token, view_ok)
        self._alu(g)
        if a.static is not _DYN and b.static is not _DYN:
            try:
                folded = E.apply_binop(node.op, a.static, b.static, node)
            except UCRuntimeError:
                raise _Demote()
            return self.static_val(folded)
        r = self.reg()
        self.steps.append(_Binary(r, a.reg, b.reg, node, len(g.shape)))
        return _Val(r, a.is_array or b.is_array, _DYN)

    def _compile_shortcircuit(self, node, g, mask_reg, token, view_ok) -> _Val:
        a = self.lower_expr(node.left, g, mask_reg, token, view_ok)
        self._alu(g)
        if not a.is_array:
            # scalar left: C short-circuit — which side runs is data-
            # dependent unless the left side is statically known
            if a.static is _DYN:
                raise _Demote()
            if node.op == "&&" and not a.static:
                return self.static_val(0)
            if node.op == "||" and a.static:
                return self.static_val(1)
            b = self.lower_expr(node.right, g, mask_reg, token, view_ok)
            if b.static is not _DYN:
                rv = E._truthy(b.static)
                if isinstance(rv, np.ndarray):
                    return self.static_val(rv.astype(np.int64))
                return self.static_val(int(rv))
            r = self.reg()
            self.steps.append(_TruthyInt(r, b.reg))
            return _Val(r, b.is_array, _DYN)
        # array left: evaluate the right side under the refined context
        if a.static is not _DYN:
            lbool_v = np.broadcast_to(np.asarray(E._truthy(a.static)), g.shape)
            lb = self.static_val(lbool_v)
        else:
            r = self.reg()
            self.steps.append(_Bool(r, a.reg, g.shape))
            lb = _Val(r, True, _DYN)
        invert = node.op == "||"
        mr = self.reg()
        self.steps.append(_Mask(mr, mask_reg, lb.reg, invert))
        sub_token = token + (("sc", id(node)),)
        b = self.lower_expr(node.right, g, mr, sub_token, view_ok)
        if lb.static is not _DYN and b.static is not _DYN:
            rbool = np.broadcast_to(np.asarray(E._truthy(b.static)), g.shape)
            if node.op == "&&":
                return self.static_val((lb.static & rbool).astype(np.int64))
            return self.static_val((lb.static | rbool).astype(np.int64))
        r = self.reg()
        self.steps.append(_Combine(r, lb.reg, b.reg, node.op == "&&", g.shape))
        return _Val(r, True, _DYN)

    def _compile_ternary(self, node, g, mask_reg, token, view_ok) -> _Val:
        c = self.lower_expr(node.cond, g, mask_reg, token, view_ok)
        if not c.is_array:
            # scalar condition: which branch runs is data-dependent
            # unless the condition folds
            if c.static is _DYN:
                raise _Demote()
            self._alu(g)
            chosen = node.then if c.static else node.els
            return self.lower_expr(chosen, g, mask_reg, token, view_ok)
        if c.static is not _DYN:
            cbool_v = np.broadcast_to(np.asarray(E._truthy(c.static)), g.shape)
            cb = self.static_val(cbool_v)
        else:
            r = self.reg()
            self.steps.append(_Bool(r, c.reg, g.shape))
            cb = _Val(r, True, _DYN)
        mr_t = self.reg()
        self.steps.append(_Mask(mr_t, mask_reg, cb.reg, False))
        then_v = self.lower_expr(
            node.then, g, mr_t, token + (("t", id(node), True),), view_ok
        )
        mr_e = self.reg()
        self.steps.append(_Mask(mr_e, mask_reg, cb.reg, True))
        else_v = self.lower_expr(
            node.els, g, mr_e, token + (("t", id(node), False),), view_ok
        )
        self._alu(g, count=2)  # the select
        if (
            cb.static is not _DYN
            and then_v.static is not _DYN
            and else_v.static is not _DYN
        ):
            return self.static_val(
                np.where(cb.static, then_v.static, else_v.static)
            )
        r = self.reg()
        self.steps.append(_Where(r, cb.reg, then_v.reg, else_v.reg, len(g.shape)))
        return _Val(r, True, _DYN)

    # -- array references --------------------------------------------------

    def _resolve_array(self, node: ast.Index, g: _GCtx) -> ArrayVar:
        b = self._lookup(node.base, g)
        if not isinstance(b, ArrayVar):
            raise _Demote()  # slices / parallel locals: not fused in v1
        self.check("array", node.base, b)
        return b

    def _static_subs(self, node, g, mask_reg, token, view_ok) -> List[Any]:
        subs = []
        for s in node.subs:
            sv = self.lower_expr(s, g, mask_reg, token, view_ok)
            if sv.static is _DYN:
                raise _Demote()  # dynamic subscript: tier could change
            subs.append(sv.static)
        return subs

    def _compile_ref(self, node, g, mask_reg, token, view_ok, write):
        """Classify and lower one static array reference, recording its
        charges; returns the array and its map."""
        arr = self._resolve_array(node, g)
        view_shape = arr.data.shape
        if len(node.subs) != len(view_shape):
            raise _Demote()  # the engine raises; keep the message path
        subs = self._static_subs(node, g, mask_reg, token, view_ok)
        classify = classify_write if write else classify_reference
        rc = classify(
            subs, g.shape, g.grid.axis_elems, arr.layout, positions=g.grid.positions
        )
        tier = commtiers.decide_tier(
            rc, self.costs, write=write, enabled=self.ip.comm_tiers_enabled
        )
        m = ref_map(
            subs, view_shape, g.shape, rc=rc, tier=tier, write=write, compact=True
        )
        if m.always:
            raise _Demote()  # always-raising bounds error
        rec = _Recorder()
        commtiers.charge_tier_at(
            rec, tier, rc, write=write, vp_ratio=g.vp_ratio,
            grid_shape=tuple(g.shape), layout=arr.layout,
        )
        self.charges.extend(rec.entries)
        return arr, m

    def _compile_gather(self, node, g, mask_reg, token, view_ok) -> _Val:
        arr, m = self._compile_ref(node, g, mask_reg, token, view_ok, False)
        r = self.reg()
        self.steps.append(_Gather(r, node, arr, mask_reg, m, view_ok))
        return _Val(r, True, _DYN)

    def _compile_scatter(
        self, assign: ast.Assign, value: _Val, g, mask_reg, token
    ) -> None:
        node = assign.target
        arr, m = self._compile_ref(node, g, mask_reg, token, False, True)
        self.steps.append(_Scatter(node, arr, value.reg, mask_reg, m))
        self.sim_invalidate(node.base)

    def _compile_assign(self, node: ast.Assign, g, mask_reg, token) -> _Val:
        value = self.lower_expr(node.value, g, mask_reg, token, False)
        if node.op:
            current = self.lower_expr(node.target, g, mask_reg, token, False)
            self._alu(g)
            if current.static is not _DYN and value.static is not _DYN:
                try:
                    folded = E.apply_binop(node.op, current.static, value.static, node)
                except UCRuntimeError:
                    raise _Demote()
                value = self.static_val(folded)
            else:
                r = self.reg()
                self.steps.append(
                    _Binary(
                        r,
                        current.reg,
                        value.reg,
                        ast.Binary(
                            line=node.line,
                            col=node.col,
                            op=node.op,
                            left=node.target,
                            right=node.value,
                        ),
                        len(g.shape),
                    )
                )
                value = _Val(r, current.is_array or value.is_array, _DYN)
        target = node.target
        if isinstance(target, ast.Index):
            self._compile_scatter(node, value, g, mask_reg, token)
            return value
        if not isinstance(target, ast.Name):
            raise _Demote()
        b = self._lookup(target.ident, g)
        if not isinstance(b, ScalarVar):
            raise _Demote()  # parallel locals / element rebinds: not in v1
        self.check("scalar", target.ident, b)
        if value.is_array:
            self._charge("host_cm_latency")
        else:
            self._charge("host")
        self.steps.append(_AssignScalar(b, value.reg, mask_reg, node))
        self.sim_invalidate(target.ident)
        return value

    # -- reductions --------------------------------------------------------

    def _resolve_sets(self, node: ast.Reduction, g: _GCtx) -> List[IndexSetValue]:
        sets = []
        for name in node.index_sets:
            isv = self.env.try_lookup(name)
            if not isinstance(isv, IndexSetValue):
                isv = self.ip.info.index_sets.get(name)
            if not isinstance(isv, IndexSetValue):
                raise _Demote()  # unknown set: the engine raises
            self.check("iset", name, (isv.elem_name, tuple(isv.values)))
            sets.append(isv)
        return sets

    def _compile_reduction(self, node: ast.Reduction, g, mask_reg, token) -> _Val:
        if node.op == "arbitrary" or node.op not in E._RED_UFUNC:
            raise _Demote()  # RNG / host-side combine
        sets = self._resolve_sets(node, g)
        if self.ip.processor_opt and send_reduce_split(self.ip, node, g.grid, sets):
            raise _Demote()  # the send-reduce path could fire at run time
        inner_grid = g.grid.extend(sets)
        extra = dict(g.env_extra)
        for offset, isv in enumerate(sets):
            extra[isv.elem_name] = g.grid.rank + offset
        gi = _GCtx(
            inner_grid, self.ip.grid_vpset(inner_grid.shape).vp_ratio, extra
        )
        n_sets = len(sets)
        reduce_axes = tuple(range(g.grid.rank, inner_grid.rank))
        reduce_extent = int(np.prod([len(s) for s in sets]))
        order_safe = bool(self.ip.reduction_order_safe(node))
        self.charges.append(("s", reduce_extent, gi.vp_ratio, 1))
        # shard-sink reduction observation (see Clock.replay's "r" tag):
        # carries the UC5xx verdict so sharded replay pre-combines only
        # proven sites
        self.charges.append(
            ("r", node.op, order_safe, reduce_extent, gi.vp_ratio, gi.shape)
        )
        pure = E.is_pure(node)
        base_reg = self.reg()
        rtoken = token + (("r", id(node)),)
        arms = []
        for k, arm in enumerate(node.arms):
            if arm.pred is None:
                psteps, pout = None, None
                atoken = rtoken
            else:
                psteps = self._sub_steps(
                    lambda: self.lower_expr(arm.pred, gi, base_reg, rtoken, pure)
                )
                psteps, pv = psteps
                pout = pv.reg
                atoken = rtoken + (("ra", k),)
            amreg = self.reg()
            esteps, ev = self._sub_steps(
                lambda: self.lower_expr(arm.expr, gi, amreg, atoken, pure)
            )
            arms.append((psteps, pout, amreg, esteps, ev.reg))
        others = None
        if node.others is not None:
            omreg = self.reg()
            osteps, ov = self._sub_steps(
                lambda: self.lower_expr(
                    node.others, gi, omreg, rtoken + (("ra", -1),), pure
                )
            )
            others = (osteps, ov.reg, omreg)
        r = self.reg()
        self.steps.append(
            _Reduce(
                r, node.op, n_sets, gi.shape, reduce_axes, mask_reg, base_reg,
                tuple(arms), others, order_safe,
            )
        )
        return _Val(r, True, _DYN)

    def _sub_steps(self, fn):
        """Compile ``fn`` with a private step buffer (charges still append
        to the statement's charge table, in program order)."""
        saved = self.steps
        self.steps = []
        try:
            val = fn()
        finally:
            sub, self.steps = self.steps, saved
        return tuple(sub), val


# ---------------------------------------------------------------------------
# the fused construct
# ---------------------------------------------------------------------------


class _Sweep:
    """Per-sweep state: the frame, the register file and the arm masks."""

    __slots__ = ("frame", "regs", "masks", "union")

    def __init__(self, frame, regs, masks, union) -> None:
        self.frame = frame
        self.regs = regs
        self.masks = masks
        self.union = union


class FusedConstruct:
    """A construct body lowered to register programs + charge tables."""

    __slots__ = (
        "shape",
        "checks",
        "n_regs",
        "consts",
        "base_reg",
        "pred_progs",
        "arm_mask_regs",
        "arm_segments",
        "others_mask_reg",
        "others_segments",
        "fused_count",
        "unfused_count",
        "_bound",
        "_slots",
    )

    def __init__(
        self,
        *,
        shape,
        checks,
        n_regs,
        consts,
        base_reg,
        pred_progs,
        arm_mask_regs,
        arm_segments,
        others_mask_reg,
        others_segments,
        fused_count,
        unfused_count,
    ) -> None:
        self.shape = shape
        self.checks = checks
        self.n_regs = n_regs
        self.consts = consts
        self.base_reg = base_reg
        self.pred_progs = pred_progs
        self.arm_mask_regs = arm_mask_regs
        self.arm_segments = arm_segments
        self.others_mask_reg = others_mask_reg
        self.others_segments = others_segments
        self.fused_count = fused_count
        self.unfused_count = unfused_count
        #: currently bound ScalarVar/ArrayVar per name (starts at the
        #: compile-time bindings; updated when a sweep rebinds)
        self._bound: Dict[str, Any] = {
            name: expected for kind, name, expected in checks
            if kind in ("scalar", "array")
        }
        self._slots: Optional[Dict[str, List[Tuple[Any, str]]]] = None

    # -- validation --------------------------------------------------------

    def validate(self, ip, inner) -> bool:
        """Re-check every binding the compile specialised on.  A False here
        is a per-sweep fallback to the walker, not an error.

        Scalar and array bindings are compared structurally, not by
        identity: the kernel may be served from the shared compile store
        to a different interpreter (a later run, another ``UCProgram``
        of the same source, a batch lane), whose environment holds fresh
        but shape/dtype/layout-equal variables.  An equivalent binding
        is spliced into the steps (:meth:`_rebind`); anything else — a
        changed layout object, shape, dtype or ctype — still falls back.
        """
        if inner.mask is not None or tuple(inner.grid.shape) != self.shape:
            return False
        env = inner.env
        for kind, name, expected in self.checks:
            if kind == "iset":
                isv = env.try_lookup(name)
                if not isinstance(isv, IndexSetValue):
                    isv = ip.info.index_sets.get(name)
                if (
                    not isinstance(isv, IndexSetValue)
                    or (isv.elem_name, tuple(isv.values)) != expected
                ):
                    return False
                continue
            b = env.try_lookup(name)
            if kind == "axis":
                if (
                    not isinstance(b, ElementBinding)
                    or b.kind != "axis"
                    or b.axis != expected
                ):
                    return False
            elif kind == "scalar":
                if b is not self._bound[name]:
                    if (
                        not isinstance(b, ScalarVar)
                        or b.ctype != expected.ctype
                    ):
                        return False
                    self._rebind(name, b)
            elif kind == "array":
                if b is not self._bound[name]:
                    # the subscript maps baked in at compile time are
                    # functions of layout and shape only, so any
                    # same-layout same-shape array of the same dtype can
                    # be spliced in
                    if (
                        not isinstance(b, ArrayVar)
                        or b.ctype != expected.ctype
                        or b.layout is not expected.layout
                        or b.shape != expected.shape
                        or b.dtype != expected.dtype
                    ):
                        return False
                    self._rebind(name, b)
            else:  # const
                if isinstance(b, bool) or b != expected or type(b) is not type(expected):
                    return False
        return True

    def _rebind(self, name: str, binding: Any) -> None:
        """Point every step that references ``name`` at ``binding``."""
        if self._slots is None:
            self._slots = self._binding_slots()
        for step, attr in self._slots.get(name, ()):
            setattr(step, attr, binding)
        self._bound[name] = binding

    def _binding_slots(self) -> Dict[str, List[Tuple[Any, str]]]:
        """Map binding name -> the (step, attribute) slots holding it,
        including steps nested inside :class:`_Reduce` arms."""
        slots: Dict[str, List[Tuple[Any, str]]] = {}
        for s in self.steps():
            if isinstance(s, (_ReadScalar, _AssignScalar)):
                attr = "var"
            elif isinstance(s, (_Gather, _Scatter)):
                attr = "arr"
            else:
                continue
            slots.setdefault(getattr(s, attr).name, []).append((s, attr))
        return slots

    def steps(self):
        """Every step of every register program, reduction arms included."""

        def walk(steps):
            for s in steps:
                yield s
                if isinstance(s, _Reduce):
                    for psteps, _po, _am, esteps, _eo in s.arms:
                        yield from walk(psteps or ())
                        yield from walk(esteps)
                    if s.others is not None:
                        yield from walk(s.others[0])

        for prog in self.pred_progs:
            if prog is not None:
                yield from walk(prog[1])
        for segs in self.arm_segments + (self.others_segments or (),):
            for seg in segs:
                if seg[0] == "f":
                    yield from walk(seg[2])

    # -- execution ---------------------------------------------------------

    def start(self, fr: Frame, base: np.ndarray) -> _Sweep:
        """Load the register file and evaluate the arm predicates (the
        ``_block_masks`` phase) over ``base``, the active mask with the
        frame's lead axes in front."""
        regs: List[Any] = [None] * self.n_regs
        for r, v in self.consts:
            regs[r] = v
        regs[self.base_reg] = base
        masks: List[np.ndarray] = []
        union: Optional[np.ndarray] = None
        for prog in self.pred_progs:
            if prog is None:
                masks.append(base)
                continue
            charges, steps, out = prog
            fr.charge(charges)
            for s in steps:
                s.run(fr, regs)
            pb = _bool_bcast(regs[out], base.shape)
            masks.append(base & pb)
            union = pb if union is None else (union | pb)
        return _Sweep(fr, regs, masks, union)

    def run_arm(self, sweep: _Sweep, segs, mask_reg: int, mask, inner) -> None:
        """Run one arm body's segments under ``mask``; unfused segments
        run on the walker in ``inner`` (solo sweeps only)."""
        fr = sweep.frame
        regs = sweep.regs
        regs[mask_reg] = mask
        sub = None
        for seg in segs:
            if seg[0] == "f":
                fr.charge(seg[1])
                for s in seg[2]:
                    s.run(fr, regs)
            else:
                if sub is None:
                    sub = inner.with_mask(mask)
                exec_stmt(fr.ip, seg[1], sub)

    def begin_sweep(self, ip, inner) -> _Sweep:
        """Start one solo sweep: the predicates over the active mask."""
        return self.start(Frame(ip), inner.active_mask())

    def run_body(self, ip, inner, sweep: _Sweep) -> bool:
        """Run the arm bodies and others clause; returns whether any ran."""
        ran = False
        for k, segs in enumerate(self.arm_segments):
            mask = sweep.masks[k]
            if np.any(mask):
                ran = True
                self.run_arm(sweep, segs, self.arm_mask_regs[k], mask, inner)
        if self.others_segments is not None:
            base = inner.active_mask()
            om = base & (
                ~sweep.union
                if sweep.union is not None
                else np.zeros(self.shape, bool)
            )
            if np.any(om):
                ran = True
                self.run_arm(
                    sweep, self.others_segments, self.others_mask_reg, om, inner
                )
        ip.machine.clock.count_fusion("fused_sweeps")
        return ran


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build(ip, stmt: ast.UCStmt, inner):
    try:
        return _Fuser(ip, stmt, inner).lower_construct()
    except _Bail:
        return _UNFUSABLE


def _note_fusion(ip, stmt, sig, fused) -> None:
    """Count the per-construct fusion telemetry once per run.

    The kernel itself may come from the shared compile store, already
    built by an earlier run — counting at build time would make a warm
    run report zero constructs.  Counting at first use per (construct,
    grid) per interpreter makes warm and cold runs report identically.
    """
    key = (id(stmt), sig)
    if key in ip.fusion_noted:
        return
    ip.fusion_noted.add(key)
    clock = ip.machine.clock
    if fused is _UNFUSABLE:
        clock.count_fusion("unfusable")
        return
    clock.count_fusion("constructs")
    clock.count_fusion("fused_segments", fused.fused_count)
    clock.count_fusion("unfused_segments", fused.unfused_count)


def fused_for(ip, stmt: ast.UCStmt, inner) -> Optional[FusedConstruct]:
    """The fused kernel for one construct sweep, or None to run it on the
    walker.

    Gates, in order: plans must be on (fusion builds on the reference
    maps' semantics; ``plans=False`` keeps the memo-free walker the
    reference), the fusion flag and escape hatch, no tier log (covers the
    sanitizer, which forces tier logging), no armed faults (a mid-sweep
    ``fault_point`` must interleave with individual charges), and a fully
    active construct context.  A cached kernel still revalidates its
    binding specialisations every sweep.
    """
    if not (ip.plans_enabled and ip.fusion_enabled):
        return None
    if ip.tier_log is not None or getattr(ip, "sanitizer", None) is not None:
        return None
    machine = ip.machine
    if machine.clock.fault_hook is not None or machine.faults is not None:
        return None
    if inner.mask is not None:
        return None
    sig = tuple(inner.grid.axes)
    fused = ip.plan_cache.get_or_build(
        "fuse", stmt, sig, lambda: _build(ip, stmt, inner)
    )
    _note_fusion(ip, stmt, sig, fused)
    if fused is _UNFUSABLE:
        return None
    if not fused.validate(ip, inner):
        machine.clock.count_fusion("fallback_sweeps")
        return None
    return fused
