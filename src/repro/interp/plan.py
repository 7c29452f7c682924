"""Compile-to-closure execution plans for par / seq / oneof / solve bodies.

The tree-walking evaluator in :mod:`repro.interp.eval_expr` re-derives a
lot of *static* information on every sweep of an iterated construct:
reference classification (``classify_reference`` walks every subscript),
subscript clipping/broadcasting, bounds masks, readiness index vectors.
A plan lowers an already-semantically-checked AST subtree **once** into a
tree of Python closures; per-node memos then cache the static derivations
across sweeps, keyed by what could actually change (grid axes, the
resolved bindings of the free names, the array's layout and shape).

The contract is strict *observational equivalence* with the tree-walker:

* every ``Clock`` charge is issued in the same order with the same
  arguments (the cost model adds a dispatch charge per call, so the call
  *sequence* matters, not just totals);
* the CSE cache is consulted/filled through the same
  ``_cse_lookup``/``_cse_store`` helpers with the same keys;
* every RNG draw (``rand``, ``$,``, ``oneof`` picks) happens in the same
  order;
* all error paths raise the same exceptions.

Memos therefore never skip operand evaluation — they only skip the final
ufunc / gather / classification once the operands are known static.  A
memo is valid only when the grid axes match and the free names resolve
to the same axis/constant bindings (re-checked every execution: cheap
dict lookups guard against shadowing).  Array-reference memos live in a
bounded per-node table (:class:`_MemoTable`) keyed additionally on the
array's layout, view shape and dtype — never on the :class:`ArrayVar` —
so they serve every ``seq`` step and every later run of the program.

Every array reference a plan compiles — gathers, scatters, solve
readiness and ``defined`` marking — lowers its static subscripts through
one :class:`RefMap` (built by :func:`ref_map`), which the fused register
programs of :mod:`repro.interp.fuse` share.  A read map holds a NEWS
shift, an ``np.ix_`` *take recipe* or clipped index arrays: a take recipe
collapses an N-d fancy gather over the grid to a take over one vector per
varying axis plus a broadcast, which is the big win for ``solve`` sweeps
(e.g. ``dist[i][k]`` over an (i,j,k) grid: a 64×64 take instead of a 64³
gather).  Inside pure reductions the broadcast *view* is returned
directly (``view_ok``); the reduction materialises it before any write
can occur.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..lang import ast
from ..lang.errors import UCRuntimeError
from ..machine.scan import INF
from ..mapping.locality import classify_reference, classify_write
from . import commtiers
from . import eval_expr as E
from .eval_expr import ExecContext
from .values import ArrayVar, ElementBinding, ParallelLocal, ScalarVar

_TRUE = np.asarray(True)

#: node types whose subtrees are "static": value fully determined by the
#: grid axes plus axis-element / compile-time-constant name bindings
_STATIC_OK = (
    ast.IntLit,
    ast.FloatLit,
    ast.InfLit,
    ast.Name,
    ast.Unary,
    ast.Binary,
    ast.Ternary,
)


def _static_names(node: ast.Node) -> Optional[Tuple[str, ...]]:
    """Free names of a static subtree, or None if the subtree is not static."""
    names: List[str] = []
    for n in ast.walk(node):
        if not isinstance(n, _STATIC_OK):
            return None
        if isinstance(n, ast.Name) and n.ident not in names:
            names.append(n.ident)
    return tuple(names)


def _joint_static_names(nodes) -> Optional[Tuple[str, ...]]:
    names: List[str] = []
    for node in nodes:
        sub = _static_names(node)
        if sub is None:
            return None
        for name in sub:
            if name not in names:
                names.append(name)
    return tuple(names)


def _binding_sig(names: Optional[Tuple[str, ...]], ctx: ExecContext):
    """Hashable signature of how ``names`` resolve right now, or None if
    any resolves to something mutable (then memoisation is unsound)."""
    if names is None:
        return None
    sig = []
    for name in names:
        b = ctx.env.try_lookup(name)
        if isinstance(b, ElementBinding):
            if b.kind == "axis":
                sig.append(("a", b.axis))
            else:
                sig.append(("s", b.value))
        elif isinstance(b, (int, float)) and not isinstance(b, bool):
            sig.append(("c", b))
        else:
            return None
    return tuple(sig)


def _axes_match(a, b) -> bool:
    return a is b or a == b


# ---------------------------------------------------------------------------
# bounded per-reference memo tables
# ---------------------------------------------------------------------------

#: most entries one reference's memo table holds — room for a ``seq``
#: element stepping over a paper-sized index set (APSP's ``k``, N = 64)
MEMO_ENTRIES = 128
#: most index bytes one table holds (a single larger entry is still kept)
MEMO_BYTES = 32 << 20


def _held_bytes(*parts) -> int:
    """Bytes the arrays in ``parts`` really hold (broadcast axes free)."""
    total = 0
    for part in parts:
        if isinstance(part, np.ndarray):
            total += _condensed(part).nbytes
        elif isinstance(part, (tuple, list)):
            total += _held_bytes(*part)
    return total


class _MemoTable:
    """The memos of one plan node, keyed by what their contents depend on.

    Plans live in a shared compile store, so one table serves every
    ``seq`` step and every run of its program.  Entries hold only
    derived index data, never an array's field data; the oldest entries
    go first once the table exceeds :data:`MEMO_ENTRIES` entries or
    :data:`MEMO_BYTES` bytes.
    """

    __slots__ = ("entries", "nbytes")

    def __init__(self) -> None:
        self.entries: dict = {}
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key):
        return self.entries.get(key)

    def put(self, key, memo) -> None:
        entries = self.entries
        old = entries.pop(key, None)
        if old is not None:
            self.nbytes -= old.nbytes
        entries[key] = memo
        self.nbytes += memo.nbytes
        while len(entries) > MEMO_ENTRIES or (
            self.nbytes > MEMO_BYTES and len(entries) > 1
        ):
            self.nbytes -= entries.pop(next(iter(entries))).nbytes


def _memo_key(names, ctx: ExecContext, *where):
    """Memo key of one array reference, or None when it is not static.

    The subscripts are fixed by the binding signature and the grid axes;
    the classification, tier and index recipes then depend only on
    ``where`` — the array's layout, view shape and dtype (for solve's
    ``defined`` flags, their shape).  The machine cost table and engine
    flags are fixed per plan cache (the compile store keys its backends
    on them).
    """
    sig = _binding_sig(names, ctx)
    if sig is None:
        return None
    return (sig, ctx.grid.axes) + where


# ---------------------------------------------------------------------------
# np.ix_ take recipes for static fancy indices
# ---------------------------------------------------------------------------


def _condensed(arr: np.ndarray) -> np.ndarray:
    """View with broadcast (stride-0) axes collapsed to length 1.

    Covers each distinct memory element exactly once, so min/max bounds
    and byte counts cost O(real data), not O(logical size), and an
    ``astype`` or ``clip`` of the result copies only the real data before
    re-broadcasting.
    """
    idx = tuple(
        slice(0, 1) if s == 0 and d > 1 else slice(None)
        for s, d in zip(arr.strides, arr.shape)
    )
    return arr[idx]


def _vary_axis(arr: np.ndarray, used) -> Optional[int]:
    """The single unused grid axis ``arr`` varies along; -1 if constant;
    None if it varies along several (or only already-claimed) axes."""
    if arr.size == 0:
        return None
    # stride fast path: an axis with stride 0 (or extent 1) cannot vary,
    # so a broadcast view varying along one real axis is detected without
    # touching the data (axis_values grids are exactly this shape)
    varying = [
        g
        for g, st in enumerate(arr.strides)
        if st != 0 and arr.shape[g] > 1
    ]
    if not varying:
        return -1
    if len(varying) == 1:
        g = varying[0]
        return None if g in used else g
    first = arr[(0,) * arr.ndim]
    if bool((arr == first).all()):
        return -1
    for g in range(arr.ndim):
        if g in used:
            continue
        others = tuple(k for k in range(arr.ndim) if k != g)
        if not others:
            return g
        if bool((arr.max(axis=others) == arr.min(axis=others)).all()):
            return g
    return None


class _IndexRecipe:
    """``data[tuple(idx_arrays)]`` replayed as an ``np.ix_`` take.

    Valid when every index array is constant or varies along exactly one
    distinct grid axis; the take touches one element per (varying-axis
    product) instead of one per grid point, and the result broadcasts
    back to the grid shape as a readonly view.
    """

    __slots__ = ("vecs", "perm", "squeeze", "expand", "shape")

    def __init__(self, vecs, perm, squeeze, expand, shape) -> None:
        self.vecs = vecs
        self.perm = perm
        self.squeeze = squeeze
        self.expand = expand
        self.shape = shape

    def take(self, data: np.ndarray, lead: int = 0) -> np.ndarray:
        """The gathered grid; ``lead`` leading axes of ``data`` (batch
        lanes) ride along in front of the result."""
        heads = [np.arange(d) for d in data.shape[:lead]]
        small = data[np.ix_(*heads, *self.vecs)]
        if self.perm is not None:
            small = small.transpose(
                tuple(range(lead)) + tuple(p + lead for p in self.perm)
            )
        if self.squeeze:
            small = small.squeeze(axis=_lead_axes(self.squeeze, lead))
        if self.expand:
            small = np.expand_dims(small, axis=_lead_axes(self.expand, lead))
        return np.broadcast_to(small, data.shape[:lead] + self.shape)


def _lead_axes(axes: Tuple[int, ...], lead: int) -> Tuple[int, ...]:
    """Grid axes shifted past ``lead`` leading (batch lane) axes."""
    return tuple(a + lead for a in axes) if lead else axes


#: verify take recipes on an index probe only below this grid size — the
#: construction is size-independent, so the small-grid differential
#: suites exercise it while big production grids skip the O(grid) compare
_VERIFY_LIMIT = 1 << 16


def _build_index_recipe(subs, view_shape, grid_shape) -> Optional[_IndexRecipe]:
    """Recipe from the *raw* subscript values (pre-clip).

    Working from the raw subs keeps axis_values broadcast views intact so
    ``_vary_axis`` can answer from strides alone; clipping then touches
    only the per-axis vectors instead of full grid-shaped arrays.
    """
    rank = len(grid_shape)
    vecs: List[np.ndarray] = []
    assoc: List[Optional[int]] = []
    used: set = set()
    for a, s in enumerate(subs):
        hi = view_shape[a] - 1
        if not isinstance(s, np.ndarray):
            vecs.append(np.asarray([min(max(int(s), 0), hi)], dtype=np.int64))
            assoc.append(None)
            continue
        sb = np.broadcast_to(s, grid_shape)
        g = _vary_axis(sb, used)
        if g is None:
            return None
        if g == -1:
            v = min(max(int(sb[(0,) * rank]), 0), hi)
            vecs.append(np.asarray([v], dtype=np.int64))
            assoc.append(None)
        else:
            used.add(g)
            slicer = tuple(slice(None) if k == g else 0 for k in range(rank))
            vec = np.clip(sb[slicer], 0, hi).astype(np.int64, copy=False)
            vecs.append(np.ascontiguousarray(vec))
            assoc.append(g)
    linked = sorted((g, a) for a, g in enumerate(assoc) if g is not None)
    perm = tuple(a for _g, a in linked) + tuple(
        a for a, g in enumerate(assoc) if g is None
    )
    perm_t: Optional[Tuple[int, ...]] = perm
    if perm == tuple(range(len(perm))):
        perm_t = None
    linked_gs = {g for g, _a in linked}
    squeeze = tuple(range(len(linked), len(assoc)))
    expand = tuple(g for g in range(rank) if g not in linked_gs)
    return _IndexRecipe(tuple(vecs), perm_t, squeeze, expand, tuple(grid_shape))


# ---------------------------------------------------------------------------
# the one subscript map
# ---------------------------------------------------------------------------


def _clip_subs(subs, view_shape, shape=None):
    """Subscripts clipped into the view, per axis, each broadcast to
    ``shape`` (by default arrays keep their own shape and scalars stay
    ints); broadcast (stride-0) axes of array subscripts stay
    unmaterialised."""
    out = []
    for a, s in enumerate(subs):
        hi = view_shape[a] - 1
        if not isinstance(s, np.ndarray):
            c = min(max(int(s), 0), hi)
            out.append(c if shape is None else np.broadcast_to(c, shape))
            continue
        c = np.clip(_condensed(s), 0, hi) if 0 in s.strides else np.clip(s, 0, hi)
        to = s.shape if shape is None else shape
        out.append(c if c.shape == to else np.broadcast_to(c, to))
    return out


def _out_of_bounds(subs, view_shape, grid_shape):
    """(grid mask of lanes indexing outside the view or None, whether a
    scalar subscript is out of range — then every lane is).

    Range checks run on the compact view (the underlying vector for
    broadcast subscripts); grid-shaped masks are built only for axes that
    actually hold out-of-range values.
    """
    bad = None
    always = False
    for a, s in enumerate(subs):
        ext = view_shape[a]
        if not isinstance(s, np.ndarray):
            always = always or not 0 <= int(s) < ext
            continue
        comp = _condensed(s)
        if comp.size and (int(comp.min()) < 0 or int(comp.max()) >= ext):
            sb = np.broadcast_to(s, grid_shape)
            axis_bad = (sb < 0) | (sb >= ext)
            bad = axis_bad if bad is None else bad | axis_bad
    if always:
        bad = np.broadcast_to(_TRUE, grid_shape)
    return bad, always


class RefMap:
    """How one static subscript tuple reaches memory.

    Every compiled array reference — plan gathers and scatters, solve
    readiness and ``defined`` marking, fused gather and scatter steps —
    holds the map :func:`ref_map` built for it and goes through
    :meth:`check`, :meth:`take` and :meth:`store`.  A read map holds one
    of a NEWS shift, a take recipe or clipped index arrays; a write map
    holds flat store indices, whether they are unique and whether they
    cover the view in storage order.  ``rc`` and ``tier`` record the
    caller's classification for replay (None for solve flags).
    """

    __slots__ = (
        "view_shape", "grid_shape", "rc", "tier", "oob", "always", "subs",
        "shift", "recipe", "idx", "flat", "unique", "dense", "nbytes",
    )

    def check(self, node: ast.Index, mask) -> None:
        """Raise the engines' bounds error if a lane ``mask`` enables
        (lead axes in front) indexes outside the view."""
        if self.oob is not None and (self.always or np.any(self.oob & mask)):
            E._bounds_check(node, self.subs, self.view_shape, mask)

    def take(self, data: np.ndarray, lead: int = 0, view_ok: bool = False):
        """The gathered values, ``lead`` leading axes of ``data`` (batch
        lanes) riding in front.  Always a fresh array, except that a take
        recipe hands out its readonly broadcast view when ``view_ok``."""
        if self.shift is not None:
            # NEWS tier: chained clamped shifts, bit-identical to the
            # clipped gather
            return commtiers.run_shifts(
                data, [(a + lead, s, e) for a, s, e in self.shift]
            )
        if self.recipe is not None:
            out = self.recipe.take(data, lead)
            return out if view_ok else out.copy()
        # index the lead axes explicitly rather than with a leading slice:
        # pure advanced indexing keeps the copy C-contiguous
        heads = tuple(
            np.arange(d).reshape((d,) + (1,) * len(self.grid_shape))
            for d in data.shape[:lead]
        )
        return data[heads + self.idx]

    def store(self, data: np.ndarray, value, mask: np.ndarray, node, construct=None):
        """Write ``value`` where ``mask`` (lead axes in front) enables,
        enforcing single assignment (§3.4); returns the flat indices
        written, or None for a dense full-mask copy."""
        if self.dense and isinstance(value, np.ndarray) and mask.all():
            # full-mask store in storage order: a cast copy, no fancy indexing
            vals = np.broadcast_to(value, mask.shape).reshape(data.shape)
            np.copyto(data, E._cast_array(vals, data.dtype))
            return None
        flat = self.flat
        n_lanes = mask.size // flat.size
        if n_lanes > 1:
            # per-lane flat indices offset into the stacked array: lane
            # blocks are disjoint, so unique solo indices stay unique
            view_size = data.size // n_lanes
            flat = (flat + (np.arange(n_lanes) * view_size)[:, None]).reshape(-1)
        flat_mask = mask.reshape(-1)
        flat_idx = flat[flat_mask]
        if isinstance(value, np.ndarray):
            vals = np.broadcast_to(value, mask.shape)[mask]
        else:
            vals = np.full(flat_idx.size, value)
        vals = E._cast_array(vals, data.dtype)
        if not self.unique:
            E._check_single_assignment(
                node,
                flat_idx,
                vals,
                grid_shape=self.grid_shape,
                flat_mask=flat_mask,
                view_shape=self.view_shape,
                construct=construct,
            )
        data.reshape(-1)[flat_idx] = vals
        return flat_idx


def _lower_read(subs, view_shape, grid_shape, idx, memo, compact):
    """(take recipe, index arrays) for a read no NEWS shift serves; exactly
    one of the two is set."""
    if not memo:
        return None, idx
    recipe = _build_index_recipe(subs, view_shape, grid_shape)
    if recipe is not None and math.prod(grid_shape) <= _VERIFY_LIMIT:
        # check positions, not values: a probe holding every element's own
        # flat index catches a wrong recipe even over all-equal data
        probe = np.arange(math.prod(view_shape)).reshape(view_shape)
        if not np.array_equal(recipe.take(probe), probe[idx]):
            recipe = None
    if compact:
        # grid axes no subscript varies along (spreads, broadcasts,
        # reduction operands): gather one representative slice and let
        # the consumer broadcast it
        keep = tuple(
            slice(0, 1)
            if n > 1 and not any(np.ptp(c, axis=g).any() for c in idx)
            else slice(None)
            for g, n in enumerate(grid_shape)
        )
        if any(k != slice(None) for k in keep):
            return None, tuple(np.ascontiguousarray(c[keep]) for c in idx)
    return (recipe, None) if recipe is not None else (None, idx)


def ref_map(
    subs, view_shape, grid_shape, *, rc=None, tier=None, write=False,
    memo=True, compact=False,
) -> RefMap:
    """Lower the raw (pre-clip) subscripts of one reference from a
    ``grid_shape`` grid into a ``view_shape`` array.

    Reads prefer the NEWS shift (``tier`` "news"), then a take recipe
    checked on an index probe, then clipped index arrays; with
    ``compact``, grid axes no subscript varies along keep one
    representative slice for the consumer to broadcast.  Writes get flat
    store indices.  A ``memo=False`` map serves one execution only:
    plain index arrays, no recipe, no uniqueness verdict.
    """
    m = RefMap()
    m.view_shape = view_shape
    m.grid_shape = grid_shape
    m.rc = rc
    m.tier = tier
    m.oob, m.always = _out_of_bounds(subs, view_shape, grid_shape)
    # only the bounds error message needs the raw subscripts
    m.subs = subs if m.oob is not None else None
    m.shift = m.recipe = m.idx = m.flat = None
    m.unique = m.dense = False
    idx = tuple(_clip_subs(subs, view_shape, grid_shape))
    if write:
        m.flat = np.ravel_multi_index(tuple(c.reshape(-1) for c in idx), view_shape)
        if memo:
            m.unique = bool(np.unique(m.flat).size == m.flat.size)
            m.dense = bool(
                m.flat.size == math.prod(view_shape)
                and np.array_equal(m.flat, np.arange(m.flat.size))
            )
    else:
        if memo and tier == "news":
            m.shift = commtiers.shift_descriptor(rc, view_shape, grid_shape)
        if m.shift is None:
            m.recipe, m.idx = _lower_read(
                subs, view_shape, grid_shape, idx, memo, compact
            )
    m.nbytes = _held_bytes(
        m.oob, m.subs, m.idx, m.flat, m.recipe.vecs if m.recipe else None
    )
    return m


# ---------------------------------------------------------------------------
# expression plans
# ---------------------------------------------------------------------------


class _CseWrapped:
    """The eval_expr CSE gate, replayed around a compiled expression."""

    __slots__ = ("node", "inner")

    def __init__(self, node: ast.Expr, inner) -> None:
        self.node = node
        self.inner = inner

    def __call__(self, ip, ctx: ExecContext):
        if ip.cse_cache is not None and not ctx.grid.is_host:
            cached = E._cse_lookup(ip, self.node, ctx)
            if cached is not E._CSE_MISS:
                return cached
            value = self.inner(ip, ctx)
            if isinstance(value, np.ndarray) and not value.flags.writeable:
                # never let a live view of array data into the CSE cache: a
                # later write in the same statement must not change the
                # cached value (the tree-walker caches materialised arrays)
                value = value.copy()
            E._cse_store(ip, self.node, ctx, value)
            return value
        return self.inner(ip, ctx)


class _ConstPlan:
    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __call__(self, ip, ctx: ExecContext):
        return self.value


class _NamePlan:
    __slots__ = ("node",)

    def __init__(self, node: ast.Name) -> None:
        self.node = node

    def __call__(self, ip, ctx: ExecContext):
        return E._eval_name(ip, self.node, ctx)


class _UnaryPlan:
    __slots__ = ("node", "operand", "names", "_memo")

    def __init__(self, node, operand, names) -> None:
        self.node = node
        self.operand = operand
        self.names = names
        self._memo = None

    def __call__(self, ip, ctx: ExecContext):
        node = self.node
        v = self.operand(ip, ctx)
        E.charge_grid_op(ip, ctx)
        if self.names is not None:
            sig = _binding_sig(self.names, ctx)
            m = self._memo
            if (
                m is not None
                and sig is not None
                and sig == m[1]
                and _axes_match(m[0], ctx.grid.axes)
            ):
                return m[2]
            value = self._apply(node, v)
            if sig is not None:
                self._memo = (ctx.grid.axes, sig, value)
            return value
        return self._apply(node, v)

    @staticmethod
    def _apply(node, v):
        if node.op == "-":
            return -v
        if node.op == "!":
            if isinstance(v, np.ndarray):
                return np.logical_not(v.astype(bool)).astype(np.int64)
            return int(not v)
        if node.op == "~":
            if isinstance(v, np.ndarray):
                return np.invert(v.astype(np.int64))
            return ~int(v)
        raise UCRuntimeError(f"bad unary {node.op!r}", node.line, node.col)


class _BinaryPlan:
    __slots__ = ("node", "left", "right", "names", "_memo")

    def __init__(self, node, left, right, names) -> None:
        self.node = node
        self.left = left
        self.right = right
        self.names = names
        self._memo = None

    def __call__(self, ip, ctx: ExecContext):
        node = self.node
        a = self.left(ip, ctx)
        b = self.right(ip, ctx)
        E.charge_grid_op(ip, ctx)
        if self.names is not None:
            sig = _binding_sig(self.names, ctx)
            m = self._memo
            if (
                m is not None
                and sig is not None
                and sig == m[1]
                and _axes_match(m[0], ctx.grid.axes)
            ):
                return m[2]
            value = E.apply_binop(node.op, a, b, node)
            if sig is not None:
                self._memo = (ctx.grid.axes, sig, value)
            return value
        return E.apply_binop(node.op, a, b, node)


class _ShortCircuitPlan:
    __slots__ = ("node", "left", "right", "names", "_memo")

    def __init__(self, node, left, right, names) -> None:
        self.node = node
        self.left = left
        self.right = right
        self.names = names
        self._memo = None

    def __call__(self, ip, ctx: ExecContext):
        expr = self.node
        left = self.left(ip, ctx)
        E.charge_grid_op(ip, ctx)
        if not isinstance(left, np.ndarray):
            if expr.op == "&&" and not left:
                return 0
            if expr.op == "||" and left:
                return 1
            right = E._truthy(self.right(ip, ctx))
            if isinstance(right, np.ndarray):
                return right.astype(np.int64)
            return int(right)
        lbool = np.broadcast_to(np.asarray(E._truthy(left)), ctx.grid.shape)
        live = lbool if expr.op == "&&" else ~lbool
        sub = ctx.refine(live)
        right = self.right(ip, sub)
        if self.names is not None:
            sig = _binding_sig(self.names, ctx)
            m = self._memo
            if (
                m is not None
                and sig is not None
                and sig == m[1]
                and _axes_match(m[0], ctx.grid.axes)
            ):
                return m[2]
            value = self._combine(expr, lbool, right, ctx)
            if sig is not None:
                self._memo = (ctx.grid.axes, sig, value)
            return value
        return self._combine(expr, lbool, right, ctx)

    @staticmethod
    def _combine(expr, lbool, right, ctx):
        rbool = np.broadcast_to(np.asarray(E._truthy(right)), ctx.grid.shape)
        if expr.op == "&&":
            return (lbool & rbool).astype(np.int64)
        return (lbool | rbool).astype(np.int64)


class _TernaryPlan:
    __slots__ = ("node", "cond", "then", "els", "names", "_memo")

    def __init__(self, node, cond, then, els, names) -> None:
        self.node = node
        self.cond = cond
        self.then = then
        self.els = els
        self.names = names
        self._memo = None

    def __call__(self, ip, ctx: ExecContext):
        cond = self.cond(ip, ctx)
        if ctx.grid.is_host or not isinstance(cond, np.ndarray):
            E.charge_grid_op(ip, ctx)
            return self.then(ip, ctx) if cond else self.els(ip, ctx)
        cbool = np.broadcast_to(np.asarray(E._truthy(cond)), ctx.grid.shape)
        then_v = self.then(ip, ctx.refine(cbool))
        else_v = self.els(ip, ctx.refine(~cbool))
        E.charge_grid_op(ip, ctx, count=2)
        if self.names is not None:
            sig = _binding_sig(self.names, ctx)
            m = self._memo
            if (
                m is not None
                and sig is not None
                and sig == m[1]
                and _axes_match(m[0], ctx.grid.axes)
            ):
                return m[2]
            value = np.where(cbool, then_v, else_v)
            if sig is not None:
                self._memo = (ctx.grid.axes, sig, value)
            return value
        return np.where(cbool, then_v, else_v)


def _log_tier(ip, node, tier: str) -> None:
    if ip.tier_log is not None:
        ip.tier_log.setdefault((node.line, node.base), set()).add(tier)


def _view(ip, node: ast.Index, ctx: ExecContext):
    """(array, the data view ``node`` indexes, whether its maps may be
    memoised); raises the engines' subscript-count error."""
    binding = ctx.env.lookup(node.base)
    if isinstance(binding, ArrayVar):
        arr, data, direct = binding, binding.data, True
    else:
        arr, _prefix, data = E._resolve_array(ip, node, ctx)
        direct = False
    if len(node.subs) != data.ndim:
        raise UCRuntimeError(
            f"array {node.base!r} needs {data.ndim} subscripts, got "
            f"{len(node.subs)}",
            node.line,
            node.col,
        )
    return arr, data, direct


class _RefPlan:
    """One compiled array reference: its subscript plans and a bounded
    table of :class:`RefMap` memos."""

    __slots__ = ("node", "subs", "names", "_memo")

    def __init__(self, node: ast.Index, view_ok: bool = False) -> None:
        self.node = node
        self.subs = [compile_expr(s, view_ok) for s in node.subs]
        self.names = _joint_static_names(node.subs)
        self._memo = _MemoTable()

    def _charged_map(self, ip, ctx, arr, data, direct, subs, write) -> RefMap:
        """The reference's map, bounds-checked and charged for this
        execution.  A miss classifies the subscripts; the router-only
        ablation services remote reads by the full general gather every
        sweep, exactly as the tree-walker does — no recipe, no memo."""
        node = self.node
        key = (
            _memo_key(self.names, ctx, arr.layout, data.shape, data.dtype)
            if direct
            else None
        )
        m = self._memo.get(key) if key is not None else None
        if m is None:
            classify = classify_write if write else classify_reference
            grid = ctx.grid
            rc = classify(
                subs, grid.shape, grid.axis_elems, arr.layout, positions=grid.positions
            )
            tier = commtiers.decide_tier(
                rc, ip.machine.clock.costs, write=write, enabled=ip.comm_tiers_enabled
            )
            memo = key is not None and (
                write or ip.comm_tiers_enabled or tier == "local"
            )
            m = ref_map(
                subs, data.shape, grid.shape, rc=rc, tier=tier, write=write, memo=memo
            )
            if memo:
                self._memo.put(key, m)
        m.check(node, ctx.active_mask())
        commtiers.charge_tier(ip, ctx, m.tier, m.rc, write=write, layout=arr.layout)
        _log_tier(ip, node, m.tier)
        return m

    def _flag_map(self, ip, ctx, flags: np.ndarray, write: bool) -> RefMap:
        """The map into solve's ``defined`` flags (no charges, no checks:
        out-of-range lanes read as undefined and mark clipped)."""
        subs = [p(ip, ctx) for p in self.subs]
        key = _memo_key(self.names, ctx, flags.shape)
        m = self._memo.get(key) if key is not None else None
        if m is None:
            m = ref_map(
                subs, flags.shape, ctx.grid.shape, write=write, memo=key is not None
            )
            if key is not None:
                self._memo.put(key, m)
        return m


class _GatherPlan(_RefPlan):
    __slots__ = ("view_ok",)

    def __init__(self, node: ast.Index, view_ok: bool) -> None:
        super().__init__(node, view_ok)
        self.view_ok = view_ok

    def __call__(self, ip, ctx: ExecContext):
        node = self.node
        arr, data, direct = _view(ip, node, ctx)
        subs = [p(ip, ctx) for p in self.subs]
        if ctx.grid.is_host:
            idx = tuple(int(s) for s in subs)
            E._bounds_check(node, subs, data.shape, np.ones((), bool))
            ip.machine.clock.charge("host_cm_latency")
            return data[idx].item()
        m = self._charged_map(ip, ctx, arr, data, direct, subs, write=False)
        return m.take(data, view_ok=self.view_ok)


class _ScatterPlan(_RefPlan):
    __slots__ = ()

    def __call__(self, ip, value, ctx: ExecContext) -> None:
        node = self.node
        arr, data, direct = _view(ip, node, ctx)
        subs = [p(ip, ctx) for p in self.subs]
        if ctx.grid.is_host:
            idx = tuple(int(s) for s in subs)
            E._bounds_check(node, subs, data.shape, np.ones((), bool))
            ip.machine.clock.charge("host_cm_latency")
            data[idx] = E._coerce_to_dtype(value, data.dtype)
            ip.cse_invalidate(node.base)
            return
        mask = ctx.active_mask()
        if not np.any(mask):
            return
        m = self._charged_map(ip, ctx, arr, data, direct, subs, write=True)
        written = m.store(
            data, value, mask, node, getattr(ip, "current_construct", None)
        )
        if getattr(ip, "sanitizer", None) is not None:
            ip.sanitizer.record_write(
                node,
                (not m.unique) and bool(np.unique(written).size < written.size),
            )
        ip.cse_invalidate(node.base)


class _AssignPlan:
    __slots__ = ("node", "value", "read", "scatter")

    def __init__(self, node, value, read, scatter) -> None:
        self.node = node
        self.value = value
        self.read = read
        self.scatter = scatter

    def __call__(self, ip, ctx: ExecContext):
        node = self.node
        value = self.value(ip, ctx)
        if node.op:
            current = self.read(ip, ctx)
            E.charge_grid_op(ip, ctx)
            value = E.apply_binop(node.op, current, value, node)
        if self.scatter is not None:
            self.scatter(ip, value, ctx)
            return value
        target = node.target
        assert isinstance(target, ast.Name)
        binding = ctx.env.lookup(target.ident)
        if isinstance(binding, ScalarVar):
            E._assign_scalar(ip, binding, value, ctx, node)
            return value
        if isinstance(binding, ParallelLocal):
            E._assign_parallel_local(ip, binding, value, ctx, node)
            return value
        if isinstance(binding, ElementBinding):
            raise UCRuntimeError(
                f"cannot assign to index element {target.ident!r}",
                node.line,
                node.col,
            )
        raise UCRuntimeError(
            f"cannot assign to {target.ident!r}", node.line, node.col
        )


class _CallPlan:
    """Compiled pure builtins and ``rand``; everything else delegates
    verbatim."""

    __slots__ = ("node", "args", "builtin")

    def __init__(self, node, args) -> None:
        from .functions import PURE_BUILTINS

        self.node = node
        self.args = args
        builtin = PURE_BUILTINS.get(node.func)
        if builtin is not None and builtin.arity == len(args):
            self.builtin = builtin
        elif node.func == "rand" and not args:
            self.builtin = "rand"
        else:
            self.builtin = None

    def __call__(self, ip, ctx: ExecContext):
        node = self.node
        builtin = self.builtin
        if builtin is None or ip.info.functions.get(node.func) is not None:
            return ip.call_function(node, ctx)
        if builtin == "rand":
            from .functions import RAND_MAX

            E.charge_grid_op(ip, ctx)
            if ctx.grid.is_host:
                return int(ip.rng.integers(0, RAND_MAX))
            return ip.rng.integers(0, RAND_MAX, size=ctx.grid.shape)
        args = [a(ip, ctx) for a in self.args]
        E.charge_grid_op(ip, ctx, count=builtin.alu)
        return builtin.value(node, *args)


class _SwapPlan:
    """``swap(x[..], y[..])``: both gathers, then both scatters, in the
    order of :func:`repro.interp.functions._builtin_swap` (which stays
    the tree oracle, and still serves a user ``swap`` and host calls)."""

    __slots__ = ("node", "reads", "writes")

    def __init__(self, node) -> None:
        self.node = node
        self.reads = tuple(_GatherPlan(a, False) for a in node.args)
        self.writes = tuple(_ScatterPlan(a) for a in node.args)

    def __call__(self, ip, ctx: ExecContext):
        node = self.node
        if ctx.grid.is_host or ip.info.functions.get(node.func) is not None:
            return ip.call_function(node, ctx)
        read_x, read_y = self.reads
        write_x, write_y = self.writes
        x = read_x(ip, ctx)
        y = read_y(ip, ctx)
        write_x(ip, y, ctx)
        write_y(ip, x, ctx)
        return 0


class _ReductionPlan:
    __slots__ = ("node", "arms", "others")

    def __init__(self, node, arms, others) -> None:
        self.node = node
        self.arms = arms  # [(pred_plan|None, expr_plan)]
        self.others = others

    def __call__(self, ip, ctx: ExecContext):
        node = self.node
        if ip.processor_opt:
            from .sendreduce import try_send_reduce

            optimized = try_send_reduce(ip, node, ctx)
            if optimized is not None:
                return optimized
        sets = [ip.resolve_index_set(name, ctx, at=node) for name in node.index_sets]
        inner_grid = ctx.grid.extend(sets)
        inner_env = ctx.env.child()
        for offset, isv in enumerate(sets):
            axis = ctx.grid.rank + offset
            inner_env.declare(
                isv.elem_name,
                ElementBinding(isv.elem_name, isv.name, "axis", axis=axis),
            )
        parent_mask = ctx.mask
        if parent_mask is not None:
            base_mask = np.broadcast_to(
                parent_mask.reshape(parent_mask.shape + (1,) * len(sets)),
                inner_grid.shape,
            )
        else:
            base_mask = inner_grid.full_mask()
        inner = ExecContext(inner_grid, base_mask, inner_env)

        reduce_axes = tuple(range(ctx.grid.rank, inner_grid.rank))
        reduce_extent = int(np.prod([len(s) for s in sets]))
        vps = ip.grid_vpset(inner_grid.shape)
        ip.machine.clock.charge_scan(reduce_extent, vp_ratio=vps.vp_ratio)
        if node.op != "arbitrary":
            # shard accounting consults the UC5xx verdict (see eval_expr)
            ip.machine.clock.note_shard_reduce(
                node.op,
                ip.reduction_order_safe(node),
                reduce_extent,
                vps.vp_ratio,
                inner_grid.shape,
            )
        if ctx.grid.is_host:
            ip.machine.clock.charge("host_cm_latency")

        arm_values: List[np.ndarray] = []
        arm_masks: List[np.ndarray] = []
        pred_union: Optional[np.ndarray] = None
        for pred_plan, expr_plan in self.arms:
            if pred_plan is None:
                arm_mask = base_mask
            else:
                pred_v = pred_plan(ip, inner)
                pv = np.broadcast_to(np.asarray(E._truthy(pred_v)), inner_grid.shape)
                arm_mask = base_mask & pv
                pred_union = pv if pred_union is None else (pred_union | pv)
            val = expr_plan(ip, inner.with_mask(arm_mask))
            arm_values.append(np.broadcast_to(np.asarray(val), inner_grid.shape))
            arm_masks.append(arm_mask)
        if self.others is not None:
            others_mask = base_mask & (
                ~pred_union
                if pred_union is not None
                else np.zeros(inner_grid.shape, bool)
            )
            val = self.others(ip, inner.with_mask(others_mask))
            arm_values.append(np.broadcast_to(np.asarray(val), inner_grid.shape))
            arm_masks.append(others_mask)

        if node.op == "arbitrary":
            result = E._reduce_arbitrary(ip, arm_values, arm_masks, reduce_axes, ctx)
        else:
            result = E._reduce_op(node.op, arm_values, arm_masks, reduce_axes)
            if getattr(ip, "sanitizer", None) is not None:
                ip.sanitizer.check_reduction(
                    node, arm_values, arm_masks, reduce_axes, result
                )

        if ctx.grid.is_host:
            return (
                result.item()
                if isinstance(result, np.ndarray) and result.ndim == 0
                else result
            )
        return result


class _RaisePlan:
    __slots__ = ("node",)

    def __init__(self, node) -> None:
        self.node = node

    def __call__(self, ip, ctx: ExecContext):
        raise UCRuntimeError(
            f"cannot evaluate {type(self.node).__name__}",
            self.node.line,
            self.node.col,
        )


# ---------------------------------------------------------------------------
# expression compilation
# ---------------------------------------------------------------------------


def compile_expr(node: ast.Expr, view_ok: bool = False):
    """Compile one expression into a closure ``(ip, ctx) -> value``."""
    inner = _compile_inner(node, view_ok)
    if isinstance(node, (ast.Binary, ast.Index, ast.Unary, ast.Ternary)):
        return _CseWrapped(node, inner)
    return inner


def _compile_inner(node: ast.Expr, view_ok: bool):
    if isinstance(node, ast.IntLit):
        return _ConstPlan(node.value)
    if isinstance(node, ast.FloatLit):
        return _ConstPlan(node.value)
    if isinstance(node, ast.InfLit):
        return _ConstPlan(INF)
    if isinstance(node, ast.StringLit):
        return _ConstPlan(node.value)
    if isinstance(node, ast.Name):
        return _NamePlan(node)
    if isinstance(node, ast.Index):
        return _GatherPlan(node, view_ok)
    if isinstance(node, ast.Unary):
        return _UnaryPlan(
            node, compile_expr(node.operand, view_ok), _static_names(node)
        )
    if isinstance(node, ast.Binary):
        left = compile_expr(node.left, view_ok)
        right = compile_expr(node.right, view_ok)
        if node.op in ("&&", "||"):
            return _ShortCircuitPlan(node, left, right, _static_names(node))
        return _BinaryPlan(node, left, right, _static_names(node))
    if isinstance(node, ast.Ternary):
        return _TernaryPlan(
            node,
            compile_expr(node.cond, view_ok),
            compile_expr(node.then, view_ok),
            compile_expr(node.els, view_ok),
            _static_names(node),
        )
    if isinstance(node, ast.Call):
        if (
            node.func == "swap"
            and len(node.args) == 2
            and all(isinstance(a, ast.Index) for a in node.args)
        ):
            return _SwapPlan(node)
        return _CallPlan(node, [compile_expr(a) for a in node.args])
    if isinstance(node, ast.Reduction):
        pure = not any(
            isinstance(n, (ast.Call, ast.Assign, ast.IncDec))
            for n in ast.walk(node)
        )
        arms = [
            (
                compile_expr(arm.pred, pure) if arm.pred is not None else None,
                compile_expr(arm.expr, pure),
            )
            for arm in node.arms
        ]
        others = (
            compile_expr(node.others, pure) if node.others is not None else None
        )
        return _ReductionPlan(node, arms, others)
    if isinstance(node, ast.Assign):
        return _compile_assign(node)
    if isinstance(node, ast.IncDec):
        one = ast.IntLit(line=node.line, col=node.col, value=1)
        synth = ast.Assign(
            line=node.line,
            col=node.col,
            target=node.target,
            op="+" if node.op == "++" else "-",
            value=one,
        )
        return _compile_assign(synth)
    return _RaisePlan(node)


def _compile_assign(node: ast.Assign):
    value = compile_expr(node.value)
    read = compile_expr(node.target) if node.op else None
    scatter = None
    if isinstance(node.target, ast.Index):
        scatter = _ScatterPlan(node.target)
    return _AssignPlan(node, value, read, scatter)


# ---------------------------------------------------------------------------
# statement plans
# ---------------------------------------------------------------------------


class _BlockPlan:
    __slots__ = ("stmts",)

    def __init__(self, stmts) -> None:
        self.stmts = stmts

    def __call__(self, ip, ctx: ExecContext) -> None:
        inner = ctx.with_env(ctx.env.child())
        for p in self.stmts:
            p(ip, inner)


class _StmtSeqPlan:
    """DeclGroup: statements run in the *same* scope (no child env)."""

    __slots__ = ("stmts",)

    def __init__(self, stmts) -> None:
        self.stmts = stmts

    def __call__(self, ip, ctx: ExecContext) -> None:
        for p in self.stmts:
            p(ip, ctx)


class _ExprStmtPlan:
    __slots__ = ("expr",)

    def __init__(self, expr) -> None:
        self.expr = expr

    def __call__(self, ip, ctx: ExecContext) -> None:
        self.expr(ip, ctx)


class _NoopPlan:
    __slots__ = ()

    def __call__(self, ip, ctx: ExecContext) -> None:
        return None


class _IfPlan:
    __slots__ = ("cond", "then", "els")

    def __init__(self, cond, then, els) -> None:
        self.cond = cond
        self.then = then
        self.els = els

    def __call__(self, ip, ctx: ExecContext) -> None:
        cond = self.cond(ip, ctx)
        if not isinstance(cond, np.ndarray):
            E.charge_grid_op(ip, ctx)
            if cond:
                self.then(ip, ctx)
            elif self.els is not None:
                self.els(ip, ctx)
            return
        cbool = np.broadcast_to(np.asarray(E._truthy(cond)), ctx.grid.shape)
        vps = ip.grid_vpset(ctx.grid.shape)
        ip.machine.clock.charge("context", count=2, vp_ratio=vps.vp_ratio)
        then_ctx = ctx.refine(cbool)
        if np.any(then_ctx.active_mask()):
            self.then(ip, then_ctx)
        if self.els is not None:
            else_ctx = ctx.refine(~cbool)
            if np.any(else_ctx.active_mask()):
                self.els(ip, else_ctx)


class _FallbackStmt:
    """Anything with its own machinery (loops, decls, nested constructs)
    goes back through the tree-walker; nested constructs then fetch their
    *own* plans from the cache."""

    __slots__ = ("node",)

    def __init__(self, node) -> None:
        self.node = node

    def __call__(self, ip, ctx: ExecContext) -> None:
        from .statements import exec_stmt

        exec_stmt(ip, self.node, ctx)


def compile_stmt(node: ast.Stmt):
    if isinstance(node, ast.Block):
        return _BlockPlan([compile_stmt(s) for s in node.stmts])
    if isinstance(node, ast.DeclGroup):
        return _StmtSeqPlan([compile_stmt(s) for s in node.decls])
    if isinstance(node, ast.ExprStmt):
        return _ExprStmtPlan(compile_expr(node.expr))
    if isinstance(node, ast.EmptyStmt):
        return _NoopPlan()
    if isinstance(node, ast.If):
        return _IfPlan(
            compile_expr(node.cond),
            compile_stmt(node.then),
            compile_stmt(node.els) if node.els is not None else None,
        )
    return _FallbackStmt(node)


class ConstructPlan:
    """Per-arm predicate and body plans for one par/seq/oneof statement."""

    __slots__ = ("preds", "stmts", "others")

    def __init__(self, preds, stmts, others) -> None:
        self.preds = preds
        self.stmts = stmts
        self.others = others


def compile_construct(stmt: ast.UCStmt) -> ConstructPlan:
    preds = [
        compile_expr(b.pred) if b.pred is not None else None for b in stmt.blocks
    ]
    stmts = [compile_stmt(b.stmt) for b in stmt.blocks]
    others = compile_stmt(stmt.others) if stmt.others is not None else None
    return ConstructPlan(preds, stmts, others)


# ---------------------------------------------------------------------------
# solve: readiness / mark-defined / per-assignment plans
# ---------------------------------------------------------------------------


class _ReadyTrue:
    __slots__ = ()

    def __call__(self, ip, ctx: ExecContext, defined) -> np.ndarray:
        return np.broadcast_to(_TRUE, ctx.grid.shape)


class _ReadyIndex(_RefPlan):
    __slots__ = ()

    def __call__(self, ip, ctx: ExecContext, defined) -> np.ndarray:
        node = self.node
        if node.base not in defined:
            return np.broadcast_to(_TRUE, ctx.grid.shape)
        flags = defined[node.base]
        m = self._flag_map(ip, ctx, flags, write=False)
        got = m.take(flags, view_ok=True)
        return got if m.oob is None else got & ~m.oob


class _ReadyAnd:
    __slots__ = ("left", "right")

    def __init__(self, left, right) -> None:
        self.left = left
        self.right = right

    def __call__(self, ip, ctx: ExecContext, defined) -> np.ndarray:
        return self.left(ip, ctx, defined) & self.right(ip, ctx, defined)


class _ReadyTernary:
    __slots__ = ("cond_ready", "cond", "then_ready", "else_ready")

    def __init__(self, cond_ready, cond, then_ready, else_ready) -> None:
        self.cond_ready = cond_ready
        self.cond = cond
        self.then_ready = then_ready
        self.else_ready = else_ready

    def __call__(self, ip, ctx: ExecContext, defined) -> np.ndarray:
        shape = ctx.grid.shape
        rc = self.cond_ready(ip, ctx, defined)
        cond = self.cond(ip, ctx)
        cb = np.broadcast_to(np.asarray(E._truthy(cond)), shape)
        rt = self.then_ready(ip, ctx.refine(cb), defined)
        re_ = self.else_ready(ip, ctx.refine(~cb), defined)
        return rc & np.where(cb, rt, re_)


class _ReadyAll:
    __slots__ = ("parts",)

    def __init__(self, parts) -> None:
        self.parts = parts

    def __call__(self, ip, ctx: ExecContext, defined) -> np.ndarray:
        out = np.ones(ctx.grid.shape, dtype=bool)
        for p in self.parts:
            out = out & p(ip, ctx, defined)
        return out


class _ReadyReduction:
    __slots__ = ("node", "arms", "others")

    def __init__(self, node, arms, others) -> None:
        self.node = node
        self.arms = arms  # [(pred_ready|None, expr_ready)]
        self.others = others

    def __call__(self, ip, ctx: ExecContext, defined) -> np.ndarray:
        node = self.node
        sets = [ip.resolve_index_set(name, ctx, at=node) for name in node.index_sets]
        inner_grid = ctx.grid.extend(sets)
        env = ctx.env.child()
        for off, isv in enumerate(sets):
            env.declare(
                isv.elem_name,
                ElementBinding(
                    isv.elem_name, isv.name, "axis", axis=ctx.grid.rank + off
                ),
            )
        mask = ctx.active_mask()
        bmask = np.broadcast_to(
            mask.reshape(mask.shape + (1,) * len(sets)), inner_grid.shape
        )
        inner = ExecContext(inner_grid, bmask, env)
        ready = np.ones(inner_grid.shape, dtype=bool)
        for pred_ready, expr_ready in self.arms:
            if pred_ready is not None:
                ready &= pred_ready(ip, inner, defined)
            ready &= expr_ready(ip, inner, defined)
        if self.others is not None:
            ready &= self.others(ip, inner, defined)
        axes = tuple(range(ctx.grid.rank, inner_grid.rank))
        return ready.all(axis=axes)


class _ReadyRaise:
    __slots__ = ("node",)

    def __init__(self, node) -> None:
        self.node = node

    def __call__(self, ip, ctx: ExecContext, defined) -> np.ndarray:
        raise UCRuntimeError(
            f"solve cannot analyse {type(self.node).__name__}",
            self.node.line,
            self.node.col,
        )


def compile_readiness(node: ast.Expr):
    """Compile the readiness analysis of :func:`repro.interp.solve._readiness`."""
    if isinstance(
        node, (ast.IntLit, ast.FloatLit, ast.InfLit, ast.Name, ast.StringLit)
    ):
        return _ReadyTrue()
    if isinstance(node, ast.Index):
        return _ReadyIndex(node)
    if isinstance(node, ast.Unary):
        return compile_readiness(node.operand)
    if isinstance(node, ast.Binary):
        return _ReadyAnd(
            compile_readiness(node.left), compile_readiness(node.right)
        )
    if isinstance(node, ast.Ternary):
        return _ReadyTernary(
            compile_readiness(node.cond),
            compile_expr(node.cond),
            compile_readiness(node.then),
            compile_readiness(node.els),
        )
    if isinstance(node, ast.Call):
        return _ReadyAll([compile_readiness(a) for a in node.args])
    if isinstance(node, ast.Reduction):
        arms = [
            (
                compile_readiness(arm.pred) if arm.pred is not None else None,
                compile_readiness(arm.expr),
            )
            for arm in node.arms
        ]
        others = (
            compile_readiness(node.others) if node.others is not None else None
        )
        return _ReadyReduction(node, arms, others)
    return _ReadyRaise(node)


class _MarkNamePlan:
    __slots__ = ("ident",)

    def __init__(self, ident: str) -> None:
        self.ident = ident

    def __call__(self, ip, ctx: ExecContext, defined) -> None:
        mask = ctx.active_mask()
        if np.any(mask):
            defined[self.ident][...] = True


class _MarkIndexPlan(_RefPlan):
    __slots__ = ()

    def __call__(self, ip, ctx: ExecContext, defined) -> None:
        flags = defined[self.node.base]
        m = self._flag_map(ip, ctx, flags, write=True)
        m.store(flags, True, ctx.active_mask(), self.node)


def _compile_mark(target: ast.Expr):
    if isinstance(target, ast.Name):
        return _MarkNamePlan(target.ident)
    assert isinstance(target, ast.Index)
    return _MarkIndexPlan(target)


class SolveAssignPlan:
    """Compiled pieces of one guarded-solve assignment."""

    __slots__ = ("pred", "assign", "readiness", "mark")

    def __init__(self, pred, assign, readiness, mark) -> None:
        self.pred = pred
        self.assign = assign
        self.readiness = readiness
        self.mark = mark


def compile_solve_assignments(assignments) -> List[SolveAssignPlan]:
    plans = []
    for pred, assign in assignments:
        plans.append(
            SolveAssignPlan(
                compile_expr(pred) if pred is not None else None,
                compile_expr(assign),
                compile_readiness(assign.value),
                _compile_mark(assign.target),
            )
        )
    return plans


def compile_sched_steps(assignments):
    """(pred plan | None, assign plan) per scheduled-solve assignment."""
    return [
        (
            compile_expr(pred) if pred is not None else None,
            compile_expr(assign),
        )
        for pred, assign in assignments
    ]


# ---------------------------------------------------------------------------
# frontier-restricted recipes
# ---------------------------------------------------------------------------
#
# The frontier engine (:mod:`repro.interp.frontier`) evaluates compressed
# sweeps over *lane vectors* — the active subset of the grid — instead of
# grid-shaped arrays.  These two helpers are the lane-space analogues of
# the ``np.ix_`` take recipes above: same bounds-check messages, same
# clipped-gather semantics, same value casting, but indexed by the active
# lanes only, so a sweep touching L of N lanes moves O(L) data.


def lane_gather(data: np.ndarray, subs, node: ast.Index, live: np.ndarray) -> np.ndarray:
    """Gather ``data`` at per-lane subscripts (ints or lane arrays).

    Mirrors :func:`repro.interp.eval_expr.eval_gather`: array subscripts
    are bounds-checked under the ``live`` refinement mask, scalar
    subscripts unconditionally (identical messages), and guarded
    out-of-range lanes read clipped.
    """
    E._bounds_check(node, subs, data.shape, live)
    return data[tuple(_clip_subs(subs, data.shape))]


def lane_scatter(data: np.ndarray, subs, value, node: ast.Index):
    """Scatter ``value`` into ``data`` at per-lane subscripts.

    All lanes are active writers (the frontier engine has already applied
    the predicate), and the caller guarantees distinct slots (identity
    target subscripts over distinct axis values), so the §3.4
    single-assignment collision check is vacuous and skipped.  Returns
    ``(changed, old, new)`` lane vectors — the change mask seeds the next
    sweep's frontier and the old/new pair tracks reduction direction.
    """
    n = int(subs[0].size) if subs else 0
    E._bounds_check(node, subs, data.shape, _TRUE)
    if isinstance(value, np.ndarray):
        vals = np.broadcast_to(value, (n,))
    else:
        vals = np.full(n, value)
    new = E._cast_array(vals, data.dtype)
    where = tuple(subs)
    old = data[where].copy()
    data[where] = new
    changed = old != new
    return changed, old, new
