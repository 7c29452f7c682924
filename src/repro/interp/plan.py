"""Memoised reference maps: what the walker caches about array references.

The evaluator in :mod:`repro.interp.eval_expr` is the one expression and
statement walker.  Most of what it re-derives on every sweep of an
iterated construct is cheap, but an array reference is not: reference
classification (``classify_reference`` walks every subscript), the tier
decision, subscript clipping and broadcasting, bounds masks and flat
store indices.  With plans on (``UCProgram(plans=True)``, the default),
:func:`charged_map` and :func:`flag_map` cache that derivation per
``ast.Index`` node, in a :class:`RefMemo` held by the interpreter's plan
cache under kind ``"ref"``; ``plans=False`` or ``REPRO_NO_PLANS=1``
leaves the walker memo-free, as the differential reference.

A memo never skips operand evaluation: the walker evaluates (and
charges) every subscript, and the memo only replaces the classification
and the index lowering once the subscripts are known static.  An entry
is valid only when the grid axes match and the free names resolve to
the same axis/constant bindings (re-checked every execution: cheap dict
lookups guard against shadowing).  Entries live in a bounded per-node
table (:class:`_MemoTable`) keyed additionally on the access direction
and the array's layout, view shape and dtype — never on the
:class:`ArrayVar` — so they serve every ``seq`` step and every later run
of the program through a shared compile store.

Every memoised reference — gathers, scatters, the ``swap`` builtin, solve
readiness and ``defined`` marking — lowers its static subscripts through
one :class:`RefMap` (built by :func:`ref_map`), which the fused register
programs of :mod:`repro.interp.fuse` share.  A read map holds a NEWS
shift, an ``np.ix_`` *take recipe* or clipped index arrays: a take recipe
collapses an N-d fancy gather over the grid to a take over one vector per
varying axis plus a broadcast, which is the big win for ``solve`` sweeps
(e.g. ``dist[i][k]`` over an (i,j,k) grid: a 64×64 take instead of a 64³
gather).  Inside pure reductions the broadcast *view* is returned
directly (``view_ok``); the reduction materialises it before any write
can occur, and the CSE cache stores a copy.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..lang import ast
from ..mapping.locality import classify_reference, classify_write
from . import commtiers
from . import eval_expr as E
from .values import ElementBinding

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


def _binding_sig(names: Optional[Tuple[str, ...]], ctx):
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
    """The memos of one reference node, keyed by what they depend on.

    Memos live in a shared compile store, so one table serves every
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


def _memo_key(names, ctx, *where):
    """Memo key of one array reference, or None when it is not static.

    The subscripts are fixed by the binding signature and the grid axes;
    the classification, tier and index recipes then depend only on
    ``where`` — the access direction and the array's layout, view shape
    and dtype (for solve's ``defined`` flags, their shape).  The machine cost table and engine
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

    Every memoised array reference — the walker's gathers and scatters,
    solve readiness and ``defined`` marking, fused gather and scatter
    steps —
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
# per-reference memos
# ---------------------------------------------------------------------------


class RefMemo:
    """The memos of one ``ast.Index`` node: the free names its subscripts
    are static in (None when some subscript is not static) and a bounded
    table of the :class:`RefMap` entries built for it."""

    __slots__ = ("names", "table")

    def __init__(self, node: ast.Index) -> None:
        self.names = _joint_static_names(node.subs)
        self.table = _MemoTable()


def charged_map(ip, node: ast.Index, ctx, arr, data, direct, subs, write) -> RefMap:
    """The map of one array reference, bounds-checked and charged for this
    execution.

    ``direct`` says the reference indexes a whole program array (not a
    slice parameter), so its maps may be memoised.  A miss classifies
    the subscripts; the router-only ablation services remote reads by
    the full general gather every sweep, exactly as the memo-free walker
    does — no recipe, no memo.
    """
    key = None
    if direct:
        memo = ip.plan_cache.get_or_build("ref", node, None, lambda: RefMemo(node))
        key = _memo_key(memo.names, ctx, write, arr.layout, data.shape, data.dtype)
    m = memo.table.get(key) if key is not None else None
    if m is None:
        classify = classify_write if write else classify_reference
        grid = ctx.grid
        rc = classify(
            subs, grid.shape, grid.axis_elems, arr.layout, positions=grid.positions
        )
        tier = commtiers.decide_tier(
            rc, ip.machine.clock.costs, write=write, enabled=ip.comm_tiers_enabled
        )
        keep = key is not None and (write or ip.comm_tiers_enabled or tier == "local")
        m = ref_map(
            subs, data.shape, grid.shape, rc=rc, tier=tier, write=write, memo=keep
        )
        if keep:
            memo.table.put(key, m)
    m.check(node, ctx.active_mask())
    commtiers.charge_tier(ip, ctx, m.tier, m.rc, write=write, layout=arr.layout)
    if ip.tier_log is not None:
        ip.tier_log.setdefault((node.line, node.base), set()).add(m.tier)
    return m


def flag_map(ip, node: ast.Index, ctx, flags: np.ndarray, subs, write) -> RefMap:
    """The map of one reference into solve's ``defined`` flags (no
    charges, no checks: out-of-range lanes read as undefined and mark
    clipped)."""
    memo = ip.plan_cache.get_or_build("ref", node, None, lambda: RefMemo(node))
    key = _memo_key(memo.names, ctx, write, flags.shape)
    m = memo.table.get(key) if key is not None else None
    if m is None:
        m = ref_map(subs, flags.shape, ctx.grid.shape, write=write, memo=key is not None)
        if key is not None:
            memo.table.put(key, m)
    return m


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
