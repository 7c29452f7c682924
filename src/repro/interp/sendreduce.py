"""The processor optimization's execution path (paper §4).

For a reduction whose predicate partitions the operands across results —
the paper's digit-count example

    par (J)
        count[j] = $+(I st (samples[i] == j) 1);

— the naive implementation evaluates on the |J|×|I| product grid and
scans; the optimized one runs on the |I| operand grid alone: each operand
VP computes its target address (``samples[i]``) and its contribution, and
one router *send with combining* delivers all results at once.  The VP
requirement drops from ``|J|·|I|`` to ``max(|I|, |J|)`` and every
elementwise instruction is charged at the operand grid's (smaller) VP
ratio.

:func:`try_send_reduce` returns the parent-shaped result when the pattern
applies, or None so the caller falls back to the product-grid evaluation.
Its static gates live in :func:`send_reduce_split`, which the fusion
pass also asks whether the product-grid path is the one that runs.
"""

from __future__ import annotations

import math
from typing import List, Optional, Set, Tuple

import numpy as np

from ..lang import ast
from ..machine.scan import identity_of
from .env import Env
from .values import ElementBinding, GridContext

_COMBINE_AT = {
    "add": np.add.at,
    "min": np.minimum.at,
    "max": np.maximum.at,
    "mul": np.multiply.at,
    "logand": np.logical_and.at,
    "logor": np.logical_or.at,
    "logxor": np.logical_xor.at,
}


def _free_names(expr: ast.Expr) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            names.add(node.ident)
    return names


def _split_partition_pred(
    pred: ast.Expr, parent_elems: Set[str], red_elems: Set[str]
) -> Optional[Tuple[ast.Expr, str, List[ast.Expr]]]:
    """Split a predicate into ``(address_expr, par_elem, other_clauses)``.

    Requires exactly one conjunct of the form ``f(red elems) == par_elem``
    and all remaining conjuncts free of parent elements.
    """
    clauses = list(_conjuncts(pred))
    address: Optional[Tuple[ast.Expr, str]] = None
    rest: List[ast.Expr] = []
    for clause in clauses:
        matched = False
        if isinstance(clause, ast.Binary) and clause.op == "==" and address is None:
            for a, b in ((clause.left, clause.right), (clause.right, clause.left)):
                if (
                    isinstance(b, ast.Name)
                    and b.ident in parent_elems
                    and _free_names(a) & red_elems
                    and not (_free_names(a) & parent_elems)
                ):
                    address = (a, b.ident)
                    matched = True
                    break
        if not matched:
            if _free_names(clause) & parent_elems:
                return None
            rest.append(clause)
    if address is None:
        return None
    return address[0], address[1], rest


def _conjuncts(expr: ast.Expr):
    if isinstance(expr, ast.Binary) and expr.op == "&&":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def send_reduce_split(
    ip, node: ast.Reduction, grid: GridContext, sets
) -> Optional[Tuple[ast.Expr, str, List[ast.Expr]]]:
    """The static gates of the send-with-reduce path.

    Returns the predicate's ``(address_expr, par_elem, other_clauses)``
    split when the pattern applies to ``node`` over ``grid`` with the
    resolved reduction ``sets``, or None when the product-grid path runs
    whatever the activity mask is.  Pure: evaluates nothing, charges
    nothing.
    """
    if node.op not in _COMBINE_AT or node.others is not None or len(node.arms) != 1:
        return None
    arm = node.arms[0]
    if arm.pred is None or grid.rank != 1:
        return None
    red_elems = {s.elem_name for s in sets}
    parent_elems = set(grid.axis_elems) - red_elems
    if not parent_elems:
        return None
    split = _split_partition_pred(arm.pred, parent_elems, red_elems)
    if split is None:
        return None
    # apply only when it actually shrinks the VP requirement: a combining
    # send has a higher fixed cost than a small scan, so the compiler keeps
    # the naive form while the product grid still fits the machine
    n_pes = ip.machine.config.n_pes
    operand_vps = 1
    for s in sets:
        operand_vps *= len(s)
    ratio_naive = max(1, math.ceil(grid.size * operand_vps / n_pes))
    ratio_opt = max(1, math.ceil(max(operand_vps, grid.size) / n_pes))
    if ratio_naive <= ratio_opt:
        return None
    if split[1] != grid.axes[0].elem or _free_names(arm.expr) & parent_elems:
        return None
    return split


def try_send_reduce(ip, node: ast.Reduction, ctx, sets) -> Optional[np.ndarray]:
    """Attempt the optimized path over the resolved reduction ``sets``;
    None if the pattern does not apply."""
    from .eval_expr import ExecContext, _truthy, eval_expr  # local: avoids cycle

    split = send_reduce_split(ip, node, ctx.grid, sets)
    if split is None:
        return None
    if ctx.mask is not None and not bool(np.all(ctx.mask)):
        return None  # a partial parent context breaks the partition story
    address_expr, _par_elem, rest_clauses = split
    arm = node.arms[0]

    # operand grid: the reduction sets alone
    operand_grid = GridContext().extend(sets)
    env = Env(ctx.env)
    for axis, isv in enumerate(sets):
        env.declare(
            isv.elem_name, ElementBinding(isv.elem_name, isv.name, "axis", axis=axis)
        )
    op_ctx = ExecContext(operand_grid, None, env)

    # every operand VP computes its destination address and contribution
    addresses = np.broadcast_to(
        np.asarray(eval_expr(ip, address_expr, op_ctx)), operand_grid.shape
    )
    enabled = np.ones(operand_grid.shape, dtype=bool)
    for clause in rest_clauses:
        cv = eval_expr(ip, clause, op_ctx.refine(enabled))
        enabled = enabled & np.broadcast_to(np.asarray(_truthy(cv)), operand_grid.shape)
    values = np.broadcast_to(
        np.asarray(eval_expr(ip, arm.expr, op_ctx.with_mask(enabled))),
        operand_grid.shape,
    )

    # one combining send delivers every result
    operand_vps = ip.grid_vpset(operand_grid.shape)
    parent_vps = ip.grid_vpset(ctx.grid.shape)
    ratio = max(operand_vps.vp_ratio, parent_vps.vp_ratio)
    ip.machine.clock.charge("router_send", vp_ratio=ratio)
    ip.machine.clock.count_tier("router")
    # shard accounting consults the site's UC5xx determinism verdict,
    # exactly as the product-grid path does
    ip.machine.clock.note_shard_reduce(
        node.op,
        ip.reduction_order_safe(node),
        operand_grid.size,
        ratio,
        operand_grid.shape,
    )

    parent_values = np.asarray(ctx.grid.axes[0].values)
    ident = identity_of(node.op)
    dtype = np.float64 if values.dtype.kind == "f" else np.int64
    if node.op in ("logand", "logor", "logxor"):
        out = np.full(parent_values.shape, bool(ident), dtype=bool)
        vals = values.astype(bool)
    else:
        out = np.full(parent_values.shape, ident, dtype=dtype)
        vals = values.astype(dtype)

    # map destination addresses to parent-axis positions (drop misses)
    order = np.argsort(parent_values, kind="stable")
    sorted_vals = parent_values[order]
    flat_addr = addresses.reshape(-1)
    flat_en = enabled.reshape(-1)
    pos = np.searchsorted(sorted_vals, flat_addr)
    pos_clipped = np.clip(pos, 0, len(sorted_vals) - 1)
    hit = flat_en & (sorted_vals[pos_clipped] == flat_addr)
    dest = order[pos_clipped[hit]]
    vals_hit = vals.reshape(-1)[hit]
    _COMBINE_AT[node.op](out, dest, vals_hit)
    if getattr(ip, "sanitizer", None) is not None:
        # order-permutation check: replay the combining send with the
        # (destination, value) pairs jointly permuted
        ip.sanitizer.check_send_reduce(
            node,
            _COMBINE_AT[node.op],
            out.dtype.type(ident) if out.dtype != bool else bool(ident),
            out.dtype,
            dest,
            vals_hit,
            out,
        )
    if node.op in ("logand", "logor", "logxor"):
        out = out.astype(np.int64)
    return out
