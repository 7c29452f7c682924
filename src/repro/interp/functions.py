"""Function calls: builtins and user-defined UC functions.

UC allows C functions (pointers only for passing arrays/slices, §3).  In
a *host* context functions interpret with full control flow.  In a
*parallel* context a call is inlined and vectorised, which restricts the
body to straight-line code (declarations, assignments, one ``return``) —
exactly what the paper's helper functions (``power2``, ``init``) look
like.  ``swap`` is a builtin because its reference semantics (exchanging
two array elements in parallel) cannot be written as a UC value function.
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Optional

import numpy as np

from ..lang import ast
from ..lang.errors import UCRuntimeError
from .env import Env
from .eval_expr import (
    ExecContext,
    Value,
    charge_grid_op,
    eval_expr,
    eval_gather,
    eval_scatter,
)
from .statements import ReturnSignal, exec_stmt
from .values import (
    ArrayVar,
    ParallelLocal,
    ScalarVar,
    SliceParam,
    coerce_scalar,
    numpy_ctype,
)

RAND_MAX = 2**31 - 1


# ---------------------------------------------------------------------------
# pure builtins
# ---------------------------------------------------------------------------


class Builtin(NamedTuple):
    """A pure builtin: argument count, ALU operations charged per call,
    and ``value(node, *args)`` over scalars or grid/lane arrays."""

    arity: int
    alu: int
    value: Callable


def _arrayish(*args) -> bool:
    return any(isinstance(a, np.ndarray) for a in args)


def _power2(node, x):
    if isinstance(x, np.ndarray):
        return np.left_shift(1, np.clip(x, 0, 62))
    return 1 << max(0, int(x))


def _abs(node, x):
    return np.abs(x) if isinstance(x, np.ndarray) else abs(x)


def _fabs(node, x):
    return np.abs(x) if isinstance(x, np.ndarray) else abs(float(x))


def _sqrt(node, x):
    if isinstance(x, np.ndarray):
        return np.sqrt(np.maximum(x, 0).astype(np.float64))
    if x < 0:
        raise UCRuntimeError("sqrt of a negative value", node.line, node.col)
    return float(x) ** 0.5


def _min(node, a, b):
    return np.minimum(a, b) if _arrayish(a, b) else min(a, b)


def _max(node, a, b):
    return np.maximum(a, b) if _arrayish(a, b) else max(a, b)


#: the builtins every engine evaluates the same way: the walker below
#: and the frontier's compressed sweeps
PURE_BUILTINS = {
    "power2": Builtin(1, 1, _power2),
    "abs": Builtin(1, 1, _abs),
    "ABS": Builtin(1, 1, _abs),
    "fabs": Builtin(1, 1, _fabs),
    "sqrt": Builtin(1, 4, _sqrt),  # iterative on the CM's ALUs
    "min": Builtin(2, 1, _min),
    "max": Builtin(2, 1, _max),
}


def call_function(ip, node: ast.Call, ctx: ExecContext) -> Value:
    name = node.func
    user_func: Optional[ast.FuncDef] = ip.info.functions.get(name)
    if user_func is not None:
        if ctx.grid.is_host:
            return _call_host(ip, user_func, node, ctx)
        return _call_parallel(ip, user_func, node, ctx)
    builtin = PURE_BUILTINS.get(name)
    if builtin is not None:
        args = [eval_expr(ip, a, ctx) for a in node.args]
        charge_grid_op(ip, ctx, count=builtin.alu)
        return builtin.value(node, *args)
    if name == "rand":
        charge_grid_op(ip, ctx)
        if ctx.grid.is_host:
            return int(ip.rng.integers(0, RAND_MAX))
        return ip.rng.integers(0, RAND_MAX, size=ctx.grid.shape)
    if name == "srand":
        seed = eval_expr(ip, node.args[0], ctx)
        ip.reseed(int(seed))
        return 0
    if name == "printf":
        return _builtin_printf(ip, node, ctx)
    if name == "swap":
        return _builtin_swap(ip, node, ctx)
    raise UCRuntimeError(f"call to unknown function {name!r}", node.line, node.col)


# ---------------------------------------------------------------------------
# builtins with statement-like behaviour
# ---------------------------------------------------------------------------


def _builtin_printf(ip, node: ast.Call, ctx: ExecContext) -> Value:
    if not ctx.grid.is_host:
        raise UCRuntimeError("printf is a front-end function", node.line, node.col)
    if not node.args or not isinstance(node.args[0], ast.StringLit):
        raise UCRuntimeError("printf needs a literal format string", node.line, node.col)
    fmt = node.args[0].value
    args = [eval_expr(ip, a, ctx) for a in node.args[1:]]
    ip.machine.clock.charge("host", count=1 + len(args))
    try:
        text = fmt % tuple(args) if args else fmt
    except (TypeError, ValueError) as exc:
        raise UCRuntimeError(f"printf format error: {exc}", node.line, node.col)
    ip.stdout.append(text)
    return len(text)


def _builtin_swap(ip, node: ast.Call, ctx: ExecContext) -> Value:
    """``swap(x[i], x[j])`` — parallel exchange of two references."""
    lhs, rhs = node.args
    if not isinstance(lhs, ast.Index) or not isinstance(rhs, ast.Index):
        raise UCRuntimeError("swap takes two array references", node.line, node.col)
    a = eval_gather(ip, lhs, ctx)
    b = eval_gather(ip, rhs, ctx)
    eval_scatter(ip, lhs, b, ctx)
    eval_scatter(ip, rhs, a, ctx)
    return 0


# ---------------------------------------------------------------------------
# user functions
# ---------------------------------------------------------------------------


def _bind_argument(ip, param: ast.Param, arg: ast.Expr, ctx: ExecContext) -> Any:
    if param.dims:
        # array (or slice) passed by reference — the only pointer use UC allows
        if isinstance(arg, ast.Name):
            binding = ctx.env.lookup(arg.ident)
            if isinstance(binding, (ArrayVar, SliceParam)):
                return binding
            raise UCRuntimeError(
                f"argument for array parameter {param.name!r} is not an array",
                arg.line,
                arg.col,
            )
        if isinstance(arg, ast.Index):
            binding = ctx.env.lookup(arg.base)
            if isinstance(binding, SliceParam):
                base, prefix = binding.array, binding.prefix
            elif isinstance(binding, ArrayVar):
                base, prefix = binding, ()
            else:
                raise UCRuntimeError(
                    f"argument for array parameter {param.name!r} is not an array",
                    arg.line,
                    arg.col,
                )
            fixed = tuple(int(_host_value(ip, s, ctx)) for s in arg.subs)
            return SliceParam(base, prefix + fixed)
        raise UCRuntimeError(
            f"argument for array parameter {param.name!r} must be an array "
            "name or slice",
            arg.line,
            arg.col,
        )
    return eval_expr(ip, arg, ctx)


def _host_value(ip, expr: ast.Expr, ctx: ExecContext) -> Value:
    v = eval_expr(ip, expr, ctx)
    if isinstance(v, np.ndarray):
        raise UCRuntimeError("slice subscripts must be scalar", expr.line, expr.col)
    return v


def _call_host(ip, func: ast.FuncDef, node: ast.Call, ctx: ExecContext) -> Value:
    env = Env(ip.global_env)
    for param, arg in zip(func.params, node.args):
        bound = _bind_argument(ip, param, arg, ctx)
        if param.dims:
            env.declare(param.name, bound)
        else:
            env.declare(param.name, ScalarVar(param.name, param.ctype, coerce_scalar(param.ctype, bound)))
    ip.machine.clock.charge("host")
    frame = ExecContext(ctx.grid, ctx.mask, env)
    with ip.cse_suspend():  # the frame rebinds parameter names
        try:
            exec_stmt(ip, func.body, frame)
        except ReturnSignal as ret:
            if ret.value is None:
                return 0
            return ret.value
        return 0


def _call_parallel(ip, func: ast.FuncDef, node: ast.Call, ctx: ExecContext) -> Value:
    """Inline a straight-line function body, vectorised over the grid."""
    env = Env(ip.global_env)
    for param, arg in zip(func.params, node.args):
        bound = _bind_argument(ip, param, arg, ctx)
        if param.dims:
            env.declare(param.name, bound)
        else:
            data = np.broadcast_to(
                np.asarray(bound, dtype=numpy_ctype(param.ctype)), ctx.grid.shape
            ).copy()
            env.declare(
                param.name,
                ParallelLocal(param.name, param.ctype, ctx.grid.rank, data),
            )
    frame = ExecContext(ctx.grid, ctx.mask, env)
    with ip.cse_suspend():  # the frame rebinds parameter names
        result = _run_straightline(ip, func, func.body.stmts, frame, node)
    if result is None:
        return 0
    return result


def _run_straightline(
    ip, func: ast.FuncDef, stmts: List[ast.Stmt], frame: ExecContext, site: ast.Call
) -> Optional[Value]:
    for stmt in stmts:
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                return None
            return eval_expr(ip, stmt.value, frame)
        if isinstance(stmt, (ast.VarDecl, ast.ExprStmt, ast.EmptyStmt)):
            exec_stmt(ip, stmt, frame)
            continue
        if isinstance(stmt, ast.Block):
            result = _run_straightline(ip, func, stmt.stmts, frame.with_env(frame.env.child()), site)
            if result is not None:
                return result
            continue
        raise UCRuntimeError(
            f"function {func.name!r} uses {type(stmt).__name__}, which is not "
            "supported when called from a parallel context (keep parallel "
            "helpers straight-line)",
            site.line,
            site.col,
        )
    return None
