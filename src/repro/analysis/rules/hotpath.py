"""RPR310–312 — hot-path performance rules.

The ROADMAP's next throughput target multiplies the array code in the
hot modules (``repro.kernels``/``repro.thermal``/``repro.power``/
``repro.core.failure``); these rules catch the three ways that code
quietly falls off the fast path: Python-level loops over array rows
(RPR310, from the interval pass's array tracking), per-element
``math.*`` calls that have a numpy ufunc (RPR311), and redundant array
copies or silent dtype upcasts (RPR312).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.intervals import is_hot_module
from repro.analysis.registry import Rule, register
from repro.analysis.rules.numeric_safety import IntervalRuleBase


@register
class ArrayRowLoopRule(IntervalRuleBase):
    id = "RPR310"
    name = "array-row-loop"
    severity = Severity.WARNING
    kind = "loop"
    description = (
        "Python-level for loop over array rows in a hot module "
        "(kernels/thermal/power/failure models)"
    )
    rationale = (
        "A Python loop over the rows of a numpy array pays interpreter\n"
        "dispatch per row; the batched kernels exist precisely to\n"
        "amortise that over whole arrays.  The interval pass tracks\n"
        "which locals are arrays (from np.* constructors, asarray, and\n"
        "array-typed parameters), so the rule sees through zip(...),\n"
        "enumerate(...), range(len(x)), and range(x.shape[0]).\n"
        "Documented scalar reference paths keep their loops under an\n"
        "inline suppression stating exactly that."
    )
    example = (
        "for row in temps_k:              # hot module\n"
        "    out.append(model.fit(row))   # vectorize: model.fit(temps_k)\n"
    )


class HotPathRuleBase(Rule):
    """Shared scoping for the syntactic hot-path rules."""

    def applies_to(self, ctx) -> bool:
        return not ctx.is_test and is_hot_module(ctx.module)


#: math.* functions with a same-name numpy ufunc worth reaching for.
_MATH_UFUNCS = frozenset(
    {
        "exp",
        "expm1",
        "log",
        "log1p",
        "log2",
        "log10",
        "sqrt",
        "sin",
        "cos",
        "tan",
        "sinh",
        "cosh",
        "tanh",
        "hypot",
        "floor",
        "ceil",
        "fabs",
        "copysign",
    }
)


@register
class ScalarMathCallRule(HotPathRuleBase):
    id = "RPR311"
    name = "scalar-math-call"
    severity = Severity.WARNING
    description = (
        "per-element math.* call in a hot module where the numpy ufunc "
        "exists (math.exp -> np.exp)"
    )
    rationale = (
        "math.exp only accepts scalars, so any path through it forces\n"
        "element-at-a-time evaluation and blocks batching; the numpy\n"
        "ufunc is a drop-in replacement that handles both scalars and\n"
        "arrays (wrap with float() where a true scalar is required).\n"
        "Worse, math.exp raises OverflowError where np.exp returns inf,\n"
        "so the scalar and batched paths of the same model can disagree\n"
        "at the extreme operating points the wearout studies probe."
    )
    example = (
        "arrhenius = math.exp(-ea / (k * t))   # scalar-only\n"
        "arrhenius = float(np.exp(-ea / (k * t)))  # same result, batchable\n"
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
            ):
                continue
            if ctx.imports.get(func.value.id) != "math":
                continue
            if func.attr not in _MATH_UFUNCS:
                continue
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset + 1,
                f"math.{func.attr} is scalar-only; np.{func.attr} is the "
                "vectorizable equivalent (wrap with float() for scalars)",
            )


_CONCAT_NAMES = frozenset(
    {"concatenate", "stack", "vstack", "hstack", "column_stack"}
)
_ELEMENTWISE_NAMES = frozenset(
    {"isfinite", "isnan", "isinf", "abs", "absolute", "fabs", "sign"}
)
_REDUCER_NAMES = frozenset(
    {"all", "any", "sum", "min", "max", "amin", "amax", "mean", "prod", "count_nonzero"}
)
_INT_DTYPES = frozenset(
    {"int", "int32", "int64", "intp", "uint32", "uint64", "int_"}
)
_CREATION_NAMES = frozenset({"zeros", "ones", "empty", "full", "arange"})


def _np_call_tail(node: ast.expr, numpy_names: set[str]) -> str | None:
    """The attr of ``np.<attr>(...)`` when ``np`` aliases numpy."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in numpy_names
    ):
        return node.func.attr
    return None


def _is_int_dtype(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _INT_DTYPES
    if isinstance(node, ast.Attribute):
        return node.attr in _INT_DTYPES
    return False


@register
class RedundantArrayCopyRule(HotPathRuleBase):
    id = "RPR312"
    name = "redundant-array-copy"
    severity = Severity.WARNING
    description = (
        "redundant array copy (np.array of an array, concatenate feeding "
        "a reduction) or silent int->float dtype upcast in a hot module"
    )
    rationale = (
        "Three allocation patterns that scale with batch size:\n"
        "np.array(x) on a value that is already an ndarray copies it —\n"
        "np.asarray is the no-copy spelling; np.concatenate feeding\n"
        "only an elementwise check plus a reduction materialises a\n"
        "combined array nobody needs — reduce per input and combine\n"
        "the scalars; an integer-dtype work array that is later\n"
        "true-divided upcasts to float64 at the division, paying the\n"
        "float allocation anyway plus the int intermediate."
    )
    example = (
        "ok = np.isfinite(np.concatenate([a.ravel(), b.ravel()])).all()\n"
        "# copies a+b; instead: np.isfinite(a).all() and np.isfinite(b).all()\n"
    )

    def check(self, ctx) -> Iterator[Finding]:
        numpy_names = {
            alias for alias, target in ctx.imports.items() if target == "numpy"
        }
        if not numpy_names:
            return

        # Names bound from numpy calls / int-dtype creations, per scope.
        array_names: set[str] = set()
        int_array_names: set[str] = set()
        for node in ctx.nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                tail = _np_call_tail(node.value, numpy_names)
                if tail is None:
                    continue
                array_names.add(target.id)
                if tail in _CREATION_NAMES:
                    dtype_kw = next(
                        (
                            kw.value
                            for kw in node.value.keywords
                            if kw.arg == "dtype"
                        ),
                        None,
                    )
                    if dtype_kw is not None and _is_int_dtype(dtype_kw):
                        int_array_names.add(target.id)

        for node in ctx.nodes:
            if isinstance(node, ast.Call):
                tail = _np_call_tail(node, numpy_names)
                # np.array(x) where x is provably already an ndarray.
                if tail == "array" and node.args:
                    arg = node.args[0]
                    has_copy_kw = any(
                        kw.arg in ("copy", "dtype") for kw in node.keywords
                    )
                    already_array = (
                        isinstance(arg, ast.Name) and arg.id in array_names
                    ) or _np_call_tail(arg, numpy_names) is not None
                    if already_array and not has_copy_kw:
                        yield self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset + 1,
                            "np.array copies an existing ndarray; use "
                            "np.asarray (or pass copy=/dtype= if the copy "
                            "is intended)",
                        )
                # reduction(elementwise(concatenate(...))) chains.
                inner = node.args[0] if node.args else None
                if tail in _REDUCER_NAMES and inner is not None:
                    if _np_call_tail(inner, numpy_names) in _ELEMENTWISE_NAMES:
                        inner = inner.args[0] if inner.args else None
                    if (
                        inner is not None
                        and _np_call_tail(inner, numpy_names) in _CONCAT_NAMES
                    ):
                        yield self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset + 1,
                            "concatenate feeding a reduction materialises "
                            "a combined array; reduce each input and "
                            "combine the scalars instead",
                        )
                # method form: np.elementwise(np.concatenate(...)).all()
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _REDUCER_NAMES
                ):
                    base = node.func.value
                    if _np_call_tail(base, numpy_names) in _ELEMENTWISE_NAMES:
                        base = base.args[0] if base.args else None
                    if (
                        base is not None
                        and _np_call_tail(base, numpy_names) in _CONCAT_NAMES
                    ):
                        yield self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset + 1,
                            "concatenate feeding a reduction materialises "
                            "a combined array; reduce each input and "
                            "combine the scalars instead",
                        )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if (
                    isinstance(node.left, ast.Name)
                    and node.left.id in int_array_names
                ):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset + 1,
                        f"integer-dtype array {node.left.id!r} is "
                        "true-divided, silently upcasting to float64; "
                        "create it as float (dtype=float) instead",
                    )
