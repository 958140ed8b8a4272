"""RPR004 — no raw ``==`` / ``!=`` against float values.

Reliability math composes exponentials and powers; two routes to "the
same" number routinely differ in the last ulp, so raw float equality is
either dead code or a latent heisenbug.  The rule flags comparisons
where either side is literally a float: a float constant, ``-1.5``,
``float("inf")``, or ``math.inf``-style attribute constants.  Use
``math.isclose``/``math.isinf`` in library code and ``pytest.approx``
in tests; exact-zero/sentinel semantics need an inline suppression
with a justification.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register
from repro.analysis.rules.determinism import dotted_name

_FLOAT_ATTRS = frozenset(
    {
        "math.inf", "math.nan", "math.pi", "math.e", "math.tau",
        "np.inf", "np.nan", "numpy.inf", "numpy.nan",
    }
)


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and len(node.args) == 1
        )
    dotted = dotted_name(node)
    return dotted in _FLOAT_ATTRS


def _suggestion(node: ast.expr) -> str:
    if isinstance(node, ast.Call) or dotted_name(node) in {
        "math.inf", "np.inf", "numpy.inf",
    }:
        return "use math.isinf()"
    if dotted_name(node) in {"math.nan", "np.nan", "numpy.nan"}:
        return "use math.isnan() (NaN never equals anything)"
    return "use math.isclose() (or pytest.approx in tests)"


@register
class FloatEqualityRule(Rule):
    id = "RPR004"
    name = "float-equality"
    severity = Severity.ERROR
    description = (
        "raw ==/!= against float values is banned; use math.isclose, "
        "math.isinf, or pytest.approx"
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (operands[i], operands[i + 1]):
                    if _is_float_literal(side):
                        sym = "==" if isinstance(op, ast.Eq) else "!="
                        yield self.finding(
                            ctx,
                            side.lineno,
                            side.col_offset + 1,
                            f"raw float {sym} comparison against "
                            f"{ast.unparse(side)}; {_suggestion(side)}",
                        )
                        break
