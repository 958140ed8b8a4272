"""RPR001 — physical quantities must carry unit suffixes.

The paper's models only compose because every quantity is in the agreed
unit (kelvin, volts, hertz, watts, mm² — see ``repro/constants.py``).
The type system cannot see units, so the convention is enforced by
name: a parameter, attribute, or module constant whose name mentions a
physical quantity must end in a unit suffix consistent with those
conventions.  A second heuristic catches the classic kelvin/Celsius
slip: a numeric literal below absolute-zero-plus-margin passed to a
``*_k`` keyword is almost certainly a Celsius value.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register
from repro.constants import MIN_TEMPERATURE_K

#: quantity stem -> unit suffixes the convention allows for it.
STEM_SUFFIXES: dict[str, frozenset[str]] = {
    "temperature": frozenset({"k", "c"}),
    "temp": frozenset({"k", "c"}),
    "voltage": frozenset({"v", "mv"}),
    "vdd": frozenset({"v", "mv"}),
    "frequency": frozenset({"hz", "ghz", "mhz", "khz"}),
    "freq": frozenset({"hz", "ghz", "mhz", "khz"}),
    "power": frozenset({"w", "mw"}),
    "energy": frozenset({"j", "ev"}),
    "area": frozenset({"mm2", "m2", "um2"}),
    "mttf": frozenset({"hours", "years", "h"}),
    "duration": frozenset({"s", "ms", "hours", "years"}),
}

#: suffixes that mark a name as dimensionless (ratios of quantities) or
#: as metadata about the quantity rather than the quantity itself.
DIMENSIONLESS_SUFFIXES = frozenset(
    {
        "ratio", "scale", "factor", "fraction", "exponent", "index",
        "steps", "count", "name", "label", "id", "key", "density",
        "band", "rel",
    }
)

_SKIP_NAMES = frozenset({"self", "cls"})


def _annotation_is_numeric(annotation: ast.expr | None) -> bool:
    """Whether a type annotation describes a numeric quantity.

    ``float``/``int`` anywhere in the annotation (``dict[str, float]``,
    ``float | None``) counts; a bare class name (``PowerBreakdown``),
    ``bool``, or ``str`` does not — unit suffixes only apply to numbers.
    """
    if annotation is None:
        return True  # unannotated: assume a quantity, keep the check
    names = {
        node.id for node in ast.walk(annotation) if isinstance(node, ast.Name)
    }
    names |= {
        node.value
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    return bool(names & {"float", "int"})


def _value_is_numeric(value: ast.expr | None) -> bool:
    """Whether an assigned literal is a number (or tuple/list of them)."""
    if value is None:
        return False
    if isinstance(value, ast.Constant):
        return isinstance(value.value, (int, float)) and not isinstance(
            value.value, bool
        )
    if isinstance(value, (ast.Tuple, ast.List)) and value.elts:
        return all(_value_is_numeric(elt) for elt in value.elts)
    if isinstance(value, ast.UnaryOp) and isinstance(value.op, (ast.USub, ast.UAdd)):
        return _value_is_numeric(value.operand)
    return False


def _tokens(name: str) -> list[str]:
    return [t for t in name.lower().split("_") if t]


def name_violation(name: str) -> str | None:
    """The allowed-suffix list if ``name`` violates the convention.

    A stem is satisfied when an allowed unit suffix either directly
    follows it (``power_w_by_block``) or ends the name
    (``peak_temperature_k``), or when the name ends in a dimensionless
    marker (``frequency_ratio``).
    """
    tokens = _tokens(name)
    if not tokens or name.startswith("__"):
        return None
    last = tokens[-1]
    if last in DIMENSIONLESS_SUFFIXES:
        return None
    missing: set[str] = set()
    for i, token in enumerate(tokens):
        allowed = STEM_SUFFIXES.get(token)
        if allowed is None:
            continue
        following = tokens[i + 1] if i + 1 < len(tokens) else None
        if following in allowed or last in allowed:
            continue
        missing.update(allowed)
    if not missing:
        return None
    return "/".join(sorted(missing))


@register
class UnitSuffixRule(Rule):
    id = "RPR001"
    name = "unit-suffix"
    severity = Severity.ERROR
    description = (
        "physical-quantity names must end in a unit suffix matching the "
        "conventions in repro/constants.py (kelvin, volts, hertz, ...)"
    )

    def applies_to(self, ctx) -> bool:
        return not ctx.is_test

    def check(self, ctx) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_signature(ctx, node)
            elif isinstance(node, ast.ClassDef):
                yield from self._check_class_body(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_kelvin_literals(ctx, node)
        yield from self._check_module_assigns(ctx)

    def _name_finding(self, ctx, node, name: str, what: str) -> Iterator[Finding]:
        if name in _SKIP_NAMES:
            return
        allowed = name_violation(name)
        if allowed is not None:
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset + 1,
                f"{what} {name!r} names a physical quantity but lacks a "
                f"unit suffix (expected one of: _{', _'.join(sorted(allowed.split('/')))})",
            )

    def _check_signature(self, ctx, node) -> Iterator[Finding]:
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if _annotation_is_numeric(arg.annotation):
                yield from self._name_finding(ctx, arg, arg.arg, "parameter")

    def _check_assign_stmts(self, ctx, body, what: str) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if _annotation_is_numeric(stmt.annotation):
                    yield from self._name_finding(ctx, stmt, stmt.target.id, what)
            elif isinstance(stmt, ast.Assign) and _value_is_numeric(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        yield from self._name_finding(ctx, stmt, target.id, what)

    def _check_class_body(self, ctx, node) -> Iterator[Finding]:
        yield from self._check_assign_stmts(ctx, node.body, "attribute")

    def _check_module_assigns(self, ctx) -> Iterator[Finding]:
        yield from self._check_assign_stmts(ctx, ctx.tree.body, "module constant")

    def _check_kelvin_literals(self, ctx, node: ast.Call) -> Iterator[Finding]:
        for kw in node.keywords:
            if kw.arg is None:
                continue
            if not (kw.arg.endswith("_k") or kw.arg == "kelvin"):
                continue
            value = kw.value
            if (
                isinstance(value, ast.Constant)
                and isinstance(value.value, (int, float))
                and not isinstance(value.value, bool)
                and 0 < float(value.value) < MIN_TEMPERATURE_K
            ):
                yield self.finding(
                    ctx,
                    value.lineno,
                    value.col_offset + 1,
                    f"{value.value!r} passed to kelvin parameter {kw.arg!r} "
                    f"looks like a Celsius value (kelvin temperatures are "
                    f">= {MIN_TEMPERATURE_K:.0f} K here); use "
                    "celsius_to_kelvin() at the boundary",
                    severity=Severity.WARNING,
                )
