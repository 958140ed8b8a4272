"""Intraprocedural unit-dataflow analysis over Python AST.

An abstract interpreter whose abstract values are physical units from
:mod:`repro.analysis.unitsig`.  Each function body (and the module
body) is executed once, statement by statement:

- parameters seed the environment from their names (the RPR001 suffix
  convention) — ``temperature_k`` enters as kelvin;
- assignments propagate inferred units to locals, so ``t = cond.temperature_k``
  makes later uses of ``t`` kelvin without any suffix on ``t``;
- arithmetic follows the lattice's algebra: same-unit ``+``/``-`` keeps
  the unit, subtracting two absolute temperatures yields a *delta*,
  multiplying by a dimensionless value keeps the unit, dividing
  device-hours by a time yields a FIT rate (and by a rate, a time);
- calls consult the cross-module signature table for parameter and
  return units; keyword names carry expected units even for calls the
  table cannot resolve.

Mismatches surface as :class:`UnitDiagnostic` records, classified for
the three flow rules: ``mismatch`` (RPR101, additive/comparison unit
clashes, including kelvin-vs-Celsius), ``call`` (RPR102, a
wrong-dimension argument), and ``fit_mttf`` (RPR103, a time value
flowing where a FIT rate is consumed or vice versa).  The analysis is
deliberately optimistic: a diagnostic fires only when *both* sides'
units are confidently known, so unknown values never produce noise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.unitsig import (
    DELTA_K,
    DIMENSIONLESS,
    FIT,
    HOURS,
    Dim,
    SignatureTable,
    Unit,
    unit_by_name,
    unit_from_name,
)

#: Abstract value of a bare numeric literal: compatible with any unit.
NUMBER = Unit("<number>", Dim.DIMENSIONLESS)


@dataclass(frozen=True)
class UnitDiagnostic:
    """One unit violation found by the dataflow pass.

    Attributes:
        kind: ``mismatch`` (RPR101), ``call`` (RPR102), or
            ``fit_mttf`` (RPR103).
        line / col: 1-based anchor of the offending expression.
        message: human-readable description naming both units.
    """

    kind: str
    line: int
    col: int
    message: str


def _known(unit: Unit | None) -> bool:
    return unit is not None and unit is not NUMBER and unit is not DIMENSIONLESS


def _is_time_rate_pair(a: Unit, b: Unit) -> bool:
    return {a.dim, b.dim} == {Dim.TIME, Dim.RATE}


def _mismatch_kind(a: Unit, b: Unit) -> str:
    return "fit_mttf" if _is_time_rate_pair(a, b) else "mismatch"


def _describe_clash(a: Unit, b: Unit) -> str:
    if {a.dim, b.dim} == {Dim.TEMPERATURE} and a != b:
        return f"mixes kelvin and Celsius ({a} vs {b})"
    if _is_time_rate_pair(a, b):
        return (
            f"mixes a time with a failure rate ({a} vs {b}); convert with "
            "mttf_hours_to_fit()/fit_to_mttf_hours()"
        )
    if a.dim == b.dim:
        return f"mixes scales of the same dimension ({a} vs {b})"
    return f"mixes {a.dim.value} with {b.dim.value} ({a} vs {b})"


class UnitInterpreter:
    """Runs the unit-dataflow pass over one parsed file.

    Args:
        table: the project-wide signature table.
        module: the file's dotted module name (or None).
        imports: the file's local-name -> dotted-target import map.
    """

    def __init__(
        self, table: SignatureTable, module: str | None, imports: dict[str, str]
    ) -> None:
        self.table = table
        self.module = module
        self.diagnostics: list[UnitDiagnostic] = []
        self._imports = imports

    # ---- entry point ---------------------------------------------------

    def run(
        self, tree: ast.Module, nodes: tuple[ast.AST, ...]
    ) -> list[UnitDiagnostic]:
        self._exec_block(tree.body, {})
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                env = self._seed_env(node)
                self._exec_block(node.body, env)
        self.diagnostics.sort(key=lambda d: (d.line, d.col))
        return self.diagnostics

    def _seed_env(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, Unit | None]:
        env: dict[str, Unit | None] = {}
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            env[arg.arg] = unit_from_name(arg.arg)
        return env

    # ---- statements ----------------------------------------------------

    def _exec_block(self, stmts: list[ast.stmt], env: dict) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env)

    @staticmethod
    def _merge(base: dict, *branches: dict) -> None:
        """Join branch environments into ``base`` (conflicts -> unknown)."""
        names = set(base)
        for branch in branches:
            names |= set(branch)
        for name in names:
            values = {
                branch.get(name) for branch in (base, *branches) if name in branch
            }
            base[name] = values.pop() if len(values) == 1 else None

    def _exec_stmt(self, stmt: ast.stmt, env: dict) -> None:
        if isinstance(stmt, ast.Assign):
            unit = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, unit, env)
        elif isinstance(stmt, ast.AnnAssign):
            unit = self._eval(stmt.value, env) if stmt.value is not None else None
            self._bind(stmt.target, unit, env)
        elif isinstance(stmt, ast.AugAssign):
            unit = self._eval(
                ast.copy_location(
                    ast.BinOp(left=stmt.target, op=stmt.op, right=stmt.value),
                    stmt,
                ),
                env,
            )
            self._bind(stmt.target, unit, env)
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self._eval(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, env)
            then_env, else_env = dict(env), dict(env)
            self._exec_block(stmt.body, then_env)
            self._exec_block(stmt.orelse, else_env)
            self._merge(env, then_env, else_env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter, env)
            self._bind(stmt.target, None, env)
            body_env = dict(env)
            self._exec_block(stmt.body, body_env)
            self._exec_block(stmt.orelse, body_env)
            self._merge(env, body_env)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env)
            body_env = dict(env)
            self._exec_block(stmt.body, body_env)
            self._exec_block(stmt.orelse, body_env)
            self._merge(env, body_env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, None, env)
            self._exec_block(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, env)
            handler_envs = []
            for handler in stmt.handlers:
                handler_env = dict(env)
                self._exec_block(handler.body, handler_env)
                handler_envs.append(handler_env)
            self._merge(env, *handler_envs)
            self._exec_block(stmt.orelse, env)
            self._exec_block(stmt.finalbody, env)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, env)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        # FunctionDef / ClassDef bodies are analyzed separately by run().

    def _bind(self, target: ast.expr, unit: Unit | None, env: dict) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = unit
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, None, env)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, None, env)
        # attribute/subscript targets: not tracked.

    # ---- expressions ---------------------------------------------------

    def _eval(self, node: ast.expr, env: dict) -> Unit | None:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return DIMENSIONLESS
            if isinstance(node.value, (int, float)):
                return NUMBER
            return None
        if isinstance(node, ast.Name):
            return self._name_unit(node.id, env)
        if isinstance(node, ast.Attribute):
            self._eval(node.value, env)
            constant = self.table.constant_unit(node.attr)
            if constant is not None:
                return constant
            return unit_from_name(node.attr)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            inner = self._eval(node.operand, env)
            return inner if isinstance(node.op, (ast.USub, ast.UAdd)) else None
        if isinstance(node, ast.Compare):
            self._eval_compare(node, env)
            return DIMENSIONLESS
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            a = self._eval(node.body, env)
            b = self._eval(node.orelse, env)
            return a if a == b else None
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._eval(value, env)
            return None
        if isinstance(node, ast.Subscript):
            # A container named for its values: power_w_by_block[b] -> W.
            unit = self._eval(node.value, env)
            self._eval(node.slice, env)
            return unit
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self._eval(elt, env)
            return None
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self._eval(key, env)
            for value in node.values:
                self._eval(value, env)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._eval_comprehension(node.elt, node.generators, env)
            return None
        if isinstance(node, ast.DictComp):
            self._eval_comprehension(node.key, node.generators, env)
            self._eval(node.value, dict(env))
            return None
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._eval(value.value, env)
            return None
        if isinstance(node, ast.Lambda):
            return None
        return None

    def _eval_comprehension(self, elt: ast.expr, generators, env: dict) -> None:
        inner = dict(env)
        for gen in generators:
            self._eval(gen.iter, inner)
            self._bind(gen.target, None, inner)
            for cond in gen.ifs:
                self._eval(cond, inner)
        self._eval(elt, inner)

    def _name_unit(self, name: str, env: dict) -> Unit | None:
        if name in env and env[name] is not None:
            return env[name]
        constant = self.table.constant_unit(name)
        if constant is not None:
            return constant
        if name in env:
            # Assigned from an expression of unknown unit: trust the
            # assignment over the name so stale suffixes cannot lie.
            return None
        return unit_from_name(name)

    # ---- arithmetic ----------------------------------------------------

    #: Metric-prefix shifts: multiplying or dividing a unit-carrying
    #: value by one of these literals is a scale conversion (kHz -> Hz,
    #: V -> mV), so the result's unit is deliberately *unknown* rather
    #: than inherited from the operand.
    _SCALE_FACTORS = frozenset(
        {10.0**n for n in (3, 6, 9, 12)} | {10.0**-n for n in (3, 6, 9, 12)}
    )

    @classmethod
    def _is_scale_literal(cls, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
            and float(node.value) in cls._SCALE_FACTORS
        )

    def _eval_binop(self, node: ast.BinOp, env: dict) -> Unit | None:
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return self._additive(node, left, right)
        if isinstance(node.op, ast.Mult):
            if _known(left) and self._is_scale_literal(node.right):
                return None
            if _known(right) and self._is_scale_literal(node.left):
                return None
            if left in (NUMBER, DIMENSIONLESS):
                return right if right is not NUMBER else NUMBER
            if right in (NUMBER, DIMENSIONLESS):
                return left
            return None
        if isinstance(node.op, ast.Div):
            if _known(left) and self._is_scale_literal(node.right):
                return None
            if left is not None and left is right:
                return DIMENSIONLESS
            if left is not None and right is not None and left.dim == right.dim:
                return None  # same dimension, different scale: unknown ratio
            if left is not None and left.dim == Dim.DEVICE_HOURS:
                if right is not None and right.dim == Dim.TIME:
                    return FIT
                if right is not None and right.dim == Dim.RATE:
                    return HOURS
                return None
            if right in (NUMBER, DIMENSIONLESS):
                return left
            return None
        return None

    def _additive(
        self, node: ast.BinOp, left: Unit | None, right: Unit | None
    ) -> Unit | None:
        if left is None or right is None:
            return left if right is None else right
        if left is NUMBER:
            return right
        if right is NUMBER:
            return left
        is_sub = isinstance(node.op, ast.Sub)
        # Absolute temperatures and deltas have their own algebra.
        if left.dim == Dim.TEMPERATURE and right.dim == Dim.TEMPERATURE:
            if left != right:
                self._clash(node, left, right)
                return None
            return DELTA_K if is_sub else left
        if left.dim == Dim.TEMPERATURE and right is DELTA_K:
            return left
        if left is DELTA_K and right.dim == Dim.TEMPERATURE:
            if is_sub:
                self._clash(node, left, right)
                return None
            return right
        if left == right:
            return left
        if left is DIMENSIONLESS or right is DIMENSIONLESS:
            return None
        self._clash(node, left, right)
        return None

    def _eval_compare(self, node: ast.Compare, env: dict) -> None:
        operands = [node.left, *node.comparators]
        units = [self._eval(op, env) for op in operands]
        for i in range(len(node.ops)):
            a, b = units[i], units[i + 1]
            if a is None or b is None or NUMBER in (a, b):
                continue
            if a is DIMENSIONLESS or b is DIMENSIONLESS:
                continue
            if a != b:
                self._clash(operands[i + 1], a, b, what="comparison")

    def _clash(
        self, node: ast.AST, a: Unit, b: Unit, what: str = "expression"
    ) -> None:
        self.diagnostics.append(
            UnitDiagnostic(
                kind=_mismatch_kind(a, b),
                line=node.lineno,
                col=node.col_offset + 1,
                message=f"{what} {_describe_clash(a, b)}",
            )
        )

    # ---- calls ---------------------------------------------------------

    def _resolve_signature(self, func: ast.expr) -> tuple[str, dict] | None:
        """(qualname, signature) for a call target, if the table knows it."""
        if isinstance(func, ast.Name):
            target = self._imports.get(func.id)
            candidates = [target] if target else []
            if self.module is not None:
                candidates.append(f"{self.module}.{func.id}")
            for cand in candidates:
                if cand and cand in self.table.functions:
                    return cand, self.table.functions[cand]
            return None
        if isinstance(func, ast.Attribute):
            parts: list[str] = []
            base = func
            while isinstance(base, ast.Attribute):
                parts.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name):
                root = self._imports.get(base.id, base.id)
                dotted = ".".join([root, *reversed(parts)])
                if dotted in self.table.functions:
                    return dotted, self.table.functions[dotted]
            qual = self.table.methods.get(func.attr)
            if qual is not None:
                return qual, self.table.functions[qual]
        return None

    def _eval_call(self, node: ast.Call, env: dict) -> Unit | None:
        resolved = self._resolve_signature(node.func)
        params: list[list] = resolved[1]["params"] if resolved else []
        callee = resolved[0] if resolved else None
        by_name = {entry[0]: entry[1] for entry in params}

        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                self._eval(arg.value, env)
                continue
            actual = self._eval(arg, env)
            if i < len(params):
                self._check_arg(arg, params[i][0], params[i][1], actual, callee)
        for kw in node.keywords:
            actual = self._eval(kw.value, env)
            if kw.arg is None:
                continue
            expected_name = by_name.get(kw.arg)
            if expected_name is None and kw.arg not in by_name:
                inferred = unit_from_name(kw.arg)
                expected_name = inferred.name if inferred else None
            self._check_arg(kw.value, kw.arg, expected_name, actual, callee)

        if resolved is not None and resolved[1].get("return"):
            return unit_by_name(resolved[1]["return"])
        # Fall back to the callee's own name (x.mttf_years() -> years).
        tail = (
            node.func.attr
            if isinstance(node.func, ast.Attribute)
            else node.func.id
            if isinstance(node.func, ast.Name)
            else None
        )
        return unit_from_name(tail) if tail else None

    def _check_arg(
        self,
        node: ast.expr,
        param: str,
        expected_name: str | None,
        actual: Unit | None,
        callee: str | None,
    ) -> None:
        expected = unit_by_name(expected_name) if expected_name else None
        if expected is None or actual is None or actual is NUMBER:
            return
        if expected is DIMENSIONLESS or actual is DIMENSIONLESS:
            return
        if expected == actual:
            return
        where = f"argument {param!r}" + (f" of {callee}()" if callee else "")
        kind = "fit_mttf" if _is_time_rate_pair(expected, actual) else "call"
        self.diagnostics.append(
            UnitDiagnostic(
                kind=kind,
                line=node.lineno,
                col=node.col_offset + 1,
                message=(
                    f"{where} expects {expected} but receives "
                    f"{actual} ({_describe_clash(expected, actual)})"
                ),
            )
        )


def analyze_units(ctx) -> list[UnitDiagnostic]:
    """Run the unit-dataflow pass over one file's analysis context."""
    interpreter = UnitInterpreter(
        ctx.project.unit_signatures, ctx.module, ctx.imports
    )
    return interpreter.run(ctx.tree, ctx.nodes)
