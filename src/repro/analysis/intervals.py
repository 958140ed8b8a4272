"""Interval-domain abstract interpretation for numeric safety.

The second abstract interpreter layered on the dataflow machinery: where
:mod:`repro.analysis.dataflow` tracks *units*, this pass tracks *value
ranges*.  Each local is bound to an :class:`Interval` over the extended
reals (or ``None`` when unknown) and intervals propagate through
assignments, arithmetic, ``min``/``max``/``clip``, branch conditions
(``if x <= 0.0: raise`` narrows ``x`` to ``(0, inf)`` afterwards), and
cross-module calls via the harvested signature table.  Parameters seed
from the declared physical envelopes in ``constants.PHYSICAL_RANGES``:
``temperature_k`` enters as ``[200, 500]`` kelvin, ``activity`` as
``[0, 1]``, ``dt_s`` as ``(0, inf)``.

The arithmetic is *float-honest*, not real-valued: ``exp`` of an
unbounded argument is ``[0, inf]`` with both ends **closed**, because
IEEE underflow and overflow make exactly 0.0 and ``inf`` concretely
reachable.  That is what lets the pass prove that
``1.0 / (base ** e * np.exp(a))`` can divide by zero — the Arrhenius
shape every RAMP failure model computes.

Three diagnostic kinds feed the RPR30x rules:

- ``domain`` (RPR301): a division whose denominator interval provably
  contains zero, ``log`` of a possibly-nonpositive value, ``sqrt`` of a
  possibly-negative one.  Statements under ``with np.errstate(...)`` or
  inside ``np.where(...)`` arguments are exempt — that is this
  codebase's documented guarded-reciprocal idiom.
- ``nanflow`` (RPR303): in the hot modules only, a division by a value
  not provably nonzero or an ``exp`` of an unbounded argument inside a
  function with *no* guards at all (no raise/assert, no
  ``isfinite``/``nan_to_num``/``where``/``errstate``/``clip``, no
  ``validate_*`` call).
- ``loop`` (RPR310): in the hot modules only, a Python ``for`` loop
  whose iterable is an array (directly, or via ``zip``/``enumerate``/
  ``range(len(...))``/``range(x.shape[...])``).

The module also implements the project-wide range check:
:func:`harvest_interval_facts` extracts one file's boundary-crossing
numeric values (call arguments, parameter defaults, module constants)
and :func:`run_range_pass` checks them against the declared envelopes
across the whole project (RPR302).
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

from repro.analysis.unitsig import SignatureTable, unit_from_name

#: Module prefixes whose code is performance- and NaN-critical.
HOT_MODULE_PREFIXES = (
    "repro.kernels",
    "repro.thermal",
    "repro.power",
    "repro.core.failure",
)

_INF = float("inf")


def is_hot_module(module: str | None) -> bool:
    """Whether a dotted module name is in the hot set."""
    if module is None:
        return False
    return any(
        module == p or module.startswith(p + ".") for p in HOT_MODULE_PREFIXES
    )


# ---------------------------------------------------------------------------
# The interval domain.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A closed/open interval over the extended reals.

    ``lo_open``/``hi_open`` mark strict bounds: ``(0, inf)`` is a
    strictly positive value.  An infinite bound with its flag *closed*
    means the infinity is attained (float overflow); open means merely
    unbounded.  ``None`` (outside this class) is the unknown value.
    """

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    # ---- queries -------------------------------------------------------

    def contains(self, x: float, rel_tol: float = 0.0) -> bool:
        """Whether concrete ``x`` lies in this interval.

        NaN is vacuously contained (the domain makes claims about real
        results only).  ``rel_tol`` pads both bounds proportionally and
        ignores openness — for soundness tests where libm and numpy may
        round the same expression to different ULPs.
        """
        if math.isnan(x):
            return True
        lo, hi = self.lo, self.hi
        if rel_tol:
            if math.isfinite(lo):
                lo -= abs(lo) * rel_tol + rel_tol
            if math.isfinite(hi):
                hi += abs(hi) * rel_tol + rel_tol
            return lo <= x <= hi
        if x < lo or (x == lo and self.lo_open):
            return False
        if x > hi or (x == hi and self.hi_open):
            return False
        return True

    def contains_zero(self) -> bool:
        return self.contains(0.0)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi and not self.lo_open and not self.hi_open

    # ---- constructors --------------------------------------------------

    @classmethod
    def point(cls, value: float) -> "Interval":
        return cls(value, value)

    @classmethod
    def top(cls) -> "Interval":
        return cls(-_INF, _INF, True, True)

    # ---- lattice -------------------------------------------------------

    def union(self, other: "Interval") -> "Interval":
        """Hull of both intervals (the join)."""
        if self.lo < other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo < self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open and other.lo_open
        if self.hi > other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi > self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open and other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def intersect(self, other: "Interval") -> "Interval":
        """Meet of both intervals; an empty meet yields ``other``.

        (An empty intersection means the narrowing branch is dead; the
        constraint is returned so downstream checks stay quiet.)
        """
        if self.lo > other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo > self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open or other.lo_open
        if self.hi < other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi < self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open or other.hi_open
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            return other
        return Interval(lo, hi, lo_open, hi_open)

    # ---- arithmetic ----------------------------------------------------

    def neg(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.hi_open, self.lo_open)

    def add(self, other: "Interval") -> "Interval":
        lo = _ext_add(self.lo, other.lo, -_INF)
        hi = _ext_add(self.hi, other.hi, _INF)
        return Interval(
            lo, hi, self.lo_open or other.lo_open, self.hi_open or other.hi_open
        )

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def mul(self, other: "Interval") -> "Interval":
        corners = []
        for a, ao in ((self.lo, self.lo_open), (self.hi, self.hi_open)):
            for b, bo in ((other.lo, other.lo_open), (other.hi, other.hi_open)):
                corners.append((_ext_mul(a, b), ao or bo))
        # At equal corner values prefer the closed bound (the superset).
        lo, lo_open = min(corners, key=lambda c: (c[0], c[1]))
        hi, hi_open = max(corners, key=lambda c: (c[0], not c[1]))
        return Interval(lo, hi, lo_open, hi_open)

    def reciprocal(self) -> "Interval | None":
        """``1/x`` for an interval excluding zero; None otherwise."""
        if self.contains_zero():
            return None
        if self.lo >= 0.0:
            lo = 0.0 if self.hi == _INF else _recip(self.hi)
            if lo == _INF:
                # 1/hi overflowed past the float range.  The lower
                # bound must round DOWN to stay a superset of the true
                # reciprocals, so clamp it to the largest finite float.
                lo = math.nextafter(_INF, 0.0)
            # repro: ignore[RPR004] exact IEEE sentinel bound, not data
            hi = _INF if self.lo == 0.0 else _recip(self.lo)
            return Interval(lo, hi, self.hi_open, self.lo_open)
        if self.hi <= 0.0:
            flipped = self.neg().reciprocal()
            return flipped.neg() if flipped is not None else None
        return None

    def div(self, other: "Interval") -> "Interval | None":
        recip = other.reciprocal()
        return self.mul(recip) if recip is not None else None

    def abs(self) -> "Interval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return self.neg()
        mirrored = self.neg()
        hi, hi_open = max(
            ((self.hi, self.hi_open), (mirrored.hi, mirrored.hi_open)),
            key=lambda c: (c[0], not c[1]),
        )
        return Interval(0.0, hi, False, hi_open)

    def min(self, other: "Interval") -> "Interval":
        if self.lo < other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo < self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open and other.lo_open
        if self.hi < other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi < self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open and other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def max(self, other: "Interval") -> "Interval":
        return self.neg().min(other.neg()).neg()

    def clip(self, lo_bound: "Interval", hi_bound: "Interval") -> "Interval":
        return self.max(lo_bound).min(hi_bound)


def _ext_add(a: float, b: float, default: float) -> float:
    total = a + b
    return default if math.isnan(total) else total


def _ext_mul(a: float, b: float) -> float:
    # Bound arithmetic uses the 0 * inf = 0 convention: the products of
    # interior points approach 0 from one side and the other corners
    # cover the unbounded side.
    if a == 0.0 or b == 0.0:  # repro: ignore[RPR004] exact-zero bound
        return 0.0
    return a * b


def _recip(x: float) -> float:
    try:
        return 1.0 / x
    except (ZeroDivisionError, OverflowError):  # pragma: no cover - guarded
        return _INF if x >= 0 else -_INF


def exp_interval(x: Interval | None) -> Interval:
    """Float-honest ``exp``: closed at 0 and inf (under/overflow)."""
    if x is None:
        return Interval(0.0, _INF)
    lo = _safe_exp(x.lo)
    hi = _safe_exp(x.hi)
    return Interval(lo, hi, x.lo_open and lo > 0.0, x.hi_open and hi < _INF)


def _safe_exp(v: float) -> float:
    if v == _INF:
        return _INF
    if v == -_INF:
        return 0.0
    try:
        return math.exp(v)
    except OverflowError:
        return _INF


def log_interval(x: Interval | None) -> Interval | None:
    """``log`` over the positive part of ``x``; domain errors are the
    caller's diagnostic, not ours."""
    if x is None:
        return None
    lo = -_INF if x.lo <= 0.0 else math.log(x.lo)
    if x.hi <= 0.0:
        return None
    hi = _INF if x.hi == _INF else math.log(x.hi)
    return Interval(lo, hi, x.lo_open and lo > -_INF, x.hi_open and hi < _INF)


def sqrt_interval(x: Interval | None) -> Interval | None:
    if x is None:
        return None
    if x.hi < 0.0:
        return None
    lo = math.sqrt(max(x.lo, 0.0))
    hi = _INF if x.hi == _INF else math.sqrt(x.hi)
    # Unlike exp, sqrt cannot underflow a positive value to zero, so a
    # strict lower bound stays strict (clamping from negatives closes it).
    lo_open = x.lo_open if x.lo >= 0.0 else False
    return Interval(lo, hi, lo_open, x.hi_open and hi < _INF)


def pow_interval(
    base: Interval | None, exponent: Interval | None
) -> Interval | None:
    """``base ** exponent`` for nonnegative bases; None when the base
    may be negative (complex/NaN territory)."""
    if base is None:
        return None
    if base.lo < 0.0:
        return None
    if exponent is None:
        # exp(e * log b) for unconstrained e: anything in [0, inf],
        # both ends attained via float under/overflow.
        return Interval(0.0, _INF)
    corners = []
    for b, bo in ((base.lo, base.lo_open), (base.hi, base.hi_open)):
        for e, eo in ((exponent.lo, exponent.lo_open), (exponent.hi, exponent.hi_open)):
            p = _safe_pow(b, e)
            if p is None:
                return Interval(0.0, _INF)
            corners.append((p, bo or eo))
    lo, lo_open = min(corners, key=lambda c: (c[0], c[1]))
    hi, hi_open = max(corners, key=lambda c: (c[0], not c[1]))
    return Interval(lo, hi, lo_open, hi_open)


def _safe_pow(b: float, e: float) -> float | None:
    try:
        result = b**e
    except OverflowError:
        return _INF
    except ZeroDivisionError:
        return _INF
    if isinstance(result, complex):  # pragma: no cover - nonneg base
        return None
    if math.isnan(result):
        return None
    return float(result)


def range_to_interval(rng: list | None) -> Interval | None:
    """A harvested ``[lo, hi, strict_lo]`` envelope as an interval."""
    if rng is None:
        return None
    lo, hi = rng[0], rng[1]
    strict = bool(rng[2]) if len(rng) > 2 else False
    return Interval(
        -_INF if lo is None else float(lo),
        _INF if hi is None else float(hi),
        lo_open=strict or lo is None,
        hi_open=hi is None,
    )


# ---------------------------------------------------------------------------
# The interpreter.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumericDiagnostic:
    """One numeric-safety diagnostic from the interval pass.

    Attributes:
        kind: ``domain`` (RPR301), ``nanflow`` (RPR303), or ``loop``
            (RPR310).
        line / col: 1-based anchor of the offending expression.
        message: human-readable description with the computed interval.
    """

    kind: str
    line: int
    col: int
    message: str


@dataclass(frozen=True)
class AbsVal:
    """One abstract value: interval bounds plus an is-array flag."""

    iv: Interval | None = None
    array: bool = False


UNKNOWN = AbsVal()

#: Call names whose presence marks a function as numerically guarded.
_GUARD_CALLS = frozenset(
    {"isfinite", "isnan", "nan_to_num", "where", "errstate", "clip"}
)

#: numpy attribute accesses that keep array-ness.
_ARRAY_ATTRS = frozenset({"T", "real", "imag", "flat"})

#: math/numpy ufunc-ish call tails handled algebraically.
_MIN_NAMES = frozenset({"min", "minimum", "fmin"})
_MAX_NAMES = frozenset({"max", "maximum", "fmax"})
_LOG_NAMES = frozenset({"log", "log2", "log10"})
_ABS_NAMES = frozenset({"abs", "absolute", "fabs"})


def _tail_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _call_root(func: ast.expr) -> str | None:
    """The leftmost name of a dotted call target (``np`` in ``np.exp``)."""
    base = func
    while isinstance(base, ast.Attribute):
        base = base.value
    return base.id if isinstance(base, ast.Name) else None


def _terminates(stmts: list[ast.stmt]) -> bool:
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Raise, ast.Return, ast.Continue, ast.Break)
    )


def _assigned_names(node: ast.stmt) -> set[str]:
    """Every name (re)bound anywhere inside ``node``."""
    names: set[str] = set()

    def collect(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                collect(elt)
        elif isinstance(target, ast.Starred):
            collect(target.value)

    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            for t in sub.targets:
                collect(t)
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
            collect(sub.target)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            collect(sub.target)
        elif isinstance(sub, (ast.With, ast.AsyncWith)):
            for item in sub.items:
                if item.optional_vars is not None:
                    collect(item.optional_vars)
    return names


class IntervalInterpreter:
    """Runs the interval pass over one parsed file.

    Args:
        table: the project-wide signature table (with ranges/values).
        module: the file's dotted module name (or None).
        imports: the file's local-name -> dotted-target import map.
    """

    def __init__(
        self, table: SignatureTable, module: str | None, imports: dict[str, str]
    ) -> None:
        self.table = table
        self.module = module
        self.hot = is_hot_module(module)
        self.diagnostics: list[NumericDiagnostic] = []
        self._imports = imports
        #: >0 inside np.errstate bodies / np.where arguments: the
        #: guarded-reciprocal idiom, exempt from domain diagnostics.
        self._suppress = 0
        #: whether the function being executed has any numeric guard.
        self._guarded = True

    # ---- entry point ---------------------------------------------------

    def run(self, tree: ast.Module) -> list[NumericDiagnostic]:
        self._guarded = True  # module bodies are not nanflow targets
        self._exec_block(tree.body, {})
        self._analyze_functions(tree, inherited=False)
        self.diagnostics.sort(key=lambda d: (d.line, d.col))
        return self.diagnostics

    def _analyze_functions(self, node: ast.AST, inherited: bool) -> None:
        """Interpret every function; closures inherit enclosing guards.

        A nested helper participates in its enclosing function's logic,
        so a guard anywhere in the outer function (``span = max(..,
        eps)`` followed by a raise, say) covers the closure too.
        """
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                guarded = inherited or self._function_guarded(child)
                self._guarded = guarded
                self._exec_block(child.body, self._seed_env(child))
                self._analyze_functions(child, guarded)
            else:
                self._analyze_functions(child, inherited)

    def _function_guarded(self, node) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Raise, ast.Assert)):
                return True
            if isinstance(sub, ast.Call):
                tail = _tail_name(sub.func)
                if tail is not None and (
                    tail in _GUARD_CALLS or tail.startswith("validate")
                ):
                    return True
        return False

    def _seed_env(self, node) -> dict[str, AbsVal]:
        env: dict[str, AbsVal] = {}
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            iv = range_to_interval(self.table.range_for_name(arg.arg))
            env[arg.arg] = AbsVal(iv, False)
        return env

    # ---- statements ----------------------------------------------------

    def _exec_block(self, stmts: list[ast.stmt], env: dict) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env)

    @staticmethod
    def _join_val(a: AbsVal, b: AbsVal) -> AbsVal:
        iv = a.iv.union(b.iv) if a.iv is not None and b.iv is not None else None
        return AbsVal(iv, a.array if a.array == b.array else False)

    @classmethod
    def _merge_into(cls, base: dict, *branches: dict) -> None:
        names = set(base)
        for branch in branches:
            names |= set(branch)
        for name in names:
            vals = [br.get(name, UNKNOWN) for br in branches]
            joined = vals[0]
            for val in vals[1:]:
                joined = cls._join_val(joined, val)
            base[name] = joined

    def _exec_stmt(self, stmt: ast.stmt, env: dict) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            if (
                len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Tuple)
                and isinstance(stmt.value, ast.Call)
                and value.array
            ):
                # Tuple unpack of an array-returning call (e.g.
                # np.broadcast_arrays): every target is an array.
                for elt in stmt.targets[0].elts:
                    self._bind(elt, AbsVal(None, True), env)
                return
            for target in stmt.targets:
                self._bind(target, value, env)
        elif isinstance(stmt, ast.AnnAssign):
            value = (
                self._eval(stmt.value, env)
                if stmt.value is not None
                else UNKNOWN
            )
            self._bind(stmt.target, value, env)
        elif isinstance(stmt, ast.AugAssign):
            value = self._eval(
                ast.copy_location(
                    ast.BinOp(left=stmt.target, op=stmt.op, right=stmt.value),
                    stmt,
                ),
                env,
            )
            self._bind(stmt.target, value, env)
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self._eval(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, env)
            then_env, else_env = dict(env), dict(env)
            self._narrow(stmt.test, then_env, True)
            self._narrow(stmt.test, else_env, False)
            self._exec_block(stmt.body, then_env)
            self._exec_block(stmt.orelse, else_env)
            body_exits = _terminates(stmt.body)
            else_exits = stmt.orelse and _terminates(stmt.orelse)
            if body_exits and not else_exits:
                # The guard idiom: `if bad: raise` — the narrowed else
                # environment IS the post-state.
                env.clear()
                env.update(else_env)
            elif else_exits and not body_exits:
                env.clear()
                env.update(then_env)
            else:
                self._merge_into(env, then_env, else_env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_val = self._eval(stmt.iter, env)
            self._check_loop(stmt, env, iter_val)
            # Loop soundness: anything assigned in the body (or the
            # target) is unknown both inside (later iterations) and
            # after the loop.
            for name in _assigned_names(stmt):
                env[name] = UNKNOWN
            body_env = dict(env)
            self._exec_block(stmt.body, body_env)
            self._exec_block(stmt.orelse, body_env)
            self._merge_into(env, env.copy(), body_env)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env)
            for name in _assigned_names(stmt):
                env[name] = UNKNOWN
            body_env = dict(env)
            self._exec_block(stmt.body, body_env)
            self._exec_block(stmt.orelse, body_env)
            self._merge_into(env, env.copy(), body_env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            errstate = any(
                isinstance(item.context_expr, ast.Call)
                and _tail_name(item.context_expr.func) == "errstate"
                for item in stmt.items
            )
            for item in stmt.items:
                self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, UNKNOWN, env)
            if errstate:
                self._suppress += 1
            self._exec_block(stmt.body, env)
            if errstate:
                self._suppress -= 1
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, env)
            handler_envs = []
            for handler in stmt.handlers:
                handler_env = dict(env)
                self._exec_block(handler.body, handler_env)
                handler_envs.append(handler_env)
            self._merge_into(env, env.copy(), *handler_envs)
            self._exec_block(stmt.orelse, env)
            self._exec_block(stmt.finalbody, env)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, env)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, env)
            self._narrow(stmt.test, env, True)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        # FunctionDef / ClassDef bodies are analyzed separately by run().

    def _bind(self, target: ast.expr, value: AbsVal, env: dict) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, UNKNOWN, env)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, UNKNOWN, env)
        # attribute/subscript targets: not tracked.

    # ---- branch narrowing ----------------------------------------------

    def _narrow(self, test: ast.expr, env: dict, positive: bool) -> None:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._narrow(test.operand, env, not positive)
            return
        if isinstance(test, ast.BoolOp):
            if isinstance(test.op, ast.And) and positive:
                for value in test.values:
                    self._narrow(value, env, True)
            elif isinstance(test.op, ast.Or) and not positive:
                for value in test.values:
                    self._narrow(value, env, False)
            return
        if isinstance(test, ast.Call):
            # np.all(elementwise comparison): holds pointwise when true.
            if _tail_name(test.func) == "all" and len(test.args) == 1 and positive:
                self._narrow(test.args[0], env, True)
            return
        if not isinstance(test, ast.Compare):
            return
        if len(test.ops) > 1:
            if not positive:
                return  # negated chain is a disjunction: no information
            for i, op in enumerate(test.ops):
                left = test.left if i == 0 else test.comparators[i - 1]
                self._narrow_compare(left, op, test.comparators[i], env, True)
            return
        self._narrow_compare(
            test.left, test.ops[0], test.comparators[0], env, positive
        )

    _FLIP = {
        ast.Lt: ast.GtE,
        ast.LtE: ast.Gt,
        ast.Gt: ast.LtE,
        ast.GtE: ast.Lt,
    }

    def _narrow_compare(
        self,
        left: ast.expr,
        op: ast.cmpop,
        right: ast.expr,
        env: dict,
        positive: bool,
    ) -> None:
        if not positive:
            flipped = self._FLIP.get(type(op))
            if flipped is None:
                if isinstance(op, ast.NotEq):
                    op = ast.Eq()
                else:
                    return
            else:
                op = flipped()
        if isinstance(left, ast.Name):
            bound = self._eval(right, dict(env)).iv
            if bound is not None:
                self._apply_constraint(left.id, op, bound, env)
        if isinstance(right, ast.Name):
            mirrored = {
                ast.Lt: ast.Gt,
                ast.LtE: ast.GtE,
                ast.Gt: ast.Lt,
                ast.GtE: ast.LtE,
                ast.Eq: ast.Eq,
            }.get(type(op))
            if mirrored is not None:
                bound = self._eval(left, dict(env)).iv
                if bound is not None:
                    self._apply_constraint(right.id, mirrored(), bound, env)

    def _apply_constraint(
        self, name: str, op: ast.cmpop, bound: Interval, env: dict
    ) -> None:
        if isinstance(op, ast.Lt):
            constraint = Interval(-_INF, bound.hi, True, True)
        elif isinstance(op, ast.LtE):
            constraint = Interval(-_INF, bound.hi, True, bound.hi_open)
        elif isinstance(op, ast.Gt):
            constraint = Interval(bound.lo, _INF, True, True)
        elif isinstance(op, ast.GtE):
            constraint = Interval(bound.lo, _INF, bound.lo_open, True)
        elif isinstance(op, ast.Eq):
            constraint = bound
        else:
            return
        current = env.get(name, UNKNOWN)
        iv = constraint if current.iv is None else current.iv.intersect(constraint)
        env[name] = AbsVal(iv, current.array)

    # ---- expressions ---------------------------------------------------

    def _eval(self, node: ast.expr, env: dict) -> AbsVal:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return AbsVal(Interval.point(float(node.value)), False)
            if isinstance(node.value, (int, float)):
                return AbsVal(Interval.point(float(node.value)), False)
            return UNKNOWN
        if isinstance(node, ast.Name):
            return self._name_val(node.id, env)
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value, env)
            if node.attr.isupper():
                value = self.table.values.get(node.attr)
                if value is not None:
                    return AbsVal(Interval.point(value), False)
            iv = range_to_interval(self.table.range_for_name(node.attr))
            return AbsVal(iv, base.array and node.attr in _ARRAY_ATTRS)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            inner = self._eval(node.operand, env)
            if isinstance(node.op, ast.USub):
                return AbsVal(
                    inner.iv.neg() if inner.iv is not None else None,
                    inner.array,
                )
            if isinstance(node.op, ast.UAdd):
                return inner
            if isinstance(node.op, ast.Not):
                return AbsVal(Interval(0.0, 1.0), False)
            return UNKNOWN
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                self._eval(operand, env)
            return AbsVal(Interval(0.0, 1.0), False)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            a = self._eval(node.body, env)
            b = self._eval(node.orelse, env)
            return self._join_val(a, b)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._eval(value, env)
            return UNKNOWN
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value, env)
            self._eval(node.slice, env)
            # Element/row of a bounded container keeps the elementwise
            # bounds; a row of a 2D+ array is still an array.
            return AbsVal(base.iv, base.array)
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self._eval(elt, env)
            return UNKNOWN
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self._eval(key, env)
            for value in node.values:
                self._eval(value, env)
            return UNKNOWN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._eval_comprehension(node.elt, node.generators, env)
            return UNKNOWN
        if isinstance(node, ast.DictComp):
            self._eval_comprehension(node.key, node.generators, env)
            self._eval(node.value, dict(env))
            return UNKNOWN
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._eval(value.value, env)
            return UNKNOWN
        return UNKNOWN

    def _eval_comprehension(self, elt, generators, env: dict) -> None:
        inner = dict(env)
        for gen in generators:
            self._eval(gen.iter, inner)
            self._bind(gen.target, UNKNOWN, inner)
            for cond in gen.ifs:
                self._eval(cond, inner)
        self._eval(elt, inner)

    def _name_val(self, name: str, env: dict) -> AbsVal:
        if name in env:
            return env[name]
        if name.isupper():
            value = self.table.values.get(name)
            if value is not None:
                return AbsVal(Interval.point(value), False)
        return AbsVal(range_to_interval(self.table.range_for_name(name)), False)

    # ---- arithmetic + domain checks ------------------------------------

    def _eval_binop(self, node: ast.BinOp, env: dict) -> AbsVal:
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        array = left.array or right.array
        if isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod)):
            self._check_division(node, right)
            iv = (
                left.iv.div(right.iv)
                if left.iv is not None and right.iv is not None
                else None
            )
            if not isinstance(node.op, ast.Div):
                iv = None  # floor/mod: bounds not tracked
            return AbsVal(iv, array)
        if left.iv is None or right.iv is None:
            if isinstance(node.op, ast.Pow):
                return AbsVal(pow_interval(left.iv, right.iv), array)
            return AbsVal(None, array)
        if isinstance(node.op, ast.Add):
            return AbsVal(left.iv.add(right.iv), array)
        if isinstance(node.op, ast.Sub):
            return AbsVal(left.iv.sub(right.iv), array)
        if isinstance(node.op, ast.Mult):
            return AbsVal(left.iv.mul(right.iv), array)
        if isinstance(node.op, ast.Pow):
            return AbsVal(pow_interval(left.iv, right.iv), array)
        return AbsVal(None, array)

    def _check_division(self, node: ast.BinOp, denom: AbsVal) -> None:
        if self._suppress:
            return
        if denom.iv is not None:
            if denom.iv.contains_zero():
                self._diag(
                    "domain",
                    node,
                    "division by a value whose interval "
                    f"{_fmt(denom.iv)} contains zero",
                )
            return
        if self.hot and not self._guarded:
            self._diag(
                "nanflow",
                node,
                "division by a value not provably nonzero in a hot "
                "function with no finite-check or guard",
            )

    def _diag(self, kind: str, node: ast.AST, message: str) -> None:
        self.diagnostics.append(
            NumericDiagnostic(
                kind=kind,
                line=node.lineno,
                col=node.col_offset + 1,
                message=message,
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

    def _eval_call(self, node: ast.Call, env: dict) -> AbsVal:
        tail = _tail_name(node.func)
        root = _call_root(node.func)
        root_target = self._imports.get(root, root) if root else None
        is_numpy = root_target == "numpy"
        is_math = root_target == "math"

        if tail == "where" and is_numpy and len(node.args) == 3:
            # The guarded-select idiom: the unselected branch's domain
            # errors are exactly what np.where is there to mask.
            self._eval(node.args[0], env)
            self._suppress += 1
            a = self._eval(node.args[1], env)
            b = self._eval(node.args[2], env)
            self._suppress -= 1
            return AbsVal(self._join_val(a, b).iv, True)

        args = [
            self._eval(a.value if isinstance(a, ast.Starred) else a, env)
            for a in node.args
        ]
        for kw in node.keywords:
            self._eval(kw.value, env)

        obj = (
            self._eval(node.func.value, dict(env))
            if isinstance(node.func, ast.Attribute)
            else UNKNOWN
        )
        any_array = any(a.array for a in args)

        if tail == "exp" and (is_numpy or is_math) and len(args) == 1:
            self._check_exp(node, args[0])
            return AbsVal(exp_interval(args[0].iv), args[0].array)
        if tail in ("expm1",) and (is_numpy or is_math) and len(args) == 1:
            ev = exp_interval(args[0].iv)
            return AbsVal(ev.sub(Interval.point(1.0)), args[0].array)
        if tail in _LOG_NAMES and (is_numpy or is_math) and len(args) == 1:
            self._check_log(node, args[0])
            return AbsVal(log_interval(args[0].iv), args[0].array)
        if tail == "log1p" and (is_numpy or is_math) and len(args) == 1:
            shifted = (
                args[0].iv.add(Interval.point(1.0))
                if args[0].iv is not None
                else None
            )
            self._check_log(node, AbsVal(shifted, args[0].array))
            return AbsVal(log_interval(shifted), args[0].array)
        if tail == "sqrt" and (is_numpy or is_math) and len(args) == 1:
            self._check_sqrt(node, args[0])
            return AbsVal(sqrt_interval(args[0].iv), args[0].array)
        if tail in _ABS_NAMES and len(args) == 1:
            iv = args[0].iv.abs() if args[0].iv is not None else None
            return AbsVal(iv, args[0].array)
        if tail in _MIN_NAMES and len(args) >= 2:
            return AbsVal(self._fold(args, Interval.min), any_array)
        if tail in _MAX_NAMES and len(args) >= 2:
            return AbsVal(self._fold(args, Interval.max), any_array)
        if tail in ("min", "max") and len(args) == 1:
            # min(xs)/max(xs) over one container: elementwise bounds hold.
            return AbsVal(args[0].iv, False)
        if tail == "clip":
            if len(args) == 3:  # np.clip(x, lo, hi)
                x, lo, hi = args
            elif len(args) == 2 and isinstance(node.func, ast.Attribute):
                x, (lo, hi) = obj, args  # x.clip(lo, hi)
            else:
                x = lo = hi = UNKNOWN
            if x.iv is not None and lo.iv is not None and hi.iv is not None:
                return AbsVal(x.iv.clip(lo.iv, hi.iv), x.array or any_array)
            return AbsVal(None, x.array or any_array)
        if tail in ("float", "int") and len(args) == 1:
            return AbsVal(args[0].iv, False)
        if tail in ("asarray", "array", "ascontiguousarray", "atleast_1d"):
            iv = args[0].iv if args else None
            return AbsVal(iv, True)
        if tail in ("reshape", "ravel", "flatten", "astype", "copy", "squeeze"):
            if isinstance(node.func, ast.Attribute):
                return AbsVal(obj.iv, obj.array)

        resolved = self._resolve_signature(node.func)
        if resolved is not None and resolved[1].get("return"):
            iv = range_to_interval(
                self.table.range_for_unit(resolved[1]["return"])
            )
            if iv is not None:
                return AbsVal(iv, False)

        if is_numpy:
            return AbsVal(None, True)
        if isinstance(node.func, ast.Attribute) and obj.array:
            return AbsVal(None, True)
        if tail:
            # Fall back to the callee's own name: mttf_hours() > 0.
            iv = range_to_interval(self.table.range_for_name(tail))
            if iv is not None:
                return AbsVal(iv, False)
        return UNKNOWN

    @staticmethod
    def _fold(args: list[AbsVal], op) -> Interval | None:
        iv = args[0].iv
        for other in args[1:]:
            if iv is None or other.iv is None:
                return None
            iv = op(iv, other.iv)
        return iv

    def _check_exp(self, node: ast.Call, arg: AbsVal) -> None:
        if self._suppress or not self.hot or self._guarded:
            return
        if arg.iv is None or arg.iv.hi == _INF:
            self._diag(
                "nanflow",
                node,
                "exp of an unbounded value can overflow to inf in a hot "
                "function with no finite-check or guard",
            )

    def _check_log(self, node: ast.Call, arg: AbsVal) -> None:
        if self._suppress:
            return
        if arg.iv is not None and (
            # repro: ignore[RPR004] exact-zero lattice bound, not data
            arg.iv.lo < 0.0 or (arg.iv.lo == 0.0 and not arg.iv.lo_open)
        ):
            self._diag(
                "domain",
                node,
                f"log of a value whose interval {_fmt(arg.iv)} reaches "
                "zero or below",
            )

    def _check_sqrt(self, node: ast.Call, arg: AbsVal) -> None:
        if self._suppress:
            return
        if arg.iv is not None and arg.iv.lo < 0.0:
            self._diag(
                "domain",
                node,
                f"sqrt of a value whose interval {_fmt(arg.iv)} reaches "
                "below zero",
            )

    # ---- loops ---------------------------------------------------------

    def _check_loop(self, stmt, env: dict, iter_val: AbsVal) -> None:
        if not self.hot or not isinstance(stmt, ast.For):
            return
        if self._iterates_array(stmt.iter, env, iter_val):
            self._diag(
                "loop",
                stmt,
                "Python-level loop over array rows in a hot module; "
                "vectorize with numpy operations",
            )

    def _iterates_array(
        self, node: ast.expr, env: dict, value: AbsVal
    ) -> bool:
        if value.array:
            return True
        if not isinstance(node, ast.Call):
            return False
        tail = _tail_name(node.func)
        if tail == "zip":
            return any(
                self._eval(a, dict(env)).array
                for a in node.args
                if not isinstance(a, ast.Starred)
            )
        if tail == "enumerate" and node.args:
            inner = node.args[0]
            return self._iterates_array(
                inner, env, self._eval(inner, dict(env))
            )
        if tail == "range" and node.args:
            first = node.args[0] if len(node.args) == 1 else node.args[1]
            if isinstance(first, ast.Call) and _tail_name(first.func) == "len":
                if first.args:
                    return self._eval(first.args[0], dict(env)).array
            # range(x.shape[0]) — iterating an array dimension.
            probe = first
            while isinstance(probe, ast.Subscript):
                probe = probe.value
            if isinstance(probe, ast.Attribute) and probe.attr == "shape":
                return self._eval(probe.value, dict(env)).array
        return False


def _fmt(iv: Interval) -> str:
    lo = "(" if iv.lo_open else "["
    hi = ")" if iv.hi_open else "]"
    return f"{lo}{iv.lo:g}, {iv.hi:g}{hi}"


def analyze_intervals(ctx) -> list[NumericDiagnostic]:
    """Run the interval pass over one file's analysis context."""
    interpreter = IntervalInterpreter(
        ctx.project.unit_signatures, ctx.module, ctx.imports
    )
    return interpreter.run(ctx.tree)


# ---------------------------------------------------------------------------
# Interval facts and the project-wide range pass (RPR302).
# ---------------------------------------------------------------------------


def _fact_value(node: ast.expr) -> dict | None:
    """A JSON-able locally-known value: literal or constant reference."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _fact_value(node.operand)
        if inner is not None and "value" in inner:
            return {"value": -inner["value"]}
        return None
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    ):
        return {"value": float(node.value)}
    if isinstance(node, ast.Name) and node.id.isupper():
        return {"ref": node.id}
    if isinstance(node, ast.Attribute) and node.attr.isupper():
        return {"ref": node.attr}
    return None


def harvest_interval_facts(ctx) -> dict:
    """One file's boundary-crossing numeric values.

    A function of the file's content (plus its path-derived module
    name) alone.  Resolution against the signature/range tables happens
    later, in :func:`run_range_pass`.
    """
    module = ctx.module
    imports = ctx.imports
    lines = ctx.lines

    def snippet(line: int) -> str:
        return lines[line - 1].strip() if 1 <= line <= len(lines) else ""

    consts: list[dict] = []
    defaults: list[dict] = []
    calls: list[dict] = []

    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if not (isinstance(target, ast.Name) and target.id.isupper()):
                    continue
                if stmt.value is None:
                    continue
                fact = _fact_value(stmt.value)
                if fact is not None and "value" in fact:
                    consts.append(
                        {
                            "name": target.id,
                            "value": fact["value"],
                            "line": stmt.lineno,
                            "col": stmt.col_offset + 1,
                            "snippet": snippet(stmt.lineno),
                        }
                    )

    for node in ctx.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = [*a.posonlyargs, *a.args]
            for arg, default in zip(
                positional[len(positional) - len(a.defaults) :], a.defaults
            ):
                fact = _fact_value(default)
                if fact is not None:
                    defaults.append(
                        {
                            "func": node.name,
                            "param": arg.arg,
                            **fact,
                            "line": default.lineno,
                            "col": default.col_offset + 1,
                            "snippet": snippet(default.lineno),
                        }
                    )
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is None:
                    continue
                fact = _fact_value(default)
                if fact is not None:
                    defaults.append(
                        {
                            "func": node.name,
                            "param": arg.arg,
                            **fact,
                            "line": default.lineno,
                            "col": default.col_offset + 1,
                            "snippet": snippet(default.lineno),
                        }
                    )
        elif isinstance(node, ast.Call):
            targets: list[str] = []
            method: str | None = None
            func = node.func
            if isinstance(func, ast.Name):
                imported = imports.get(func.id)
                if imported:
                    targets.append(imported)
                if module:
                    targets.append(f"{module}.{func.id}")
            elif isinstance(func, ast.Attribute):
                parts: list[str] = []
                base = func
                while isinstance(base, ast.Attribute):
                    parts.append(base.attr)
                    base = base.value
                if isinstance(base, ast.Name):
                    root = imports.get(base.id, base.id)
                    targets.append(".".join([root, *reversed(parts)]))
                method = func.attr
            args: list[dict] = []
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    continue
                fact = _fact_value(arg)
                if fact is not None:
                    args.append(
                        {
                            "pos": i,
                            **fact,
                            "line": arg.lineno,
                            "col": arg.col_offset + 1,
                            "snippet": snippet(arg.lineno),
                        }
                    )
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                fact = _fact_value(kw.value)
                if fact is not None:
                    args.append(
                        {
                            "kw": kw.arg,
                            **fact,
                            "line": kw.value.lineno,
                            "col": kw.value.col_offset + 1,
                            "snippet": snippet(kw.value.lineno),
                        }
                    )
            if args and (targets or method):
                calls.append(
                    {"targets": targets, "method": method, "args": args}
                )

    return {"consts": consts, "defaults": defaults, "calls": calls}


def _outside(value: float, rng: list) -> bool:
    lo, hi = rng[0], rng[1]
    strict = bool(rng[2]) if len(rng) > 2 else False
    if lo is not None and (value < lo or (strict and value == lo)):
        return True
    if hi is not None and value > hi:
        return True
    return False


def _fmt_range(rng: list) -> str:
    lo = "-inf" if rng[0] is None else f"{rng[0]:g}"
    hi = "inf" if rng[1] is None else f"{rng[1]:g}"
    strict = len(rng) > 2 and rng[2]
    return f"{'(' if strict else '['}{lo}, {hi}]"


def run_range_pass(
    facts_by_path: dict[str, dict], table: SignatureTable
) -> list[dict]:
    """Check harvested interval facts against the declared envelopes.

    Returns RPR302 finding payloads (plain dicts with ``path``/``line``
    /``col``/``message``/``snippet``/``context``), which the analyzer
    turns into findings and filters through suppressions.
    """
    out: list[dict] = []

    def resolve_value(fact: dict) -> float | None:
        if "value" in fact:
            return fact["value"]
        return table.values.get(fact.get("ref", ""))

    def emit(
        fact: dict, path: str, rng: list, value: float, context: str, what: str
    ) -> None:
        spelled = (
            f"{value:g}"
            if "value" in fact
            else f"{fact['ref']} = {value:g}"
        )
        out.append(
            {
                "path": path,
                "line": fact["line"],
                "col": fact["col"],
                "snippet": fact.get("snippet", ""),
                "context": context,
                "message": (
                    f"{what} {spelled} is outside the declared physical "
                    f"range {_fmt_range(rng)}"
                ),
            }
        )

    for path, facts in sorted(facts_by_path.items()):
        for const in facts.get("consts", []):
            rng = table.range_for_name(const["name"])
            if rng is not None and _outside(const["value"], rng):
                emit(
                    const,
                    path,
                    rng,
                    const["value"],
                    f"const:{const['name']}",
                    f"constant {const['name']} =",
                )
        for dflt in facts.get("defaults", []):
            rng = table.range_for_name(dflt["param"])
            value = resolve_value(dflt)
            if rng is not None and value is not None and _outside(value, rng):
                emit(
                    dflt,
                    path,
                    rng,
                    value,
                    f"default:{dflt['func']}:{dflt['param']}",
                    f"default for {dflt['func']}({dflt['param']}=...)",
                )
        for call in facts.get("calls", []):
            qual: str | None = None
            sig: dict | None = None
            for target in call.get("targets", []):
                if target in table.functions:
                    qual, sig = target, table.functions[target]
                    break
            if sig is None and call.get("method"):
                mqual = table.methods.get(call["method"])
                if mqual is not None:
                    qual, sig = mqual, table.functions[mqual]
            if sig is None:
                continue
            params: list[list] = sig.get("params", [])
            by_name = {entry[0]: entry[1] for entry in params}
            for arg in call["args"]:
                if "pos" in arg:
                    if arg["pos"] >= len(params):
                        continue
                    param, unit = params[arg["pos"]][0], params[arg["pos"]][1]
                else:
                    param = arg["kw"]
                    if param not in by_name:
                        continue
                    unit = by_name[param]
                rng = (
                    table.range_for_unit(unit)
                    if unit is not None
                    else table.range_for_name(param)
                )
                value = resolve_value(arg)
                if rng is None or value is None or not _outside(value, rng):
                    continue
                emit(
                    arg,
                    path,
                    rng,
                    value,
                    f"call:{qual}:{param}",
                    f"argument {param!r} of {qual}() =",
                )
    out.sort(key=lambda f: (f["path"], f["line"], f["col"]))
    return out
