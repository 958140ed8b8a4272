"""Physical-unit model and unit-signature harvesting.

The dataflow pass (:mod:`repro.analysis.dataflow`) needs three inputs
this module provides without importing any analyzed code:

- a **units lattice**: named units (``K``, ``degC``, ``V``, ``GHz``,
  ``eV``, ``FIT``, ``hours``, ``1``, ...) grouped into dimensions
  (temperature, voltage, frequency, time, failure rate, ...), plus a
  few algebraic facts (a difference of two absolute temperatures is a
  temperature *delta*; device-hours over hours is a FIT rate);
- **name-based inference**: the RPR001 suffix convention read in
  reverse — ``peak_temperature_k`` carries kelvin, ``fit_target``
  carries FIT, ``frequency_ratio`` is dimensionless;
- **signature harvesting**: for every function, method, and dataclass
  constructor in a parsed file, the inferred unit of each parameter and
  of the return value, keyed by dotted qualname.  ``constants.py``'s
  ``CONSTANT_UNITS`` table is read straight from its AST dict literal,
  so explicitly annotated constants override name inference.

Everything harvested is plain JSON-able data, merged into one
cross-module signature table per run.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass


class Dim(enum.Enum):
    """Physical dimension of a unit (the lattice's coarse level)."""

    TEMPERATURE = "temperature"
    TEMPERATURE_DELTA = "temperature-delta"
    VOLTAGE = "voltage"
    FREQUENCY = "frequency"
    POWER = "power"
    ENERGY = "energy"
    TIME = "time"
    RATE = "failure-rate"
    AREA = "area"
    DEVICE_HOURS = "device-hours"
    DIMENSIONLESS = "dimensionless"


@dataclass(frozen=True)
class Unit:
    """One named unit; equality is by name (GHz and Hz are distinct)."""

    name: str
    dim: Dim

    def __str__(self) -> str:
        return self.name


def _mk(name: str, dim: Dim) -> Unit:
    unit = Unit(name, dim)
    UNITS[name] = unit
    return unit


#: name -> Unit for every unit the lattice knows.
UNITS: dict[str, Unit] = {}

KELVIN = _mk("K", Dim.TEMPERATURE)
CELSIUS = _mk("degC", Dim.TEMPERATURE)
DELTA_K = _mk("deltaK", Dim.TEMPERATURE_DELTA)
VOLT = _mk("V", Dim.VOLTAGE)
MILLIVOLT = _mk("mV", Dim.VOLTAGE)
HERTZ = _mk("Hz", Dim.FREQUENCY)
KILOHERTZ = _mk("kHz", Dim.FREQUENCY)
MEGAHERTZ = _mk("MHz", Dim.FREQUENCY)
GIGAHERTZ = _mk("GHz", Dim.FREQUENCY)
WATT = _mk("W", Dim.POWER)
MILLIWATT = _mk("mW", Dim.POWER)
JOULE = _mk("J", Dim.ENERGY)
ELECTRONVOLT = _mk("eV", Dim.ENERGY)
FIT = _mk("FIT", Dim.RATE)
HOURS = _mk("hours", Dim.TIME)
YEARS = _mk("years", Dim.TIME)
SECONDS = _mk("s", Dim.TIME)
MILLISECONDS = _mk("ms", Dim.TIME)
MM2 = _mk("mm2", Dim.AREA)
M2 = _mk("m2", Dim.AREA)
UM2 = _mk("um2", Dim.AREA)
DEVICE_HOURS = _mk("device_hours", Dim.DEVICE_HOURS)
DIMENSIONLESS = _mk("1", Dim.DIMENSIONLESS)


def unit_by_name(name: str) -> Unit | None:
    """Look up a unit by its lattice name; compound spellings are None."""
    return UNITS.get(name)


#: final name token -> unit, the RPR001 suffix convention read backwards.
SUFFIX_UNITS: dict[str, Unit] = {
    "k": KELVIN,
    "kelvin": KELVIN,
    "c": CELSIUS,
    "celsius": CELSIUS,
    "v": VOLT,
    "volts": VOLT,
    "mv": MILLIVOLT,
    "hz": HERTZ,
    "khz": KILOHERTZ,
    "mhz": MEGAHERTZ,
    "ghz": GIGAHERTZ,
    "w": WATT,
    "watts": WATT,
    "mw": MILLIWATT,
    "j": JOULE,
    "ev": ELECTRONVOLT,
    "fit": FIT,
    "hours": HOURS,
    "h": HOURS,
    "years": YEARS,
    "s": SECONDS,
    "ms": MILLISECONDS,
    "mm2": MM2,
    "m2": M2,
    "um2": UM2,
}

#: final tokens that mark a name as a pure number (ratios, counts, ...).
DIMENSIONLESS_TOKENS = frozenset(
    {
        "ratio", "scale", "factor", "fraction", "exponent", "index",
        "steps", "count", "density", "band", "rel", "activity",
        "weight", "bias", "probability", "share", "shares", "margin",
        "ipc", "cpi",
    }
)

#: qualifier tokens that carry no unit of their own; inference retries
#: on the preceding token (``fit_target`` -> FIT, ``vdd_nominal`` -> ?).
META_TOKENS = frozenset(
    {
        "target", "budget", "limit", "total", "nominal", "qual",
        "avg", "mean", "max", "min", "peak", "base", "cold", "hot",
        "budgets",
    }
)

#: leading tokens that mark a relative (hence dimensionless) quantity.
RELATIVE_TOKENS = frozenset({"rel", "relative"})


def unit_from_name(name: str) -> Unit | None:
    """Infer a unit from an identifier, or None when inconclusive.

    Mirrors RPR001's suffix convention: the *final* token names the
    unit; qualifier tokens (``_target``, ``_nominal``) defer to the
    token before them; ``by_<key>`` container suffixes are stripped
    (``power_w_by_block`` carries watts); ``per`` marks a compound
    (``BOLTZMANN_EV_PER_K``) the lattice deliberately does not track.
    """
    tokens = [t for t in name.lower().split("_") if t]
    if not tokens:
        return None
    if tokens[0] in RELATIVE_TOKENS:
        return DIMENSIONLESS
    if "per" in tokens:
        return None
    if "by" in tokens:
        tokens = tokens[: tokens.index("by")]
    while tokens:
        last = tokens[-1]
        if last in SUFFIX_UNITS:
            return SUFFIX_UNITS[last]
        if last in DIMENSIONLESS_TOKENS:
            return DIMENSIONLESS
        if last in META_TOKENS:
            tokens = tokens[:-1]
            continue
        return None
    return None


# ---------------------------------------------------------------------------
# Signature harvesting.
#
# A harvest is one file's contribution to the project-wide unit
# signature table, as plain JSON-able dicts:
#
#   {"functions": {"pkg.mod.func":      {"params": [["t_k", "K"], ...],
#                                        "return": "hours" | None},
#                  "pkg.mod.Class":     ...   (constructor)
#                  "pkg.mod.Class.fn":  ...},
#    "constants": {"TARGET_FIT": "FIT", ...}}
# ---------------------------------------------------------------------------

#: Name of the explicit-annotation table read from constants.py.
CONSTANT_UNITS_NAME = "CONSTANT_UNITS"

#: Name of the declared physical-envelope table read from constants.py.
PHYSICAL_RANGES_NAME = "PHYSICAL_RANGES"

_SKIP_PARAMS = frozenset({"self", "cls"})


def _param_entries(args: ast.arguments) -> list[list[str | None]]:
    entries: list[list[str | None]] = []
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.arg in _SKIP_PARAMS:
            continue
        unit = unit_from_name(arg.arg)
        entries.append([arg.arg, unit.name if unit else None])
    return entries


def _function_signature(node: ast.FunctionDef | ast.AsyncFunctionDef) -> dict:
    ret = unit_from_name(node.name)
    return {
        "params": _param_entries(node.args),
        "return": ret.name if ret else None,
    }


def _dataclass_constructor(node: ast.ClassDef) -> dict | None:
    """Constructor signature from a class body's annotated fields.

    Good enough for the frozen dataclasses this repo uses as specs; a
    class with an explicit ``__init__`` is harvested from that instead.
    """
    params: list[list[str | None]] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            unit = unit_from_name(stmt.target.id)
            params.append([stmt.target.id, unit.name if unit else None])
    if not params:
        return None
    return {"params": params, "return": None}


def _constant_units_literal(node: ast.expr) -> dict[str, str]:
    """Parse an explicit ``CONSTANT_UNITS = {...}`` dict literal."""
    out: dict[str, str] = {}
    if not isinstance(node, ast.Dict):
        return out
    for key, value in zip(node.keys, node.values):
        if (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            out[key.value] = value.value
    return out


def _numeric_literal(node: ast.expr) -> float | None:
    """The numeric value of a literal expression, or None.

    Accepts plain int/float constants and a leading unary minus; bools
    are rejected (they are ints to Python but not physical values).
    """
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _numeric_literal(node.operand)
        return None if inner is None else -inner
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    ):
        return float(node.value)
    return None


def _physical_ranges_literal(
    node: ast.expr, values: dict[str, float]
) -> dict[str, list]:
    """Parse a ``PHYSICAL_RANGES = {...}`` dict literal.

    Each value is normalised to ``[lo, hi, strict_lo]`` with numeric or
    null bounds.  Bound entries that are bare UPPER_CASE names resolve
    against the same file's numeric constants (``values``); entries
    that cannot be resolved drop the whole range rather than inventing
    a bound.
    """
    out: dict[str, list] = {}
    if not isinstance(node, ast.Dict):
        return out
    for key, value in zip(node.keys, node.values):
        if not (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and isinstance(value, (ast.List, ast.Tuple))
            and len(value.elts) in (2, 3)
        ):
            continue
        bounds: list = []
        ok = True
        for elt in value.elts[:2]:
            if isinstance(elt, ast.Constant) and elt.value is None:
                bounds.append(None)
                continue
            num = _numeric_literal(elt)
            if num is None and isinstance(elt, ast.Name) and elt.id.isupper():
                num = values.get(elt.id)
            if num is None and not (
                isinstance(elt, ast.Constant) and elt.value is None
            ):
                ok = False
                break
            bounds.append(num)
        if not ok:
            continue
        strict_lo = False
        if len(value.elts) == 3:
            flag = value.elts[2]
            if isinstance(flag, ast.Constant) and isinstance(flag.value, bool):
                strict_lo = flag.value
            else:
                continue
        out[key.value] = [bounds[0], bounds[1], strict_lo]
    return out


def harvest_signatures(tree: ast.Module, module: str | None) -> dict:
    """One file's unit signatures, constant units/values, and ranges.

    Args:
        tree: the parsed file.
        module: its dotted module name (qualnames are skipped when
            None — a non-importable path contributes only constants).
    """
    functions: dict[str, dict] = {}
    constants: dict[str, str] = {}
    values: dict[str, float] = {}
    ranges_node: ast.expr | None = None

    def record(qual: str, sig: dict) -> None:
        if module is not None:
            functions[f"{module}.{qual}"] = sig

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            record(stmt.name, _function_signature(stmt))
        elif isinstance(stmt, ast.ClassDef):
            ctor = None
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    sig = _function_signature(sub)
                    record(f"{stmt.name}.{sub.name}", sig)
                    if sub.name == "__init__":
                        ctor = sig
            if ctor is None:
                ctor = _dataclass_constructor(stmt)
            if ctor is not None:
                record(stmt.name, ctor)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == CONSTANT_UNITS_NAME and stmt.value is not None:
                    constants.update(_constant_units_literal(stmt.value))
                elif target.id == PHYSICAL_RANGES_NAME and stmt.value is not None:
                    ranges_node = stmt.value
                elif target.id.isupper():
                    unit = unit_from_name(target.id)
                    if unit is not None:
                        constants.setdefault(target.id, unit.name)
                    if stmt.value is not None:
                        num = _numeric_literal(stmt.value)
                        if num is not None:
                            values.setdefault(target.id, num)
    # Ranges resolve last so bound names may reference constants defined
    # anywhere in the same file.
    ranges = (
        _physical_ranges_literal(ranges_node, values)
        if ranges_node is not None
        else {}
    )
    return {
        "functions": functions,
        "constants": constants,
        "values": values,
        "ranges": ranges,
    }


@dataclass(frozen=True)
class SignatureTable:
    """The merged, project-wide unit-signature table.

    Attributes:
        functions: dotted qualname -> ``{"params": ..., "return": ...}``.
        constants: UPPER_CASE constant name -> unit name (collisions
            across modules with *different* units are dropped).
        methods: final attribute name -> qualname, only for method
            names that resolve uniquely across the project.
        values: UPPER_CASE constant name -> numeric literal value
            (collisions with *different* values are dropped).
        ranges: unit or name-token -> ``[lo, hi, strict_lo]`` declared
            physical envelope (from ``PHYSICAL_RANGES``).
    """

    functions: dict[str, dict]
    constants: dict[str, str]
    methods: dict[str, str]
    values: dict[str, float]
    ranges: dict[str, list]

    @classmethod
    def merge(cls, harvests: list[dict]) -> "SignatureTable":
        functions: dict[str, dict] = {}
        constants: dict[str, str] = {}
        values: dict[str, float] = {}
        ranges: dict[str, list] = {}
        dropped: set[str] = set()
        dropped_values: set[str] = set()
        for harvest in harvests:
            functions.update(harvest.get("functions", {}))
            ranges.update(harvest.get("ranges", {}))
            for name, unit in harvest.get("constants", {}).items():
                if name in dropped:
                    continue
                if name in constants and constants[name] != unit:
                    del constants[name]
                    dropped.add(name)
                else:
                    constants[name] = unit
            for name, value in harvest.get("values", {}).items():
                if name in dropped_values:
                    continue
                if name in values and values[name] != value:
                    del values[name]
                    dropped_values.add(name)
                else:
                    values[name] = value
        by_method: dict[str, list[str]] = {}
        for qual in functions:
            by_method.setdefault(qual.rsplit(".", 1)[-1], []).append(qual)
        methods = {
            name: quals[0] for name, quals in by_method.items() if len(quals) == 1
        }
        return cls(
            functions=functions,
            constants=constants,
            methods=methods,
            values=values,
            ranges=ranges,
        )

    def constant_unit(self, name: str) -> Unit | None:
        spelled = self.constants.get(name)
        if spelled is None:
            return None
        return unit_by_name(spelled)

    def range_for_unit(self, unit_name: str) -> list | None:
        """The declared ``[lo, hi, strict_lo]`` envelope, or None."""
        return self.ranges.get(unit_name)

    def range_for_name(self, identifier: str) -> list | None:
        """Declared envelope for an identifier, via its unit or token.

        Tries the suffix-inferred unit's lattice name first, then the
        identifier's final token (so ``fault_probability`` resolves via
        the "probability" token even though the lattice folds it into
        plain dimensionless).
        """
        unit = unit_from_name(identifier)
        if unit is not None and unit.name in self.ranges:
            return self.ranges[unit.name]
        tokens = [t for t in identifier.lower().split("_") if t]
        while tokens:
            last = tokens[-1]
            if last in self.ranges:
                return self.ranges[last]
            if last in META_TOKENS:
                tokens = tokens[:-1]
                continue
            return None
        return None


EMPTY_TABLE = SignatureTable(
    functions={}, constants={}, methods={}, values={}, ranges={}
)
