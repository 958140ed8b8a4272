"""RPR005 — paper constants may only be spelled in ``repro/constants.py``.

The paper's model constants (Black's n = 1.1, Ea = 0.9 eV, the
stress-migration exponent m = 2.5, the Coffin-Manson exponent
q = 2.35, and the 4000-FIT qualification target) parameterise every
lifetime number this reproduction produces.  A second spelling of any
of them is a fork waiting to drift — exactly the "subtly wrong stress
computation" failure mode.  This rule builds its audit table by
*importing* the canonical values, so the values themselves stay spelled
in one file, including here.

Incidental collisions (a branch bias that happens to be 0.9) are
expected to carry an inline suppression naming what the number really
is.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro import constants
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register

#: audited value -> canonical spelling(s) in repro/constants.py.
AUDITED: dict[float, str] = {
    constants.EM_CURRENT_DENSITY_EXPONENT: "EM_CURRENT_DENSITY_EXPONENT (Black's n)",
    constants.EM_ACTIVATION_ENERGY_EV: (
        "EM_ACTIVATION_ENERGY_EV / SM_ACTIVATION_ENERGY_EV (Ea in eV)"
    ),
    constants.SM_STRESS_EXPONENT: "SM_STRESS_EXPONENT (m)",
    constants.TC_COFFIN_MANSON_EXPONENT: "TC_COFFIN_MANSON_EXPONENT (q)",
    constants.TARGET_FIT: "TARGET_FIT",
}


@register
class ConstantsAuditRule(Rule):
    id = "RPR005"
    name = "constants-audit"
    severity = Severity.ERROR
    description = (
        "paper model constants (n=1.1, Ea=0.9 eV, m=2.5, q=2.35, "
        "TARGET_FIT=4000) may only be spelled in repro/constants.py; "
        "import them instead of duplicating the literal"
    )

    def applies_to(self, ctx) -> bool:
        return not ctx.is_test and ctx.path.name != "constants.py"

    def check(self, ctx) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if not isinstance(value, float):
                continue
            canonical = AUDITED.get(value)
            if canonical is None:
                continue
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset + 1,
                f"literal {value!r} duplicates the paper constant "
                f"{canonical}; import it from repro.constants (or suppress "
                "with a note saying what this number actually is)",
            )
