"""Output checks for every benchmarked CLI command.

Each checker takes the exit code and the parsed ``--json`` report of one
command, plus reference data computed at set-up, and returns a list of
problems (empty when the output is correct).  The checks use only the
standard library and their own arithmetic, never the package under test:

* ``certified`` proves optimality by weak duality: the reported potentials
  satisfy phi + psi <= c on every finite cell and their dual value equals the
  optimum recorded at set-up.
* ``violating_cycle`` recomputes the rerouting gap of the reported cycle from
  the costs.
* ``improved`` requires a strictly decreasing trajectory that ends at the
  recorded optimum.
* ``toll_attack`` checks the sign of the adversary's best improvement.
* ``dichotomy`` checks p <= l <= n * p and that the fractional cover equals p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

NEG_INF = "-inf"


@dataclass(frozen=True)
class Dense:
    """An instance as plain data: Fraction weights, Fraction or None costs
    (None marks an infinite cost), and an optional plan mass matrix."""

    mu: tuple
    nu: tuple
    cost: tuple
    plan: tuple | None = None

    def support(self):
        return {
            (i, j)
            for i, row in enumerate(self.plan)
            for j, mass in enumerate(row)
            if mass > 0
        }


def scalar(value):
    """Parse a JSON scalar of the report format; '-inf' stays a marker."""
    if value == NEG_INF:
        return NEG_INF
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity"):
        return None
    return Fraction(value)


def dense_from_dict(data: dict) -> Dense:
    """Parse the instance file format with this module's own parser."""
    cost = tuple(tuple(scalar(v) for v in row) for row in data["cost"])
    plan = None
    if "plan" in data:
        plan = tuple(tuple(Fraction(v) for v in row) for row in data["plan"])
    return Dense(
        mu=tuple(Fraction(v) for v in data["mu"]),
        nu=tuple(Fraction(v) for v in data["nu"]),
        cost=cost,
        plan=plan,
    )


def plan_cost(inst: Dense, mass) -> Fraction | None:
    """Cost of a mass matrix, or None when it is not a plan of ``inst``
    with finite cost."""
    if len(mass) != len(inst.mu) or any(len(r) != len(inst.nu) for r in mass):
        return None
    if any(m < 0 for row in mass for m in row):
        return None
    if [sum(row) for row in mass] != list(inst.mu):
        return None
    if [sum(col) for col in zip(*mass)] != list(inst.nu):
        return None
    total = Fraction(0)
    for cost_row, row in zip(inst.cost, mass):
        for c, m in zip(cost_row, row):
            if m > 0:
                if c is None:
                    return None
                total += m * c
    return total


def _verdicts(report):
    return {v["claim"]: v for v in report.get("verdicts", [])}


def _find(verdicts, prefix):
    for claim, verdict in verdicts.items():
        if claim.startswith(prefix):
            return verdict
    return None


def certified(code, report, *, inst: Dense, optimum: Fraction):
    """``check`` on an optimal plan: five PASS verdicts and a dual
    certificate whose value equals the optimum."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    verdicts = report.get("verdicts", [])
    if len(verdicts) != 5 or not all(v["passed"] for v in verdicts):
        problems.append("expected five PASS verdicts")
    strong = _find(_verdicts(report), "(4)")
    if strong is None or not isinstance(strong.get("witness"), dict):
        return problems + ["missing strong-monotonicity certificate"]
    phi = [scalar(v) for v in strong["witness"].get("phi", [])]
    psi = [scalar(v) for v in strong["witness"].get("psi", [])]
    if len(phi) != len(inst.mu) or len(psi) != len(inst.nu):
        return problems + ["certificate has the wrong dimensions"]
    for x, row in enumerate(inst.cost):
        for y, c in enumerate(row):
            if c is None or phi[x] == NEG_INF or psi[y] == NEG_INF:
                continue
            if phi[x] + psi[y] > c:
                problems.append(f"phi + psi exceeds the cost at ({x},{y})")
                break
    dual = Fraction(0)
    for weights, values in ((inst.mu, phi), (inst.nu, psi)):
        for w, v in zip(weights, values):
            if w == 0:
                continue
            if v == NEG_INF:
                return problems + ["-inf potential on a charged point"]
            dual += w * v
    if dual != optimum:
        problems.append(f"dual value {dual} != optimum {optimum}")
    return problems


def violating_cycle(code, report, *, inst: Dense, plan_value: Fraction,
                    optimum: Fraction):
    """``check`` on a non-monotone plan: the cycle lies in the support and
    its gap, recomputed from the costs, is positive and as reported."""
    problems = []
    if code != 1:
        problems.append(f"exit code {code}, expected 1")
    verdicts = _verdicts(report)
    optimal = _find(verdicts, "(1)")
    if optimal is None or optimal["passed"]:
        problems.append("verdict (1) should fail")
    elif scalar(optimal["witness"]["gap"]) != plan_value - optimum:
        problems.append("optimality gap differs from the recorded optimum")
    diagram = _find(verdicts, "implication diagram")
    if diagram is None or not diagram["passed"]:
        problems.append("implication diagram should be consistent")
    monotone = _find(verdicts, "(2)")
    if monotone is None or monotone["passed"] or not monotone.get("witness"):
        return problems + ["verdict (2) should fail with a cycle witness"]
    pairs = [tuple(p) for p in monotone["witness"]["pairs"]]
    support = inst.support()
    if not pairs or any(p not in support for p in pairs):
        return problems + ["cycle pair outside the support"]
    gap = Fraction(0)
    for pos, (x, y) in enumerate(pairs):
        y_next = pairs[(pos + 1) % len(pairs)][1]
        if inst.cost[x][y_next] is None:
            return problems + ["cycle reroutes across an infinite cost"]
        gap += inst.cost[x][y] - inst.cost[x][y_next]
    if gap <= 0:
        problems.append(f"recomputed cycle gap {gap} is not positive")
    if scalar(monotone["witness"]["gap"]) != gap:
        problems.append("reported cycle gap differs from the recomputed one")
    return problems


def improved(code, report, *, plan_value: Fraction, optimum: Fraction):
    """``improve``: strictly decreasing costs from the plan to the optimum."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    trajectory = [scalar(v) for v in report.get("notes", {}).get("trajectory", [])]
    if not trajectory or trajectory[0] != plan_value:
        return problems + ["trajectory does not start at the plan's cost"]
    if any(b >= a for a, b in zip(trajectory, trajectory[1:])):
        problems.append("trajectory is not strictly decreasing")
    if trajectory[-1] != optimum:
        problems.append(f"trajectory ends at {trajectory[-1]}, not {optimum}")
    if report["notes"].get("iterations") != len(trajectory) - 1:
        problems.append("iteration count disagrees with the trajectory")
    return problems


def toll_attack(code, report, *, floored: bool, trials: int):
    """``adversary``: a certified plan is never beaten by floored tolls; an
    uncertified one is beaten by some unconstrained toll."""
    problems = []
    notes = report.get("notes", {})
    if notes.get("floored") is not floored:
        problems.append(f"floored should be {floored}")
    if notes.get("trials") != trials:
        problems.append(f"ran {notes.get('trials')} trials, expected {trials}")
    verdicts = report.get("verdicts", [])
    if len(verdicts) != 1:
        return problems + ["expected one verdict"]
    best = scalar(verdicts[0]["witness"]["max_improvement"])
    if floored and (code != 0 or best > 0):
        problems.append(f"floored plan improved by {best} (exit {code})")
    if not floored and (code != 1 or not best > 0):
        problems.append(f"uncertified plan not beaten: {best} (exit {code})")
    return problems


def dichotomy(code, report, *, n_spaces: int, p_ref: Fraction | None = None,
              l_ref: Fraction | None = None):
    """``dichotomy``: p <= l <= n * p, l_relaxed == p, known values match."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    notes = report.get("notes", {})
    try:
        p, l, relaxed = (scalar(notes[k]) for k in ("p", "l", "l_relaxed"))
    except KeyError as exc:
        return problems + [f"missing {exc}"]
    if not p <= l <= n_spaces * p:
        problems.append(f"sandwich p <= l <= n p fails: p={p}, l={l}")
    if relaxed != p:
        problems.append(f"l_relaxed {relaxed} != p {p}")
    if p_ref is not None and p != p_ref:
        problems.append(f"p = {p}, expected {p_ref}")
    if l_ref is not None and l != l_ref:
        problems.append(f"l = {l}, expected {l_ref}")
    return problems
