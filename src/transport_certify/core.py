"""Core domain types: finite transport instances, plans, supports, and the
extended-real cost arithmetic shared by every other module.

All numeric data is either exact (fractions.Fraction, the default) or float
with an absolute comparison tolerance.  Infinite cost is a dedicated singleton,
never a sentinel float, so that an expression like ``finite - INFINITY`` fails
loudly instead of silently producing NaN-like garbage.

This module owns the integer scale of the exact layers: each instance scales
its finite costs once to integers over their least common denominator
(``Instance.scaled_cost``), and the residual graph, the certificate
verification and ``total_cost`` all run on those integers.  Masses are
compared and summed through their integer numerators, so ``Fraction``
values are built only for reported results.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import Iterable


class _Infinity:
    """Absorbing top element of the cost order.

    Supports total comparison against finite numbers and absorbing addition.
    Subtracting an infinite value from anything is a hard error.
    """

    __slots__ = ()

    def __repr__(self):
        return "INFINITY"

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is INFINITY

    def __gt__(self, other):
        return other is not INFINITY

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is INFINITY

    def __hash__(self):
        return hash("transport_certify.INFINITY")

    def __add__(self, other):
        if other is NEG_INFINITY:
            raise ArithmeticError("INFINITY + NEG_INFINITY is undefined")
        return INFINITY

    __radd__ = __add__

    def __sub__(self, other):
        if other is INFINITY:
            raise ArithmeticError("INFINITY - INFINITY is undefined")
        return INFINITY

    def __rsub__(self, other):
        raise ArithmeticError("cannot subtract an infinite cost")

    def __neg__(self):
        raise ArithmeticError("cannot negate an infinite cost")

    def __reduce__(self):
        return (_restore_infinity, ())


class _NegInfinity:
    """Bottom element used for dual potentials valued in [-inf, inf)."""

    __slots__ = ()

    def __repr__(self):
        return "NEG_INFINITY"

    def __lt__(self, other):
        return other is not NEG_INFINITY

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is NEG_INFINITY

    def __eq__(self, other):
        return other is NEG_INFINITY

    def __hash__(self):
        return hash("transport_certify.NEG_INFINITY")

    def __add__(self, other):
        if other is INFINITY:
            raise ArithmeticError("NEG_INFINITY + INFINITY is undefined")
        return NEG_INFINITY

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("cannot negate NEG_INFINITY; use INFINITY directly")

    def __reduce__(self):
        return (_restore_neg_infinity, ())


INFINITY = _Infinity()
NEG_INFINITY = _NegInfinity()


def _restore_infinity():
    return INFINITY


def _restore_neg_infinity():
    return NEG_INFINITY


class InstanceError(ValueError):
    """Raised when an instance, plan, or support violates its invariants."""


def integer_scale(values):
    """(d, ints): the least common denominator d of the rational values and
    each value times d, as an int."""
    den = math.lcm(1, *(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


@dataclass(frozen=True)
class ScaledCost:
    """An instance's costs on one scale.

    ``rows[x][y]`` is cost(x, y) times ``scale`` as an int, or INFINITY.
    ``scale`` is the least common denominator of the finite costs; it is
    None when some cost is a float, and then ``rows`` are the costs
    themselves.
    """

    scale: int | None
    rows: tuple


def scale_tolerance(tolerance, scale):
    """A comparison tolerance on an integer scale (None: unscaled).

    Scaled values are ints, which differ by whole units, so
    floor(tolerance * scale) decides every comparison as the exact product
    would.
    """
    if scale is None:
        return tolerance
    tolerance = Fraction(tolerance)
    return tolerance.numerator * scale // tolerance.denominator


@dataclass(frozen=True)
class Policy:
    """Arithmetic policy: exact rationals by default, opt-in floats.

    ``tolerance`` is the absolute slack applied to every comparison in float
    mode; in rational mode comparisons are exact and the tolerance is only
    used for the validate-time marginal sum check.
    """

    mode: str = "rational"
    tolerance: Fraction | float = Fraction(0)
    support_threshold: Fraction | float = Fraction(0)
    sum_tolerance: Fraction | float = Fraction(1, 10**9)

    @property
    def exact(self) -> bool:
        return self.mode == "rational"

    def number(self, value):
        """Coerce a parsed JSON scalar into this policy's number domain.

        Raises InstanceError for anything but a finite number: infinite
        cost is the INFINITY singleton, spelled "inf" on the wire.
        """
        if value is INFINITY:
            return INFINITY
        try:
            if self.exact:
                if isinstance(value, (Fraction, int)):
                    return Fraction(value)
                return Fraction(str(value))
            if isinstance(value, str):
                num, _, den = value.partition("/")
                number = float(num) / float(den) if den else float(num)
            else:
                number = float(value)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"cannot interpret {value!r} as a number") from exc
        if not math.isfinite(number):
            raise InstanceError(f"non-finite number {value!r}")
        return number

    def is_zero(self, a) -> bool:
        return abs(a) <= self.tolerance

    def eq(self, a, b) -> bool:
        if a is INFINITY or b is INFINITY:
            return a is b
        return abs(a - b) <= self.tolerance

    def leq(self, a, b) -> bool:
        if a is INFINITY:
            return b is INFINITY
        if b is INFINITY:
            return True
        return a <= b + self.tolerance


RATIONAL = Policy()
FLOAT = Policy(
    mode="float", tolerance=1e-9, support_threshold=1e-9, sum_tolerance=1e-9
)


@dataclass(frozen=True)
class Instance:
    """A finite transport problem: source weights, target weights, costs.

    ``cost`` entries are nonnegative numbers or INFINITY.  Construction does
    not validate; pass through :func:`validate_instance` at the boundary.
    """

    mu: tuple
    nu: tuple
    cost: tuple

    @property
    def x_size(self) -> int:
        return len(self.mu)

    @property
    def y_size(self) -> int:
        return len(self.nu)

    def has_infinite_cost(self) -> bool:
        return any(entry is INFINITY for row in self.cost for entry in row)

    def finite_cost_values(self):
        return [entry for row in self.cost for entry in row if entry is not INFINITY]

    @cached_property
    def scaled_cost(self) -> ScaledCost:
        """The costs on one integer scale, computed on first use and kept
        for the instance's lifetime."""
        try:
            scale, ints = integer_scale(self.finite_cost_values())
        except AttributeError:  # float costs have no denominator
            return ScaledCost(scale=None, rows=self.cost)
        ints = iter(ints)
        rows = tuple(
            tuple(entry if entry is INFINITY else next(ints) for entry in row)
            for row in self.cost
        )
        return ScaledCost(scale=scale, rows=rows)


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative mass matrix; rows sum to mu and columns to nu.

    ``total_mass`` is 1 for probability plans and may exceed 1 for extended
    plans that carry storage mass.
    """

    mass: tuple

    @property
    def total_mass(self):
        return sum(entry for row in self.mass for entry in row)

    @property
    def x_size(self) -> int:
        return len(self.mass)

    @property
    def y_size(self) -> int:
        return len(self.mass[0]) if self.mass else 0


@dataclass(frozen=True)
class SupportSet:
    """Row-major list of (x, y) index pairs carrying plan mass."""

    pairs: tuple

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def x_projection(self) -> tuple:
        return tuple(sorted({x for x, _ in self.pairs}))


def _as_matrix(rows: Iterable[Iterable]) -> tuple:
    return tuple(tuple(row) for row in rows)


def make_instance(mu, nu, cost) -> Instance:
    return Instance(mu=tuple(mu), nu=tuple(nu), cost=_as_matrix(cost))


def make_plan(mass) -> TransportPlan:
    return TransportPlan(mass=_as_matrix(mass))


# Float mode admits an instance only while FLOAT_HEADROOM * n * C is a
# finite float, n = |X| + |Y| and C the largest finite cost.  A
# residual-graph distance sums a simple path of fewer than n arcs, so it is
# at most n * C in size; potentials are differences of two distances, dual
# sums and slacks add two potentials and a cost, and the adversary's tolls
# are a potential plus at most twice the cost spread, all within 8 * n * C.
# The adversary's extension solves add such tolls and their potentials along
# paths of n + 2z + 2 nodes, which stays finite while that count is below
# 2**28.
FLOAT_HEADROOM = 2**32


def validate_instance(raw: Instance, policy: Policy = RATIONAL) -> Instance:
    """Check all instance invariants; renormalize near-unit marginal sums.

    Raises InstanceError on dimension mismatch, negative weights, marginal
    sums off by more than the sum tolerance, or negative finite costs; in
    float mode also on costs large enough for path sums to overflow: the
    largest finite cost times FLOAT_HEADROOM (2**32) times |X| + |Y| must
    be a finite float.
    """
    if raw.x_size == 0 or raw.y_size == 0:
        raise InstanceError("instance must have at least one source and target")
    if len(raw.cost) != raw.x_size:
        raise InstanceError(
            f"cost has {len(raw.cost)} rows, expected {raw.x_size}"
        )
    for i, row in enumerate(raw.cost):
        if len(row) != raw.y_size:
            raise InstanceError(
                f"cost row {i} has {len(row)} entries, expected {raw.y_size}"
            )
        for j, entry in enumerate(row):
            if entry is INFINITY:
                continue
            if entry < 0:
                raise InstanceError(f"negative cost at ({i},{j})")
    for name, weights in (("mu", raw.mu), ("nu", raw.nu)):
        for w in weights:
            if w is INFINITY or w < 0:
                raise InstanceError(f"negative weight in {name}")
    if not policy.exact:
        largest = max(raw.finite_cost_values(), default=0)
        nodes = raw.x_size + raw.y_size
        if not largest * FLOAT_HEADROOM * nodes <= sys.float_info.max:
            raise InstanceError(
                f"cost {largest} is too large for float mode: path sums over "
                f"{nodes} nodes can overflow; use exact mode")
    mu, nu = raw.mu, raw.nu
    for name, weights in (("mu", mu), ("nu", nu)):
        total = sum(weights)
        if abs(total - 1) > policy.sum_tolerance:
            raise InstanceError(f"marginal sum {total} != 1 in {name}")
    total_mu = sum(mu)
    if total_mu != 1:
        mu = tuple(w / total_mu for w in mu)
    total_nu = sum(nu)
    if total_nu != 1:
        nu = tuple(w / total_nu for w in nu)
    return Instance(mu=mu, nu=nu, cost=raw.cost)


def validate_plan(instance: Instance, plan: TransportPlan, policy: Policy = RATIONAL,
                  require_probability: bool = True) -> TransportPlan:
    """Check plan nonnegativity and marginal agreement with the instance."""
    if plan.x_size != instance.x_size or plan.y_size != instance.y_size:
        raise InstanceError(
            f"plan is {plan.x_size}x{plan.y_size}, "
            f"instance is {instance.x_size}x{instance.y_size}"
        )
    for row in plan.mass:
        for entry in row:
            if entry < 0:
                raise InstanceError("negative plan mass")
    if require_probability:
        rows, cols = marginals(plan)
        for got, want in zip(rows, instance.mu):
            if not policy.eq(got, want):
                raise InstanceError(f"row sum {got} != mu entry {want}")
        for got, want in zip(cols, instance.nu):
            if not policy.eq(got, want):
                raise InstanceError(f"column sum {got} != nu entry {want}")
    return plan


def _heavy_cells(plan: TransportPlan, threshold) -> list:
    """(i, j, mass) of every cell with mass strictly above the threshold,
    row-major.  A rational threshold is compared with rational masses
    through their integer numerators and denominators."""
    if isinstance(threshold, Rational):
        num, den = threshold.numerator, threshold.denominator
        try:
            return [(i, j, mass) for i, row in enumerate(plan.mass)
                    for j, mass in enumerate(row)
                    if mass.numerator * den > num * mass.denominator]
        except AttributeError:  # float masses have no numerator
            pass
    return [(i, j, mass) for i, row in enumerate(plan.mass)
            for j, mass in enumerate(row) if mass > threshold]


def total_cost(instance: Instance, plan: TransportPlan):
    """Mass-weighted cost sum; INFINITY iff positive mass sits on an
    infinite-cost pair.

    On rational data the sum runs over integers, the masses on their common
    denominator and the costs on ``instance.scaled_cost``, and one Fraction
    is built for the result.
    """
    if plan.x_size != instance.x_size or plan.y_size != instance.y_size:
        raise InstanceError("plan dimensions do not match instance")
    cells = _heavy_cells(plan, 0)
    scaled = instance.scaled_cost
    costs = [scaled.rows[i][j] for i, j, _ in cells]
    if any(entry is INFINITY for entry in costs):
        return INFINITY
    if scaled.scale is not None:
        try:
            den, masses = integer_scale([mass for _, _, mass in cells])
        except AttributeError:  # float masses have no denominator
            pass
        else:
            return Fraction(
                sum(mass * entry for mass, entry in zip(masses, costs)),
                den * scaled.scale)
    acc = 0
    for i, j, mass in cells:
        acc += mass * instance.cost[i][j]
    return acc


def support(plan: TransportPlan, threshold=None, policy: Policy = RATIONAL) -> SupportSet:
    """All pairs with mass strictly above the threshold, row-major."""
    if threshold is None:
        threshold = policy.support_threshold
    if threshold < 0:
        raise InstanceError("support threshold must be nonnegative")
    return SupportSet(pairs=tuple((i, j) for i, j, _ in
                                  _heavy_cells(plan, threshold)))


def marginals(plan: TransportPlan):
    """Exact row sums and column sums of the plan."""
    rows = tuple(sum(row) for row in plan.mass)
    cols = tuple(sum(row[j] for row in plan.mass) for j in range(plan.y_size))
    return rows, cols


# --- JSON wire format ----------------------------------------------------
#
# Instance schema: {"mu": [...], "nu": [...], "cost": [[...]]} with "inf"
# for infinite entries and rationals as "p/q" strings; optional "plan".


def parse_scalar(value, policy: Policy = RATIONAL):
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity"):
        return INFINITY
    return policy.number(value)


def format_scalar(value):
    if value is INFINITY:
        return "inf"
    if value is NEG_INFINITY:
        return "-inf"
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return value
    return float(value)


def instance_from_dict(data: dict, policy: Policy = RATIONAL) -> Instance:
    try:
        mu = tuple(parse_scalar(v, policy) for v in data["mu"])
        nu = tuple(parse_scalar(v, policy) for v in data["nu"])
        cost = tuple(
            tuple(parse_scalar(v, policy) for v in row) for row in data["cost"]
        )
    except KeyError as exc:
        raise InstanceError(f"missing instance field {exc}") from exc
    except TypeError as exc:
        raise InstanceError(f"malformed instance: {exc}") from exc
    return validate_instance(Instance(mu=mu, nu=nu, cost=cost), policy)


def plan_from_dict(data, policy: Policy = RATIONAL) -> TransportPlan:
    try:
        rows = data["plan"] if isinstance(data, dict) else data
        mass = tuple(tuple(parse_scalar(v, policy) for v in row) for row in rows)
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"malformed plan: {exc!r}") from exc
    return TransportPlan(mass=mass)


def instance_to_dict(instance: Instance, plan: TransportPlan | None = None) -> dict:
    data = {
        "mu": [format_scalar(v) for v in instance.mu],
        "nu": [format_scalar(v) for v in instance.nu],
        "cost": [[format_scalar(v) for v in row] for row in instance.cost],
    }
    if plan is not None:
        data["plan"] = [[format_scalar(v) for v in row] for row in plan.mass]
    return data


def load_instance(path, policy: Policy = RATIONAL):
    """Read an instance JSON file; returns (instance, embedded plan or None)."""
    with open(path) as handle:
        data = json.load(handle)
    instance = instance_from_dict(data, policy)
    plan = plan_from_dict(data, policy) if "plan" in data else None
    return instance, plan


def float_policy(tolerance: float = 1e-9) -> Policy:
    return replace(FLOAT, tolerance=tolerance, support_threshold=tolerance,
                   sum_tolerance=tolerance)
