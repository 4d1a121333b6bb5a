"""Storage extensions and robust-optimality testing.

A defended extension appends z storage points with zero internal cost and
access tolls max(phi, 0) / max(psi, 0) taken from a strong-monotonicity
certificate; the defended plan ships the original plan plus the identity on
storage.  Against those tolls (or any pointwise-higher ones) the defended
plan stays optimal.  The adversarial search samples random toll matrices at
or above the certified floor when a certificate exists; without one it
samples unconstrained tolls, where a strictly better extended plan
witnesses non-robustness.  Each toll is its floor plus k sixteenths of
the cost spread, k drawn by a seeded ``randint(0, 32)`` in a fixed order.
In rational mode the trials run on integers: the masses on their common
denominator and the costs, floors and tolls in units of 1 / (16 * scale)
of a cost unit, ``scale`` being the instance's cost scale, so each trial
solves an integer network and builds one Fraction, its optimum.  Float
mode runs the same trials on floats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    INFINITY,
    NEG_INFINITY,
    Instance,
    InstanceError,
    Policy,
    RATIONAL,
    TransportPlan,
    integer_scale,
    total_cost,
)
from .potentials import CertifyResult, PotentialPair, certify_strong
from .solver import solve_exact, solve_transport

# The sampled tolls rise in steps of 1/16 of the cost spread, at most 32 of
# them above the floor.
_GRANULARITY = 16


@dataclass(frozen=True)
class ExtendedInstance:
    """Base problem plus storage points: zero cost inside storage, finite
    access tolls, original costs on the original block."""

    base: Instance
    z_size: int
    lam: tuple
    extended_cost: tuple

    def as_instance(self) -> Instance:
        return Instance(
            mu=tuple(self.base.mu) + tuple(self.lam),
            nu=tuple(self.base.nu) + tuple(self.lam),
            cost=self.extended_cost,
        )


@dataclass(frozen=True)
class DefenseReport:
    ok: bool
    gap: object
    z_size: int
    lam: tuple
    extended_value: object
    defended_value: object


@dataclass(frozen=True)
class AdversarialReport:
    trials: int
    seed: int
    max_improvement: object
    improving_trial: int | None
    floored: bool


def _toll(value, zero):
    if value is NEG_INFINITY:
        return zero
    return value if value > zero else zero


def _storage_weights(lam, z_size: int, policy: Policy) -> tuple:
    """The storage weights as numbers of the policy: exactly z_size of
    them, each nonnegative."""
    lam = tuple(policy.number(v) for v in lam)
    if len(lam) != z_size:
        raise InstanceError(f"lambda has {len(lam)} entries, expected {z_size}")
    for v in lam:
        if v < 0:
            raise InstanceError("storage weights must be nonnegative")
    return lam


def _extended_cost(rows, x_tolls, y_tolls, zero) -> tuple:
    """Cost rows of an extension: each of the cost ``rows`` followed by
    x_tolls[x], its tolls into the storage points, then one row per storage
    point k of y_tolls[k], its tolls out to the targets, and zero cost
    inside storage."""
    ext = [tuple(row) + tuple(tolls) for row, tolls in zip(rows, x_tolls)]
    ext += [tuple(tolls) + (zero,) * len(y_tolls) for tolls in y_tolls]
    return tuple(ext)


def build_extension(instance: Instance, pair: PotentialPair, z_size: int,
                    lam, policy: Policy = RATIONAL) -> ExtendedInstance:
    """Extension with tolls max(phi, 0) into storage and max(psi, 0) out.

    Sources with phi = -inf get zero tolls, keeping every access arc finite.
    """
    lam = _storage_weights(lam, z_size, policy)
    zero = 0 * (policy.tolerance + 0)
    x_tolls = [(_toll(pair.phi[x], zero),) * z_size for x in range(instance.x_size)]
    y_tolls = [tuple(_toll(pair.psi[y], zero) for y in range(instance.y_size))] * z_size
    return ExtendedInstance(
        base=instance, z_size=z_size, lam=lam,
        extended_cost=_extended_cost(instance.cost, x_tolls, y_tolls, zero),
    )


def extended_plan(plan: TransportPlan, z_size: int, lam) -> TransportPlan:
    """Original plan plus the identity coupling on storage."""
    lam = tuple(lam)
    y_size = plan.y_size
    rows = [tuple(row) + (0 * sum(lam),) * z_size for row in plan.mass]
    for k in range(z_size):
        storage_row = [0 * lam[k]] * (y_size + z_size)
        storage_row[y_size + k] = lam[k]
        rows.append(tuple(storage_row))
    return TransportPlan(mass=tuple(rows))


def check_robust_defense(instance: Instance, plan: TransportPlan,
                         certificate: CertifyResult, z_size: int, lam,
                         policy: Policy = RATIONAL) -> DefenseReport:
    """Build the defended extension from the plan's ``certify_strong``
    result and measure the gap between the defended plan and the extended
    optimum (predicted zero).

    Raises, without solving the extension, when the certificate failed:
    the defense construction is then unavailable.
    """
    if not certificate.ok:
        raise InstanceError(f"not strongly c-monotone: {certificate.reason}")
    extension = build_extension(instance, certificate.pair, z_size, lam, policy)
    defended = extended_plan(plan, z_size, extension.lam)
    ext_instance = extension.as_instance()
    defended_value = total_cost(ext_instance, defended)
    result = solve_exact(ext_instance, policy)
    if not result.feasible:
        raise InstanceError("extended instance infeasible despite finite tolls")
    gap = defended_value - result.value
    return DefenseReport(
        ok=policy.leq(gap, 0 * gap),
        gap=gap,
        z_size=z_size,
        lam=extension.lam,
        extended_value=result.value,
        defended_value=defended_value,
    )


def _cost_spread(rows, one):
    """Largest minus smallest finite entry of the cost rows, or ``one``
    when there is no positive spread."""
    finite = [entry for row in rows for entry in row if entry is not INFINITY]
    spread = max(finite) - min(finite) if finite else 0
    return spread if spread > 0 else one


def adversarial_search(instance: Instance, plan: TransportPlan, z_size: int,
                       lam, trials: int, seed: int,
                       policy: Policy = RATIONAL) -> AdversarialReport:
    """Sample finite toll matrices and try to beat the defended plan.

    With a strong-monotonicity certificate the sampled tolls stay at or
    above the certified floor; every trial then fails to improve.  Without
    a certificate the tolls are unconstrained in [0, 2 * spread] and a
    positive improvement witnesses non-robustness.

    Rational mode scales once per call: the masses of mu, nu and lam on
    their common denominator and the costs on 16 times the instance's cost
    scale, so floors, steps and tolls are ints and each trial solves an
    integer network.  Float mode runs the same loop on the costs as they
    are.
    """
    lam = _storage_weights(lam, z_size, policy)
    plan_value = total_cost(instance, plan)
    if plan_value is INFINITY:
        raise InstanceError("plan has infinite cost")
    zero = 0 * (policy.tolerance + 0)
    certificate = certify_strong(instance, plan, policy)
    if certificate.ok:
        floor_x = [_toll(phi, zero) for phi in certificate.pair.phi]
        floor_y = [_toll(psi, zero) for psi in certificate.pair.psi]
        floored = True
    else:
        floor_x = [zero] * instance.x_size
        floor_y = [zero] * instance.y_size
        floored = False
    weights = tuple(instance.mu) + tuple(instance.nu) + lam
    if policy.exact:
        # A cost unit is ``unit`` trial units.  Potentials and the spread
        # are multiples of 1 / scale, so floors and steps are ints.
        scaled = instance.scaled_cost
        unit = _GRANULARITY * scaled.scale
        mass_den, weights = integer_scale(weights)
        rows = [tuple(entry if entry is INFINITY else entry * _GRANULARITY
                      for entry in row) for row in scaled.rows]
        step = _cost_spread(scaled.rows, scaled.scale)
        floor_x = [f.numerator * (unit // f.denominator) for f in floor_x]
        floor_y = [f.numerator * (unit // f.denominator) for f in floor_y]
    else:
        rows = instance.cost
        step = _cost_spread(rows, 1.0) / _GRANULARITY
    n_x, n_y = instance.x_size, instance.y_size
    storage = tuple(weights[n_x + n_y:])
    ext_mu = tuple(weights[:n_x]) + storage
    ext_nu = tuple(weights[n_x:n_x + n_y]) + storage
    inside = 0 * step
    rng = random.Random(seed)
    max_improvement = None
    improving_trial = None
    for trial in range(trials):
        # Seeded results depend on the draw order: every source's tolls,
        # then every storage point's.
        x_tolls = [
            [floor_x[x] + rng.randint(0, 2 * _GRANULARITY) * step
             for _ in range(z_size)]
            for x in range(n_x)
        ]
        y_tolls = [
            [floor_y[y] + rng.randint(0, 2 * _GRANULARITY) * step
             for y in range(n_y)]
            for _ in range(z_size)
        ]
        solved = solve_transport(
            ext_mu, ext_nu, _extended_cost(rows, x_tolls, y_tolls, inside),
            policy)
        if solved is None:
            raise InstanceError("extended instance infeasible despite finite tolls")
        value = solved[1]
        if policy.exact:
            value = Fraction(value, mass_den * unit)
        # The defended plan puts no mass on a toll arc, so its extended
        # cost is plan_value whatever the tolls.
        improvement = plan_value - value
        if max_improvement is None or improvement > max_improvement:
            max_improvement = improvement
        if improvement > policy.tolerance and improving_trial is None:
            improving_trial = trial
    return AdversarialReport(
        trials=trials,
        seed=seed,
        max_improvement=max_improvement,
        improving_trial=improving_trial,
        floored=floored,
    )
