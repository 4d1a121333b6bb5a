"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: cycle
violations are found by exhaustive enumeration, reachability by naive
transitive closure, feasible plans by randomized greedy filling, the
multi-marginal p by an LP over every product cell and l by trying every
subset of every space.  The certificate check, the support and the plan cost
are recomputed cell by cell in the instance's own numbers (Fractions or
floats), with no integer scaling.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from transport_certify import (
    INFINITY,
    NEG_INFINITY,
    RATIONAL,
    SupportSet,
    TransportPlan,
    make_instance,
    validate_instance,
)
from transport_certify.potentials import VerifyReport
from transport_certify.simplex import solve_lp


def frac(a, b=1):
    return Fraction(a, b)


def _convert(v):
    if v is INFINITY or v == "inf":
        return INFINITY
    return Fraction(v)


def build(mu, nu, cost):
    return validate_instance(
        make_instance(
            [Fraction(v) for v in mu],
            [Fraction(v) for v in nu],
            [[_convert(v) for v in row] for row in cost],
        )
    )


def uniform_instance(cost_rows):
    n = len(cost_rows)
    m = len(cost_rows[0])
    return validate_instance(
        make_instance(
            [Fraction(1, n)] * n,
            [Fraction(1, m)] * m,
            [[_convert(v) for v in row] for row in cost_rows],
        )
    )


def permutation_plan(n, perm):
    share = Fraction(1, n)
    mass = [[Fraction(0)] * n for _ in range(n)]
    for i, j in enumerate(perm):
        mass[i][j] = share
    return TransportPlan(mass=tuple(tuple(row) for row in mass))


def exhaustive_violations(instance, pairs):
    """All simple rerouting cycles over the support pairs with a strictly
    positive saving; independent of the exchange-graph machinery.

    Returns a list of (ordered pair tuple, gap).
    """
    found = []
    items = list(pairs)
    for size in range(2, len(items) + 1):
        for subset in combinations(range(len(items)), size):
            first, rest = subset[0], subset[1:]
            for order in permutations(rest):
                cycle = (first,) + order
                direct = Fraction(0)
                reroute = Fraction(0)
                ok = True
                for pos, idx in enumerate(cycle):
                    x, y = items[idx]
                    _, y_next = items[cycle[(pos + 1) % size]]
                    entry = instance.cost[x][y_next]
                    if entry is INFINITY:
                        ok = False
                        break
                    direct += instance.cost[x][y]
                    reroute += entry
                if ok and direct > reroute:
                    found.append(
                        (tuple(items[idx] for idx in cycle), direct - reroute)
                    )
    return found


def reachability_closure(instance, pairs):
    """Naive transitive closure of the one-step hand-over relation."""
    n = len(pairs)
    reach = [[False] * n for _ in range(n)]
    for a, (_, y_a) in enumerate(pairs):
        for b, (x_b, _) in enumerate(pairs):
            if instance.cost[x_b][y_a] is not INFINITY:
                reach[a][b] = True
    for k in range(n):
        for a in range(n):
            if reach[a][k]:
                row_k = reach[k]
                row_a = reach[a]
                for b in range(n):
                    if row_k[b]:
                        row_a[b] = True
    return reach


def random_feasible_plan(instance, rng: random.Random) -> TransportPlan:
    """Greedy filling along a shuffled cell order; feasible whenever every
    cost is finite (all cells usable)."""
    n, m = instance.x_size, instance.y_size
    remaining_mu = list(instance.mu)
    remaining_nu = list(instance.nu)
    cells = [(i, j) for i in range(n) for j in range(m)]
    rng.shuffle(cells)
    mass = [[Fraction(0)] * m for _ in range(n)]
    for i, j in cells:
        amount = min(remaining_mu[i], remaining_nu[j])
        if amount > 0:
            mass[i][j] += amount
            remaining_mu[i] -= amount
            remaining_nu[j] -= amount
    assert all(v == 0 for v in remaining_mu)
    assert all(v == 0 for v in remaining_nu)
    return TransportPlan(mass=tuple(tuple(row) for row in mass))


def reference_support(plan, policy=RATIONAL):
    """Pairs with mass above the policy's support threshold, row-major."""
    return SupportSet(pairs=tuple(
        (i, j)
        for i, row in enumerate(plan.mass)
        for j, mass in enumerate(row)
        if mass > policy.support_threshold
    ))


def reference_total_cost(instance, plan):
    """Mass-weighted cost sum, INFINITY on positive mass at infinite cost."""
    acc = 0
    for i, row in enumerate(plan.mass):
        for j, mass in enumerate(row):
            if mass > 0:
                entry = instance.cost[i][j]
                if entry is INFINITY:
                    return INFINITY
                acc += mass * entry
    return acc


def _dual_sum(phi_value, psi_value):
    if phi_value is NEG_INFINITY or psi_value is NEG_INFINITY:
        return NEG_INFINITY
    return phi_value + psi_value


def reference_verify(instance, plan, pair, policy=RATIONAL):
    """phi + psi <= cost on every finite cell and equality on the support,
    checked cell by cell in the instance's numbers."""
    min_slack = None
    worst_pair = None
    feasible = True
    for x in range(instance.x_size):
        for y in range(instance.y_size):
            entry = instance.cost[x][y]
            lhs = _dual_sum(pair.phi[x], pair.psi[y])
            if lhs is NEG_INFINITY or entry is INFINITY:
                continue
            slack = entry - lhs
            if min_slack is None or slack < min_slack:
                min_slack = slack
                worst_pair = (x, y)
            if slack < -policy.tolerance:
                feasible = False
    max_residual = None
    worst_support_pair = None
    tight = True
    for x, y in reference_support(plan, policy).pairs:
        entry = instance.cost[x][y]
        lhs = _dual_sum(pair.phi[x], pair.psi[y])
        if entry is INFINITY or lhs is NEG_INFINITY:
            tight = False
            max_residual = INFINITY
            worst_support_pair = (x, y)
            continue
        residual = abs(entry - lhs)
        if max_residual is None or (max_residual is not INFINITY
                                    and residual > max_residual):
            max_residual = residual
            worst_support_pair = (x, y)
        if residual > policy.tolerance:
            tight = False
    return VerifyReport(
        ok=feasible and tight,
        feasible_everywhere=feasible,
        tight_on_support=tight,
        min_slack=min_slack,
        worst_pair=worst_pair,
        max_residual=max_residual,
        worst_support_pair=worst_support_pair,
    )


def product_p_value(mmi):
    """Maximum coupling mass on B as an LP over every product cell, with
    one marginal equality per point."""
    tuples = list(product(*(range(size) for size in mmi.sizes)))
    in_b = set(mmi.b_set)
    costs = [Fraction(-1) if tup in in_b else Fraction(0) for tup in tuples]
    rows = []
    rhs = []
    for space, weights in enumerate(mmi.weights):
        for point, weight in enumerate(weights):
            rows.append([Fraction(1) if tup[space] == point else Fraction(0)
                         for tup in tuples])
            rhs.append(Fraction(weight))
    value, _ = solve_lp(costs, rows, rhs)
    return -value


def exhaustive_l_value(mmi):
    """Minimum weight of a cylinder cover of B, trying every subset of
    every space."""
    n = mmi.n_spaces
    best = None
    for masks in product(*(range(1 << size) for size in mmi.sizes)):
        if not all(any(masks[k] >> tup[k] & 1 for k in range(n))
                   for tup in mmi.b_set):
            continue
        weight = sum(mmi.weights[k][point] for k in range(n)
                     for point in range(mmi.sizes[k]) if masks[k] >> point & 1)
        if best is None or weight < best:
            best = weight
    return best


@pytest.fixture
def square_instance():
    """2x2 zero-diagonal instance reused across the suite."""
    return uniform_instance([[0, 1], [1, 0]])


@pytest.fixture
def rng():
    return random.Random(20260808)
