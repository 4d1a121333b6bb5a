"""Acceptance suite: the nine exit criteria, one test per criterion.

Each test prints a single PASS line when its criterion holds; failures
surface as ordinary assertion errors.  Everything runs in exact rational
arithmetic; stated runtime budgets are asserted.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from transport_certify import (
    INFINITY,
    brute_force_optimal,
    certify_strong,
    check_c_monotone,
    check_class_confinement,
    check_robust_defense,
    decompose,
    improve_plan,
    improve_to_monotone,
    is_optimal,
    adversarial_search,
    l_value,
    make_mmi,
    p_value,
    solve_exact,
    support,
    total_cost,
)
from transport_certify.generators import (
    ap_diagonal_plan,
    ap_shift_plan,
    gen_ap,
    gen_blocks,
    gen_random,
    gen_shift,
    gen_zero_one,
    zero_one_diagonal_plan,
)
from conftest import permutation_plan

HALF = Fraction(1, 2)
ONE = Fraction(1)


def _nonoptimal_vertex(instance, optimum, rng):
    """A random permutation plan costing strictly more than the optimum, or
    None when every vertex is optimal."""
    n = instance.x_size
    for _ in range(120):
        perm = list(range(n))
        rng.shuffle(perm)
        plan = permutation_plan(n, perm)
        value = total_cost(instance, plan)
        if value is not INFINITY and value > optimum:
            return plan
    return None


@pytest.fixture(scope="module")
def suite1():
    """200 finite-cost instances with their optimal plans and one
    non-optimal vertex plan each (instances re-seeded until one exists)."""
    entries = []
    for k in range(200):
        size = 2 + k % 5
        seed = k
        while True:
            instance = gen_random(size, seed)
            result = solve_exact(instance)
            rng = random.Random(10**6 + seed)
            bad_plan = _nonoptimal_vertex(instance, result.value, rng)
            if bad_plan is not None:
                break
            seed += 10000
        entries.append((instance, result, bad_plan))
    return entries


@pytest.fixture(scope="module")
def suite2():
    """100 feasible instances with 20..50% infinite-cost density."""
    entries = []
    made = 0
    attempt = 0
    while made < 100:
        size = 2 + made % 5
        density = 0.2 + 0.3 * (made % 7) / 6
        instance = gen_random(size, 5 * 10**5 + attempt, inf_density=density)
        attempt += 1
        result = solve_exact(instance)
        if not result.feasible:
            continue
        entries.append((instance, result))
        made += 1
    return entries


def test_criterion_1_equivalence_suite(suite1):
    start = time.monotonic()
    for instance, result, bad_plan in suite1:
        optimal, gap = is_optimal(instance, result.plan, result)
        assert optimal and gap == 0
        assert check_c_monotone(instance, result.plan) is None
        cert = certify_strong(instance, result.plan)
        assert cert.ok
        defense = check_robust_defense(instance, result.plan, cert, 1, [ONE])
        assert defense.ok and defense.gap == 0

        bad_optimal, bad_gap = is_optimal(instance, bad_plan, result)
        assert not bad_optimal and bad_gap > 0
        assert check_c_monotone(instance, bad_plan) is not None
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"\nACCEPTANCE 1 PASS: 200 optimal plans satisfy all four "
          f"predicates; 200 non-optimal vertex plans fail (1) and (2) "
          f"[{elapsed:.1f}s]")


def test_criterion_2_monotone_optimal_with_infinities(suite2):
    start = time.monotonic()
    for instance, result in suite2:
        assert result.feasible
        assert check_c_monotone(instance, result.plan) is None
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(f"\nACCEPTANCE 2 PASS: 100 solver-optimal plans over 20-50% "
          f"infinite-density instances are cyclically monotone [{elapsed:.1f}s]")


def test_criterion_3_improvement_identity(suite1, suite2):
    checked_cycles = 0
    oracle_checked = 0
    for instance, result, bad_plan in suite1:
        cycle = check_c_monotone(instance, bad_plan)
        assert cycle is not None
        alpha = min(bad_plan.mass[x][y] for x, y in cycle.pairs)
        improved = improve_plan(instance, bad_plan, cycle)
        drop = total_cost(instance, bad_plan) - total_cost(instance, improved)
        assert drop == alpha * cycle.gap
        checked_cycles += 1

        final, _, converged = improve_to_monotone(instance, bad_plan)
        assert converged
        assert total_cost(instance, final) == brute_force_optimal(instance)
        oracle_checked += 1
    for instance, result in suite2:
        rng = random.Random(hash(instance.cost) & 0xFFFF)
        bad_plan = _nonoptimal_vertex(instance, result.value, rng)
        if bad_plan is None:
            continue
        cycle = check_c_monotone(instance, bad_plan)
        if cycle is None:
            continue
        alpha = min(bad_plan.mass[x][y] for x, y in cycle.pairs)
        improved = improve_plan(instance, bad_plan, cycle)
        drop = total_cost(instance, bad_plan) - total_cost(instance, improved)
        assert drop == alpha * cycle.gap
        checked_cycles += 1
    assert oracle_checked == 200
    print(f"\nACCEPTANCE 3 PASS: exact drop alpha*gap on {checked_cycles} "
          f"violating cycles; {oracle_checked} improvement runs reached the "
          f"brute-force optimum")


def test_criterion_4_cyclic_two_track_family():
    for n in (3, 5, 8):
        for a, b in product((1, 2), repeat=2):
            instance = gen_ap(n, a, b)
            optimum = solve_exact(instance)
            for plan in (ap_diagonal_plan(n), ap_shift_plan(n)):
                optimal, _ = is_optimal(instance, plan, optimum)
                monotone = check_c_monotone(instance, plan) is None
                assert optimal == monotone
            shift_optimal, _ = is_optimal(instance, ap_shift_plan(n), optimum)
            assert shift_optimal == (b <= a)
    print("\nACCEPTANCE 4 PASS: shift plan optimal iff b <= a and "
          "monotonicity matches optimality for N in {3,5,8}, (a,b) in {1,2}^2")


def test_criterion_5_triangular_grid_divergence():
    for n in (4, 16, 64):
        instance = gen_zero_one(n)
        diagonal = zero_one_diagonal_plan(n)
        result = solve_exact(instance)
        assert result.plan.mass == diagonal.mass
        deco = decompose(instance, support(diagonal))
        confinement = check_class_confinement(instance, deco)
        assert confinement.off_class_mass == 0  # the diagonal is the only
        cert = certify_strong(instance, diagonal)
        assert cert.ok
        phi = cert.pair.phi
        for k in range(n):
            step = instance.cost[k][k] - instance.cost[k + 1][k]
            assert phi[k] - phi[k + 1] >= step  # consecutive-pair oracle
        assert float(phi[0] - phi[n]) >= math.sqrt(n) - 1e-9
    print("\nACCEPTANCE 5 PASS: unique diagonal plan certifies with "
          "phi(0) - phi(1) >= 2, 4, 8 at N = 4, 16, 64")


def test_criterion_6_surcharged_shift_family():
    for n in (10, 100):
        value = solve_exact(gen_shift(n)).value
        assert value > 1
        assert value <= 1 + Fraction(3, n)
    print("\nACCEPTANCE 6 PASS: surcharged-shift optimum lies in "
          "(1, 1 + 3/N] for N in {10, 100}")


def test_criterion_7_coupling_cover_dichotomy():
    start = time.monotonic()
    third = Fraction(1, 3)
    weights = [[third] * 3, [third] * 3]
    cells = [(i, j) for i in range(3) for j in range(3)]
    for mask in range(512):
        b_set = [cells[pos] for pos in range(9) if mask >> pos & 1]
        mmi = make_mmi(weights, b_set)
        p = p_value(mmi)
        l_exact = l_value(mmi)
        assert 2 * p >= l_exact
        assert p <= l_exact
        assert p == l_exact
    rng = random.Random(777)
    for _ in range(20):
        spaces = []
        for _ in range(3):
            raw = [rng.randint(1, 5) for _ in range(2)]
            total = sum(raw)
            spaces.append([Fraction(v, total) for v in raw])
        tuples = list(product(range(2), range(2), range(2)))
        b_set = [tup for tup in tuples if rng.random() < 0.45]
        mmi = make_mmi(spaces, b_set)
        p = p_value(mmi)
        l_exact = l_value(mmi)
        assert 3 * p >= l_exact
        assert p <= l_exact
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"\nACCEPTANCE 7 PASS: p = l on all 512 two-marginal subsets; "
          f"p >= l/3 on 20 random three-marginal instances [{elapsed:.1f}s]")


def test_criterion_8_defense_and_adversary(suite1):
    start = time.monotonic()
    for instance, result, _ in suite1:
        cert = certify_strong(instance, result.plan)
        for z_size in (1, 2):
            for lam_value in (HALF, ONE):
                report = check_robust_defense(
                    instance, result.plan, cert, z_size, [lam_value] * z_size
                )
                assert report.gap == 0
        attack = adversarial_search(
            instance, result.plan, 1, [ONE], 100, seed=2026
        )
        assert attack.max_improvement <= 0
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"\nACCEPTANCE 8 PASS: extended gap 0 for z in {{1,2}} x lambda in "
          f"{{1/2, 1}}; 100-trial adversary never improves [{elapsed:.1f}s]")


def test_criterion_9_class_confinement():
    rng = random.Random(31337)
    for k in range(50):
        n_blocks = 2 + k % 3
        sizes = tuple(rng.randint(1, 3) for _ in range(n_blocks))
        instance = gen_blocks(sizes, seed=9000 + k)
        plan = solve_exact(instance).plan
        deco = decompose(instance, support(plan))
        assert len(deco.classes) == n_blocks
        report = check_class_confinement(instance, deco)
        assert report.feasible
        assert report.off_class_mass == 0
    print("\nACCEPTANCE 9 PASS: 50 block instances with 2-4 classes confine "
          "all feasible mass to their class rectangles")
