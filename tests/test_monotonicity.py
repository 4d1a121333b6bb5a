"""Cycle detection against exhaustive enumeration, and plan improvement."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from transport_certify import (
    INFINITY,
    InstanceError,
    brute_force_optimal,
    check_c_monotone,
    improve_plan,
    improve_to_monotone,
    is_optimal,
    marginals,
    residual_graph,
    solve_exact,
    support,
    total_cost,
)
from transport_certify.monotonicity import ViolatingCycle
from transport_certify.generators import (
    ap_diagonal_plan,
    ap_shift_plan,
    gen_ap,
    gen_random,
)
from conftest import exhaustive_violations, permutation_plan, uniform_instance


def exchange_price(graph, pair, other):
    """Price of letting pair's source deliver to other's target instead of
    its own: the weight of the residual path y -> x -> y', in cost units."""
    (x, y), (_, y2) = pair, other
    back = dict(graph.arcs[graph.x_size + y])[x]
    forward = dict(graph.arcs[x])[graph.x_size + y2]
    return graph.in_cost_units(back + forward)


class TestExchangeGraph:
    """Exchange prices read off the residual graph as two-arc paths."""

    def test_diagonal_support_weights(self, square_instance):
        sup = support(permutation_plan(2, (0, 1)))
        graph = residual_graph(square_instance, sup)
        assert exchange_price(graph, (0, 0), (1, 1)) == 1
        assert exchange_price(graph, (1, 1), (0, 0)) == 1
        assert exchange_price(graph, (0, 0), (0, 0)) == 0
        assert exchange_price(graph, (1, 1), (1, 1)) == 0

    def test_antidiagonal_cross_edges_negative(self, square_instance):
        sup = support(permutation_plan(2, (1, 0)))
        graph = residual_graph(square_instance, sup)
        assert exchange_price(graph, (0, 1), (1, 0)) == -1
        assert exchange_price(graph, (1, 0), (0, 1)) == -1

    def test_single_pair_self_loop_only(self):
        inst = uniform_instance([[2]])
        sup = support(permutation_plan(1, (0,)))
        graph = residual_graph(inst, sup)
        assert graph.arcs == (((1, 2),), ((0, -2),))
        assert exchange_price(graph, (0, 0), (0, 0)) == 0

    def test_infinite_support_cost_rejected(self):
        inst = uniform_instance([[0, 1], [1, "inf"]])
        sup = support(permutation_plan(2, (0, 1)))
        with pytest.raises(InstanceError, match="infinite"):
            residual_graph(inst, sup)


class TestCheckCMonotone:
    def test_diagonal_ok(self, square_instance):
        assert check_c_monotone(square_instance, permutation_plan(2, (0, 1))) is None

    def test_antidiagonal_two_cycle(self, square_instance):
        cycle = check_c_monotone(square_instance, permutation_plan(2, (1, 0)))
        assert cycle is not None
        assert sorted(cycle.pairs) == [(0, 1), (1, 0)]
        assert cycle.gap == 2

    def test_cyclic_shift_three_cycle(self):
        # N=60 is the longest possible cycle: it pins the pass bound and
        # the predecessor walk of the detector.
        for n in (3, 60):
            inst = gen_ap(n, 1, 2)
            cycle = check_c_monotone(inst, ap_shift_plan(n))
            assert cycle is not None
            assert len(cycle.pairs) == n
            assert cycle.gap == n

    def test_cycle_pairs_unique_and_reroutes_finite(self):
        for seed in range(30):
            inst = gen_random(5, 4000 + seed, inf_density=0.3)
            result = solve_exact(inst)
            if not result.feasible:
                continue
            rng = random.Random(seed)
            perm = list(range(5))
            rng.shuffle(perm)
            plan = permutation_plan(5, perm)
            if total_cost(inst, plan) is INFINITY:
                continue
            cycle = check_c_monotone(inst, plan)
            if cycle is None:
                continue
            assert len(set(cycle.pairs)) == len(cycle.pairs)
            assert len(cycle.pairs) <= len(support(plan))
            for pos, (x, _) in enumerate(cycle.pairs):
                _, y_next = cycle.pairs[(pos + 1) % len(cycle.pairs)]
                assert inst.cost[x][y_next] is not INFINITY


@st.composite
def support_scenarios(draw):
    """A small instance plus a random sub-permutation support (<= 7 pairs)."""
    n = draw(st.integers(2, 4))
    entries = draw(
        st.lists(
            st.one_of(st.integers(0, 8), st.just("inf")),
            min_size=n * n,
            max_size=n * n,
        )
    )
    perm = draw(st.permutations(range(n)))
    cost = [
        [
            INFINITY if entries[i * n + j] == "inf" else Fraction(entries[i * n + j], 2)
            for j in range(n)
        ]
        for i in range(n)
    ]
    for i, j in enumerate(perm):
        if cost[i][j] is INFINITY:
            cost[i][j] = Fraction(draw(st.integers(0, 8)), 2)
    return n, cost, perm


@given(support_scenarios())
@settings(max_examples=120, deadline=None)
def test_detector_agrees_with_exhaustive_enumeration(scenario):
    n, cost, perm = scenario
    inst = uniform_instance(cost)
    plan = permutation_plan(n, perm)
    pairs = support(plan).pairs
    violations = exhaustive_violations(inst, pairs)
    detected = check_c_monotone(inst, plan)
    if violations:
        assert detected is not None
        assert detected.gap > 0
    else:
        assert detected is None


def test_detector_matches_enumeration_on_wide_supports():
    # Non-permutation plans with supports of up to 7 pairs, checked
    # against full simple-cycle enumeration.
    from conftest import random_feasible_plan

    covered = 0
    rng = random.Random(424242)
    for seed in range(60):
        inst = gen_random(3 if seed % 2 else 4, 15000 + seed)
        plan = random_feasible_plan(inst, rng)
        pairs = support(plan).pairs
        if len(pairs) > 7:
            continue
        violations = exhaustive_violations(inst, pairs)
        detected = check_c_monotone(inst, plan)
        assert (detected is not None) == bool(violations)
        if detected is not None:
            # The detected simple cycle is among the enumerated ones.
            best_gap = max(gap for _, gap in violations)
            assert 0 < detected.gap <= best_gap
        covered += 1
    assert covered >= 40


class TestImprovePlan:
    def test_antidiagonal_becomes_diagonal(self, square_instance):
        anti = permutation_plan(2, (1, 0))
        cycle = check_c_monotone(square_instance, anti)
        improved = improve_plan(square_instance, anti, cycle)
        assert improved.mass == permutation_plan(2, (0, 1)).mass
        assert total_cost(square_instance, anti) - total_cost(
            square_instance, improved
        ) == Fraction(1, 2) * cycle.gap

    def test_cyclic_shift_drops_to_diagonal(self):
        inst = gen_ap(3, 1, 2)
        shift = ap_shift_plan(3)
        cycle = check_c_monotone(inst, shift)
        improved = improve_plan(inst, shift, cycle)
        assert improved.mass == ap_diagonal_plan(3).mass
        assert total_cost(inst, improved) == 1

    def test_zero_mass_cycle_rejected(self, square_instance):
        diag = permutation_plan(2, (0, 1))
        fake = ViolatingCycle(pairs=((0, 1), (1, 0)), gap=Fraction(2))
        with pytest.raises(InstanceError, match="positive mass"):
            improve_plan(square_instance, diag, fake)

    def test_marginals_and_mass_preserved(self):
        for seed in range(25):
            inst = gen_random(5, 500 + seed)
            rng = random.Random(seed)
            perm = list(range(5))
            rng.shuffle(perm)
            plan = permutation_plan(5, perm)
            cycle = check_c_monotone(inst, plan)
            if cycle is None:
                continue
            improved = improve_plan(inst, plan, cycle)
            assert marginals(improved) == marginals(plan)
            assert improved.total_mass == plan.total_mass
            assert all(v >= 0 for row in improved.mass for v in row)

    def test_cost_drop_is_exactly_alpha_times_gap(self):
        for seed in range(25):
            inst = gen_random(4, 900 + seed)
            rng = random.Random(seed)
            perm = list(range(4))
            rng.shuffle(perm)
            plan = permutation_plan(4, perm)
            cycle = check_c_monotone(inst, plan)
            if cycle is None:
                continue
            alpha = min(plan.mass[x][y] for x, y in cycle.pairs)
            improved = improve_plan(inst, plan, cycle)
            drop = total_cost(inst, plan) - total_cost(inst, improved)
            assert drop == alpha * cycle.gap


class TestImproveToMonotone:
    def test_antidiagonal_single_iteration(self, square_instance):
        final, trajectory, converged = improve_to_monotone(
            square_instance, permutation_plan(2, (1, 0))
        )
        steps = len(trajectory) - 1
        assert converged and steps == 1
        assert total_cost(square_instance, final) == 0

    def test_already_monotone_zero_iterations(self, square_instance):
        final, trajectory, converged = improve_to_monotone(
            square_instance, permutation_plan(2, (0, 1))
        )
        steps = len(trajectory) - 1
        assert converged and steps == 0

    def test_random_permutation_reaches_brute_force_optimum(self):
        for seed in range(15):
            inst = gen_random(5, 7000 + seed)
            rng = random.Random(seed)
            perm = list(range(5))
            rng.shuffle(perm)
            final, _, converged = improve_to_monotone(
                inst, permutation_plan(5, perm)
            )
            assert converged
            assert total_cost(inst, final) == brute_force_optimal(inst)

    def test_monotone_iff_optimal_on_finite_costs(self):
        for seed in range(30):
            inst = gen_random(4, 11000 + seed)
            rng = random.Random(seed)
            perm = list(range(4))
            rng.shuffle(perm)
            plan = permutation_plan(4, perm)
            optimal, _ = is_optimal(inst, plan, solve_exact(inst))
            monotone = check_c_monotone(inst, plan) is None
            assert optimal == monotone

    def test_optimal_implies_monotone_with_infinities(self):
        for seed in range(30):
            inst = gen_random(5, 13000 + seed, inf_density=0.35)
            result = solve_exact(inst)
            if not result.feasible:
                continue
            assert check_c_monotone(inst, result.plan) is None
