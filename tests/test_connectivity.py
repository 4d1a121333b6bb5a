"""Reachability classes against a naive transitive-closure oracle."""

from fractions import Fraction
from itertools import permutations

import pytest

from transport_certify import (
    INFINITY,
    InstanceError,
    check_class_confinement,
    decompose,
    is_connecting,
    marginals,
    residual_graph,
    solve_exact,
    support,
    total_cost,
)
from transport_certify.generators import (
    ap_shift_plan,
    gen_ap,
    gen_blocks,
    gen_random,
    gen_zero_one,
    zero_one_diagonal_plan,
)
from conftest import permutation_plan, reachability_closure, uniform_instance


def reach_sets(graph, pairs):
    """For each support pair p, the indices of the pairs q it hands work to:
    those whose source reaches p's target in the residual graph."""
    index = {x: [] for x, _ in pairs}
    for k, (x, _) in enumerate(pairs):
        index[x].append(k)
    result = []
    for _, y in pairs:
        # Walk the residual arcs backwards from p's target.
        seen = {graph.x_size + y}
        frontier = [graph.x_size + y]
        while frontier:
            v = frontier.pop()
            for u, out in enumerate(graph.arcs):
                if u not in seen and any(w == v for w, _ in out):
                    seen.add(u)
                    frontier.append(u)
        result.append({k for x in seen if x in index for k in index[x]})
    return result


class TestReachGraph:
    """The hand-over relation read off the residual graph as reachability."""

    def test_finite_costs_complete_digraph(self):
        inst = gen_random(3, 1)
        sup = support(permutation_plan(3, (0, 1, 2)))
        reach = reach_sets(residual_graph(inst, sup), sup.pairs)
        assert all(len(targets) == 3 for targets in reach)

    def test_triangular_grid_one_directional(self):
        inst = gen_zero_one(4)
        sup = support(zero_one_diagonal_plan(4))
        reach = reach_sets(residual_graph(inst, sup), sup.pairs)
        for k, targets in enumerate(reach):
            assert targets == set(range(k, 5))

    def test_cyclic_shift_support_cycles(self):
        inst = gen_ap(3, 1, 2)
        sup = support(ap_shift_plan(3))
        reach = reach_sets(residual_graph(inst, sup), sup.pairs)
        closure = reachability_closure(inst, sup.pairs)
        assert all(closure[a][b] for a in range(3) for b in range(3))
        assert all(reach[a] == {0, 1, 2} for a in range(3))

    def test_infinite_support_pair_rejected(self):
        inst = uniform_instance([[0, "inf"], [1, 0]])
        bad_support = support(permutation_plan(2, (1, 0)))
        with pytest.raises(InstanceError, match="infinite"):
            residual_graph(inst, bad_support)


class TestDecompose:
    def test_finite_costs_single_class(self):
        inst = gen_random(4, 2)
        sup = support(solve_exact(inst).plan)
        deco = decompose(inst, sup)
        assert len(deco.classes) == 1
        assert set(deco.classes[0].pairs) == set(sup.pairs)

    def test_triangular_grid_singleton_classes(self):
        inst = gen_zero_one(4)
        sup = support(zero_one_diagonal_plan(4))
        deco = decompose(inst, sup)
        assert len(deco.classes) == 5
        assert all(len(cls.pairs) == 1 for cls in deco.classes)

    def test_block_diagonal_two_classes(self):
        inst = gen_blocks((2, 2), seed=3)
        plan = solve_exact(inst).plan
        deco = decompose(inst, support(plan))
        assert len(deco.classes) == 2
        assert deco.classes[0].sources == (0, 1)
        assert deco.classes[1].sources == (2, 3)

    def test_matches_closure_oracle(self):
        for seed in range(40):
            inst = gen_random(5, 2000 + seed, inf_density=0.4)
            result = solve_exact(inst)
            if not result.feasible:
                continue
            sup = support(result.plan)
            deco = decompose(inst, sup)
            closure = reachability_closure(inst, sup.pairs)
            pair_index = {p: k for k, p in enumerate(sup.pairs)}
            for cls_a in deco.classes:
                for pa in cls_a.pairs:
                    for cls_b in deco.classes:
                        for pb in cls_b.pairs:
                            a, b = pair_index[pa], pair_index[pb]
                            same = cls_a is cls_b
                            assert (closure[a][b] and closure[b][a]) == same

    def test_order_independent(self, rng):
        inst = gen_random(5, 77, inf_density=0.3)
        result = solve_exact(inst)
        sup = support(result.plan)
        deco = decompose(inst, sup)
        pairs = list(sup.pairs)
        rng.shuffle(pairs)
        from transport_certify import SupportSet

        shuffled = decompose(inst, SupportSet(pairs=tuple(pairs)))
        assert [cls.pairs for cls in deco.classes] == [
            cls.pairs for cls in shuffled.classes
        ]

    def test_classes_partition_support(self):
        inst = gen_blocks((2, 3, 2), seed=9)
        sup = support(solve_exact(inst).plan)
        deco = decompose(inst, sup)
        seen = [p for cls in deco.classes for p in cls.pairs]
        assert sorted(seen) == sorted(sup.pairs)
        assert len(seen) == len(set(seen))


    def test_float_mode_classes_match_rational(self):
        from transport_certify import float_policy, instance_from_dict, instance_to_dict

        policy = float_policy()
        cases = [(gen_blocks(sizes, seed=seed), None)
                 for seed, sizes in enumerate(((2, 2), (1, 3, 2), (3, 3, 1, 2)))]
        cases += [(gen_zero_one(n), zero_one_diagonal_plan(n)) for n in (3, 8)]
        for inst, plan in cases:
            sup = support(plan or solve_exact(inst).plan)
            approx = instance_from_dict(instance_to_dict(inst), policy)
            exact = decompose(inst, sup).classes
            assert decompose(approx, sup, policy).classes == exact
            assert is_connecting(approx, sup, policy) == (len(exact) == 1)


class TestIsConnecting:
    def test_finite_cost_fast_path(self):
        inst = gen_random(4, 3)
        sup = support(solve_exact(inst).plan)
        assert is_connecting(inst, sup)

    def test_triangular_grid_not_connecting(self):
        inst = gen_zero_one(8)
        assert not is_connecting(inst, support(zero_one_diagonal_plan(8)))

    def test_cyclic_shift_support_connecting(self):
        inst = gen_ap(3, 1, 2)
        assert is_connecting(inst, support(ap_shift_plan(3)))


class TestClassConfinement:
    def test_block_diagonal_zero_off_mass(self):
        inst = gen_blocks((2, 2), seed=11)
        deco = decompose(inst, support(solve_exact(inst).plan))
        report = check_class_confinement(inst, deco)
        assert report.feasible
        assert report.off_class_mass == 0
        assert report.witness_plan is None

    def test_single_class_trivially_zero(self):
        inst = gen_random(4, 13)
        deco = decompose(inst, support(solve_exact(inst).plan))
        report = check_class_confinement(inst, deco)
        assert report.off_class_mass == 0

    def test_finite_cross_arc_still_confined(self):
        # Below-diagonal arcs are finite yet unusable: any below-diagonal
        # mass would force above-diagonal (infinite) mass elsewhere.
        inst = gen_zero_one(5)
        deco = decompose(inst, support(zero_one_diagonal_plan(5)))
        assert any(
            inst.cost[x][y] is not INFINITY
            for x in range(6)
            for y in range(6)
            if (x, y) not in {(k, k) for k in range(6)}
        )
        report = check_class_confinement(inst, deco)
        assert report.off_class_mass == 0

    def test_oracle_vertex_enumeration(self):
        # Compare the reported maximum against explicit enumeration of all
        # permutation plans on a block instance.
        inst = gen_blocks((2, 2), seed=21)
        deco = decompose(inst, support(solve_exact(inst).plan))
        inside = set()
        for cls in deco.classes:
            inside |= {(x, y) for x in cls.sources for y in cls.targets}
        best = Fraction(0)
        for perm in permutations(range(4)):
            plan = permutation_plan(4, perm)
            if total_cost(inst, plan) is INFINITY:
                continue
            off = sum(
                plan.mass[x][y]
                for x in range(4)
                for y in range(4)
                if (x, y) not in inside
            )
            best = max(best, off)
        report = check_class_confinement(inst, deco)
        assert report.off_class_mass == best == 0

    def test_infeasible_reported(self):
        inst = uniform_instance([[0, "inf"], ["inf", "inf"]])
        from transport_certify import SupportSet

        deco = decompose(inst, SupportSet(pairs=((0, 0),)))
        report = check_class_confinement(inst, deco)
        assert not report.feasible


class TestStochasticTransitionMatrix:
    def test_feasible_plans_fix_the_class_distribution(self, rng):
        inst = gen_blocks((2, 2, 3), seed=31)
        deco = decompose(inst, support(solve_exact(inst).plan))
        # Any finite feasible plan: here, independent couplings per block.
        plan = solve_exact(inst).plan
        rows, _ = marginals(plan)
        assert rows == inst.mu
        k = len(deco.classes)
        for a in range(k):
            cls_a = deco.classes[a]
            mu_a = sum(inst.mu[x] for x in cls_a.sources)
            for b in range(k):
                cls_b = deco.classes[b]
                mass_ab = sum(
                    plan.mass[x][y] for x in cls_a.sources for y in cls_b.targets
                )
                ratio = mass_ab / mu_a
                assert ratio == (1 if a == b else 0)
