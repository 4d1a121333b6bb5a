"""Chain potentials, c-transform, and the strong-monotonicity certificate."""

import random
from fractions import Fraction

import pytest

from transport_certify import (
    INFINITY,
    NEG_INFINITY,
    InstanceError,
    PotentialPair,
    c_transform,
    certify_strong,
    chain_potential,
    check_c_monotone,
    residual_graph,
    solve_exact,
    support,
    total_cost,
    verify_strong_monotonicity,
)
from transport_certify.generators import (
    gen_blocks,
    gen_random,
    gen_zero_one,
    zero_one_diagonal_plan,
)
from conftest import permutation_plan, uniform_instance


class TestChainPotential:
    def test_diagonal_support_values(self, square_instance):
        sup = support(permutation_plan(2, (0, 1)))
        phi = chain_potential(square_instance, sup, (0, 0))
        assert phi == (0, 1)

    def test_anchor_source_is_zero_gauge(self):
        for seed in range(10):
            inst = gen_random(4, 600 + seed)
            plan = solve_exact(inst).plan
            sup = support(plan)
            anchor = sup.pairs[0]
            phi = chain_potential(inst, sup, anchor)
            assert phi[anchor[0]] == 0

    def test_negative_cycle_pumps_to_neg_infinity(self, square_instance):
        sup = support(permutation_plan(2, (1, 0)))
        phi = chain_potential(square_instance, sup, (0, 1))
        assert all(v is NEG_INFINITY for v in phi)

    def test_anchor_not_in_support_rejected(self, square_instance):
        sup = support(permutation_plan(2, (0, 1)))
        with pytest.raises(InstanceError, match="anchor"):
            chain_potential(square_instance, sup, (0, 1))

    def test_rebasing_inequality_holds_everywhere(self):
        # For every source x and support pair (x', y) with finite cost(x, y):
        # phi(x) <= phi(x') + cost(x, y) - cost(x', y).
        for seed in range(20):
            inst = gen_random(5, 800 + seed, inf_density=0.3)
            result = solve_exact(inst)
            if not result.feasible:
                continue
            sup = support(result.plan)
            phi = chain_potential(inst, sup, sup.pairs[0])
            for x in range(inst.x_size):
                if phi[x] is NEG_INFINITY:
                    continue
                for x2, y in sup.pairs:
                    entry = inst.cost[x][y]
                    if entry is INFINITY or phi[x2] is NEG_INFINITY:
                        continue
                    assert phi[x] <= phi[x2] + entry - inst.cost[x2][y]

    def test_constant_cost_shift_keeps_differences(self):
        inst = gen_random(4, 41)
        plan = solve_exact(inst).plan
        sup = support(plan)
        phi = chain_potential(inst, sup, sup.pairs[0])
        bump = Fraction(7, 3)
        from transport_certify import Instance

        shifted = Instance(
            mu=inst.mu,
            nu=inst.nu,
            cost=tuple(tuple(v + bump for v in row) for row in inst.cost),
        )
        phi_shifted = chain_potential(shifted, sup, sup.pairs[0])
        assert phi_shifted == phi


class TestCTransform:
    def test_direct_evaluation(self, square_instance):
        psi = c_transform(square_instance, (Fraction(0), Fraction(1)), (0, 1))
        assert psi == (0, -1)

    def test_constant_cost(self):
        inst = uniform_instance([[1, 1], [1, 1]])
        psi = c_transform(inst, (Fraction(0), Fraction(0)), (0, 1))
        assert psi == (1, 1)

    def test_singleton(self):
        inst = uniform_instance([[5]])
        assert c_transform(inst, (Fraction(0),), (0,)) == (5,)

    def test_empty_domain_rejected(self, square_instance):
        with pytest.raises(InstanceError, match="empty domain"):
            c_transform(square_instance, (Fraction(0), Fraction(0)), ())

    def test_all_infinite_column_maps_to_neg_infinity(self):
        inst = uniform_instance([[0, "inf"], [1, "inf"]])
        psi = c_transform(inst, (Fraction(0), Fraction(0)), (0, 1))
        assert psi[1] is NEG_INFINITY

    def test_infimum_attained_on_support_partner(self):
        for seed in range(15):
            inst = gen_random(4, 4200 + seed)
            plan = solve_exact(inst).plan
            sup = support(plan)
            phi = chain_potential(inst, sup, sup.pairs[0])
            domain = sup.x_projection()
            psi = c_transform(inst, phi, domain)
            for x, y in sup.pairs:
                assert psi[y] == inst.cost[x][y] - phi[x]


class TestVerifyStrongMonotonicity:
    def test_reference_pair_passes(self, square_instance):
        pair = PotentialPair(
            phi=(Fraction(0), Fraction(1)),
            psi=(Fraction(0), Fraction(-1)),
            anchor=(0, 0),
        )
        plan = permutation_plan(2, (0, 1))
        report = verify_strong_monotonicity(square_instance, plan, pair)
        assert report.ok
        assert report.min_slack == 0
        assert report.max_residual == 0

    def test_perturbed_psi_fails_feasibility(self, square_instance):
        pair = PotentialPair(
            phi=(Fraction(0), Fraction(1)),
            psi=(Fraction(0), Fraction(-1) + Fraction(1, 10)),
            anchor=(0, 0),
        )
        plan = permutation_plan(2, (0, 1))
        report = verify_strong_monotonicity(square_instance, plan, pair)
        assert not report.ok
        assert not report.feasible_everywhere
        assert report.min_slack == Fraction(-1, 10)
        assert report.worst_pair == (1, 1)

    def test_slack_on_support_fails_tightness(self, square_instance):
        pair = PotentialPair(
            phi=(Fraction(0), Fraction(1) - Fraction(1, 5)),
            psi=(Fraction(0), Fraction(-1)),
            anchor=(0, 0),
        )
        plan = permutation_plan(2, (0, 1))
        report = verify_strong_monotonicity(square_instance, plan, pair)
        assert report.feasible_everywhere
        assert not report.tight_on_support
        assert report.worst_support_pair == (1, 1)

    def test_neg_infinity_on_support_projection_fails(self, square_instance):
        pair = PotentialPair(
            phi=(Fraction(0), NEG_INFINITY),
            psi=(Fraction(0), Fraction(-1)),
            anchor=(0, 0),
        )
        plan = permutation_plan(2, (0, 1))
        report = verify_strong_monotonicity(square_instance, plan, pair)
        assert not report.tight_on_support
        assert report.max_residual is INFINITY


class TestCertifyStrong:
    def test_optimal_plans_certify_on_finite_costs(self):
        for seed in range(20):
            inst = gen_random(4, 300 + seed)
            plan = solve_exact(inst).plan
            cert = certify_strong(inst, plan)
            assert cert.ok
            assert cert.report.ok
            assert cert.class_count == 1
            anchor = cert.pair.anchor
            assert cert.pair.phi[anchor[0]] == 0

    def test_non_monotone_plan_fails_with_cycle(self, square_instance):
        cert = certify_strong(square_instance, permutation_plan(2, (1, 0)))
        assert not cert.ok
        assert cert.reason == "not c-monotone"
        assert cert.cycle is not None

    def test_certifies_iff_monotone_on_finite_costs(self):
        for seed in range(30):
            inst = gen_random(4, 1700 + seed)
            rng = random.Random(seed)
            perm = list(range(4))
            rng.shuffle(perm)
            plan = permutation_plan(4, perm)
            monotone = check_c_monotone(inst, plan) is None
            cert = certify_strong(inst, plan)
            assert cert.ok == monotone

    def test_multi_class_block_instance_certifies(self):
        inst = gen_blocks((2, 3), seed=5)
        plan = solve_exact(inst).plan
        cert = certify_strong(inst, plan)
        assert cert.ok
        assert cert.class_count == 2
        assert [cls.sources for cls in cert.classes] == [(0, 1), (2, 3, 4)]

    def test_builds_one_residual_graph(self, monkeypatch):
        from transport_certify import potentials

        built = []

        def counting(*args):
            built.append(args)
            return residual_graph(*args)

        monkeypatch.setattr(potentials, "residual_graph", counting)
        inst = gen_blocks((2, 3), seed=5)
        assert certify_strong(inst, solve_exact(inst).plan).ok
        assert len(built) == 1

    def test_triangular_grid_certificate_and_growth(self):
        n = 16
        inst = gen_zero_one(n)
        plan = zero_one_diagonal_plan(n)
        cert = certify_strong(inst, plan)
        assert cert.ok
        assert cert.class_count == n + 1
        phi = cert.pair.phi
        # Consecutive-pair oracle: equality at (k, k) and feasibility at
        # (k+1, k) force phi(k) - phi(k+1) >= c(k,k) - c(k+1,k), exactly.
        for k in range(n):
            assert phi[k] - phi[k + 1] >= inst.cost[k][k] - inst.cost[k + 1][k]
        total_drop = phi[0] - phi[n]
        assert total_drop >= 4  # sqrt(16), accumulated over the chain

    def test_potentials_reproduce_plan_cost_by_duality(self):
        for seed in range(15):
            inst = gen_random(5, 2500 + seed)
            plan = solve_exact(inst).plan
            cert = certify_strong(inst, plan)
            dual_value = sum(
                w * v for w, v in zip(inst.mu, cert.pair.phi)
            ) + sum(w * v for w, v in zip(inst.nu, cert.pair.psi))
            assert dual_value == total_cost(inst, plan)

    def test_certifies_iff_monotone_with_infinities(self):
        # The cross-class gluing always succeeds because class reach
        # edges and finite cross-class cells coincide, making the offset
        # constraints acyclic; so with infinite entries present a finite
        # plan certifies exactly when it is cyclically monotone.
        checked = 0
        for seed in range(160):
            n = 2 + seed % 5
            inst = gen_random(n, 6200 + seed, inf_density=0.3)
            result = solve_exact(inst)
            if not result.feasible:
                continue
            rng = random.Random(seed)
            perm = list(range(n))
            rng.shuffle(perm)
            plan = permutation_plan(n, perm)
            if total_cost(inst, plan) is INFINITY:
                continue
            monotone = check_c_monotone(inst, plan) is None
            assert certify_strong(inst, plan).ok == monotone
            checked += 1
        assert checked >= 30

    def test_multi_class_duality_identity_with_infinities(self):
        certified = 0
        for seed in range(60):
            inst = gen_random(5, 6400 + seed, inf_density=0.45)
            result = solve_exact(inst)
            if not result.feasible:
                continue
            cert = certify_strong(inst, result.plan)
            assert cert.ok
            if cert.class_count < 2:
                continue
            dual_value = sum(
                w * v for w, v in zip(inst.mu, cert.pair.phi)
            ) + sum(w * v for w, v in zip(inst.nu, cert.pair.psi))
            assert dual_value == result.value
            certified += 1
        assert certified >= 5


class TestFloatMode:
    def test_float_pipeline_matches_rational(self):
        from transport_certify import float_policy, instance_from_dict, instance_to_dict

        policy = float_policy()
        for seed in range(8):
            inst = gen_random(4, 5200 + seed, inf_density=0.2)
            result = solve_exact(inst)
            if not result.feasible:
                continue
            approx_inst = instance_from_dict(instance_to_dict(inst), policy)
            approx_plan = solve_exact(approx_inst, policy).plan
            assert check_c_monotone(approx_inst, approx_plan, policy) is None
            cert = certify_strong(approx_inst, approx_plan, policy)
            assert cert.ok

    def test_float_improvement_converges(self):
        from transport_certify import float_policy, improve_to_monotone, instance_from_dict, instance_to_dict

        policy = float_policy()
        inst = gen_random(4, 5300)
        approx = instance_from_dict(instance_to_dict(inst), policy)
        plan = permutation_plan(4, (3, 2, 1, 0))
        approx_plan = solve_exact(approx, policy).plan
        final, _, converged = improve_to_monotone(
            approx, plan_from_float(plan), policy=policy
        )
        assert converged
        assert abs(
            sum(
                approx.cost[i][j] * final.mass[i][j]
                for i in range(4)
                for j in range(4)
            )
            - sum(
                approx.cost[i][j] * approx_plan.mass[i][j]
                for i in range(4)
                for j in range(4)
            )
        ) < 1e-9


def plan_from_float(plan):
    from transport_certify import TransportPlan

    return TransportPlan(
        mass=tuple(tuple(float(v) for v in row) for row in plan.mass)
    )
