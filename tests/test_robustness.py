"""Storage extensions, the toll defense, and the sampled adversary."""

import math
import random
from fractions import Fraction

import pytest

from transport_certify import (
    INFINITY,
    ExtendedInstance,
    InstanceError,
    NEG_INFINITY,
    PotentialPair,
    TransportPlan,
    adversarial_search,
    build_extension,
    certify_strong,
    check_robust_defense,
    extended_plan,
    is_optimal,
    solve_exact,
    total_cost,
)
from transport_certify import robustness
from transport_certify.generators import (
    ap_diagonal_plan,
    ap_shift_plan,
    gen_ap,
    gen_blocks,
    gen_random,
    gen_zero_one,
    zero_one_diagonal_plan,
)
from transport_certify.robustness import _extended_cost
from conftest import permutation_plan, uniform_instance


class TestBuildExtension:
    def test_tolls_clamped_at_zero(self, square_instance):
        pair = PotentialPair(
            phi=(Fraction(0), Fraction(1)),
            psi=(Fraction(0), Fraction(-1)),
            anchor=(0, 0),
        )
        ext = build_extension(square_instance, pair, 1, [Fraction(1, 2)])
        assert [row[2] for row in ext.extended_cost[:2]] == [0, 1]
        assert list(ext.extended_cost[2][:2]) == [0, 0]
        assert ext.extended_cost[2][2] == 0

    def test_zero_storage_is_base_instance(self, square_instance):
        pair = PotentialPair(
            phi=(Fraction(0), Fraction(1)),
            psi=(Fraction(0), Fraction(-1)),
            anchor=(0, 0),
        )
        ext = build_extension(square_instance, pair, 0, [])
        assert ext.as_instance().cost == square_instance.cost
        assert ext.as_instance().mu == square_instance.mu

    def test_zero_potentials_zero_tolls(self):
        inst = uniform_instance([[1, 1], [1, 1]])
        pair = PotentialPair(
            phi=(Fraction(0), Fraction(0)),
            psi=(Fraction(0), Fraction(0)),
            anchor=(0, 0),
        )
        ext = build_extension(inst, pair, 2, [Fraction(1), Fraction(1)])
        for row in ext.extended_cost[:2]:
            assert row[2] == row[3] == 0

    def test_neg_infinity_phi_gets_zero_toll(self, square_instance):
        pair = PotentialPair(
            phi=(Fraction(0), NEG_INFINITY),
            psi=(Fraction(0), Fraction(0)),
            anchor=(0, 0),
        )
        ext = build_extension(square_instance, pair, 1, [Fraction(1)])
        assert ext.extended_cost[1][2] == 0

    def test_base_block_and_marginals_preserved(self):
        inst = gen_random(3, 2)
        cert = certify_strong(inst, solve_exact(inst).plan)
        lam = (Fraction(1, 2), Fraction(1, 3))
        ext = build_extension(inst, cert.pair, 2, lam)
        full = ext.as_instance()
        for i in range(3):
            assert full.cost[i][:3] == inst.cost[i]
        assert full.mu == inst.mu + lam
        assert full.nu == inst.nu + lam
        finite = all(
            full.cost[i][j] is not INFINITY
            for i in range(5)
            for j in range(5)
            if i >= 3 or j >= 3
        )
        assert finite

    def test_wrong_lambda_length_rejected(self, square_instance):
        pair = PotentialPair(
            phi=(Fraction(0), Fraction(1)),
            psi=(Fraction(0), Fraction(-1)),
            anchor=(0, 0),
        )
        with pytest.raises(InstanceError, match="lambda"):
            build_extension(square_instance, pair, 2, [Fraction(1)])


class TestExtendedPlan:
    def test_storage_diagonal(self):
        plan = permutation_plan(2, (0, 1))
        lam = (Fraction(1, 2), Fraction(1, 4))
        defended = extended_plan(plan, 2, lam)
        assert defended.mass[2][2] == Fraction(1, 2)
        assert defended.mass[3][3] == Fraction(1, 4)
        assert defended.mass[2][3] == 0
        assert defended.total_mass == 1 + Fraction(3, 4)


class TestRobustDefense:
    def test_diagonal_plan_defends(self, square_instance):
        plan = permutation_plan(2, (0, 1))
        report = check_robust_defense(
            square_instance, plan, certify_strong(square_instance, plan), 1,
            [Fraction(1, 2)]
        )
        assert report.ok
        assert report.gap == 0

    def test_cyclic_diagonal_defends(self):
        inst = gen_ap(3, 1, 2)
        plan = ap_diagonal_plan(3)
        report = check_robust_defense(inst, plan, certify_strong(inst, plan), 1,
                                      [Fraction(1)])
        assert report.ok and report.gap == 0

    def test_non_monotone_plan_rejected(self, square_instance):
        plan = permutation_plan(2, (1, 0))
        with pytest.raises(InstanceError, match="strongly c-monotone"):
            check_robust_defense(
                square_instance, plan, certify_strong(square_instance, plan), 1,
                [Fraction(1)]
            )

    def test_zero_storage_reduces_to_is_optimal(self):
        for seed in range(10):
            inst = gen_random(4, 50 + seed)
            optimum = solve_exact(inst)
            plan = optimum.plan
            report = check_robust_defense(inst, plan, certify_strong(inst, plan),
                                          0, [])
            ok, gap = is_optimal(inst, plan, optimum)
            assert report.ok == ok
            assert report.gap == gap

    def test_multi_class_plan_defends(self):
        inst = gen_blocks((2, 2), seed=8)
        plan = solve_exact(inst).plan
        report = check_robust_defense(inst, plan, certify_strong(inst, plan), 2,
                                      [Fraction(1, 2)] * 2)
        assert report.ok and report.gap == 0

    def test_triangular_grid_defends(self):
        inst = gen_zero_one(8)
        plan = zero_one_diagonal_plan(8)
        report = check_robust_defense(inst, plan, certify_strong(inst, plan), 1,
                                      [Fraction(1)])
        assert report.ok and report.gap == 0

    def test_defended_value_studies_base_plus_zero_storage(self):
        inst = gen_random(3, 17)
        plan = solve_exact(inst).plan
        report = check_robust_defense(inst, plan, certify_strong(inst, plan), 1,
                                      [Fraction(2)])
        assert report.defended_value == total_cost(inst, plan)


class TestAdversarialSearch:
    def test_defended_plan_costs_plan_value_under_any_tolls(self):
        # The search scores each trial against the base plan's cost: the
        # defended plan puts no mass on a toll arc.
        rng = random.Random(31)
        for seed in range(6):
            inst = gen_random(5, 200 + seed, inf_density=0.3 * (seed % 2))
            plan = solve_exact(inst).plan
            for z in (1, 2):
                lam = [Fraction(rng.randint(1, 4), 4) for _ in range(z)]
                x_tolls = [[Fraction(rng.randint(0, 40), 8) for _ in range(z)]
                           for _ in range(inst.x_size)]
                y_tolls = [[Fraction(rng.randint(0, 40), 8)
                            for _ in range(inst.y_size)] for _ in range(z)]
                ext = ExtendedInstance(
                    base=inst, z_size=z, lam=tuple(lam),
                    extended_cost=_extended_cost(inst.cost, x_tolls, y_tolls,
                                                 Fraction(0)),
                ).as_instance()
                assert (total_cost(ext, extended_plan(plan, z, lam))
                        == total_cost(inst, plan))

    def test_certified_plan_never_beaten(self):
        for seed in range(5):
            inst = gen_random(4, 70 + seed)
            plan = solve_exact(inst).plan
            report = adversarial_search(inst, plan, 1, [Fraction(1)], 40, seed)
            assert report.floored
            assert report.max_improvement == 0
            assert report.improving_trial is None

    def test_sampled_tolls_dominate_certificate(self):
        # The defended plan's extended cost never exceeds the extended
        # optimum for any sampled toll matrix.
        inst = gen_random(3, 90)
        plan = solve_exact(inst).plan
        report = adversarial_search(inst, plan, 2, [Fraction(1, 2)] * 2, 60, 11)
        assert report.max_improvement <= 0

    def test_uncertified_plan_attacked_raw(self, square_instance):
        anti = permutation_plan(2, (1, 0))
        report = adversarial_search(
            square_instance, anti, 1, [Fraction(1, 2)], 30, 3
        )
        assert not report.floored
        assert report.max_improvement >= 1
        assert report.improving_trial is not None

    def test_zero_trials_empty_report(self, square_instance):
        plan = permutation_plan(2, (0, 1))
        report = adversarial_search(square_instance, plan, 1, [Fraction(1)], 0, 0)
        assert report.trials == 0
        assert report.max_improvement is None

    def test_seed_reproducible(self):
        inst = gen_random(3, 123)
        plan = solve_exact(inst).plan
        a = adversarial_search(inst, plan, 1, [Fraction(1)], 25, 99)
        b = adversarial_search(inst, plan, 1, [Fraction(1)], 25, 99)
        assert a == b


def _product_plan(inst):
    return TransportPlan(mass=tuple(tuple(a * b for b in inst.nu)
                                    for a in inst.mu))


class TestAdversaryDraws:
    @pytest.mark.parametrize("lam, message", [
        ((Fraction(-1),), "storage weights must be nonnegative"),
        ((Fraction(1), Fraction(1)), "lambda has 2 entries, expected 1"),
    ])
    def test_storage_weights_validated_like_build_extension(self, lam, message):
        inst = gen_random(4, 9)
        plan = solve_exact(inst).plan
        with pytest.raises(InstanceError, match=message):
            adversarial_search(inst, plan, 1, lam, 10, 0)
        pair = certify_strong(inst, plan).pair
        with pytest.raises(InstanceError, match=message):
            build_extension(inst, pair, 1, lam)

    @pytest.mark.parametrize("case, z_size, lam, seed, expected", [
        ("ap", 1, Fraction(1), 3, Fraction(149, 128)),
        ("ap", 2, Fraction(1, 2), 3, Fraction(173, 128)),
        ("random", 1, Fraction(1), 7, Fraction(17, 24)),
        ("random", 2, Fraction(1, 2), 7, Fraction(23, 32)),
    ])
    def test_seeded_draws_are_pinned(self, case, z_size, lam, seed, expected):
        if case == "ap":
            inst, plan = gen_ap(8, 1, 2), ap_shift_plan(8)
        else:
            inst = gen_random(8, 9)
            plan = _product_plan(inst)
        report = adversarial_search(inst, plan, z_size, [lam] * z_size, 10, seed)
        assert report.max_improvement == expected
        assert report.improving_trial == 0
        assert not report.floored

    @pytest.mark.parametrize("certified", [True, False])
    def test_each_integer_trial_solves_its_fraction_extension(
            self, certified, monkeypatch):
        # Replays the seeded draws in Fractions and checks every trial's
        # integer network against the Fraction extension it stands for.
        inst = gen_random(5, 41, inf_density=0.3 if certified else 0)
        plan = solve_exact(inst).plan if certified else _product_plan(inst)
        z_size, lam, trials, seed = 2, [Fraction(1, 3)] * 2, 6, 5
        solved = []
        solve_transport = robustness.solve_transport

        def recording(mu, nu, cost, policy):
            result = solve_transport(mu, nu, cost, policy)
            solved.append((cost, result[1]))
            return result

        monkeypatch.setattr(robustness, "solve_transport", recording)
        report = adversarial_search(inst, plan, z_size, lam, trials, seed)
        assert report.floored == certified and len(solved) == trials

        cert = certify_strong(inst, plan)
        zero = Fraction(0)
        if certified:
            floor_x = [max(zero, p) if p is not NEG_INFINITY else zero
                       for p in cert.pair.phi]
            floor_y = [max(zero, q) if q is not NEG_INFINITY else zero
                       for q in cert.pair.psi]
        else:
            floor_x, floor_y = [zero] * inst.x_size, [zero] * inst.y_size
        finite = inst.finite_cost_values()
        spread = max(finite) - min(finite)
        cost_unit = 16 * inst.scaled_cost.scale
        unit = cost_unit * math.lcm(
            *(w.denominator for w in inst.mu + inst.nu + tuple(lam)))
        plan_value = total_cost(inst, plan)
        rng = random.Random(seed)
        improvements = []
        for cost, value in solved:
            x_tolls = [[floor_x[x] + Fraction(rng.randint(0, 32), 16) * spread
                        for _ in range(z_size)] for x in range(inst.x_size)]
            y_tolls = [[floor_y[y] + Fraction(rng.randint(0, 32), 16) * spread
                        for y in range(inst.y_size)] for _ in range(z_size)]
            ext = ExtendedInstance(
                base=inst, z_size=z_size, lam=tuple(lam),
                extended_cost=_extended_cost(inst.cost, x_tolls, y_tolls, zero),
            ).as_instance()
            assert cost == tuple(
                tuple(e if e is INFINITY else e * cost_unit for e in row)
                for row in ext.cost)
            optimum = solve_exact(ext).value
            assert Fraction(value, unit) == optimum
            improvements.append(plan_value - optimum)
        assert report.max_improvement == max(improvements)
        first = next((k for k, gain in enumerate(improvements) if gain > 0),
                     None)
        assert report.improving_trial == first
