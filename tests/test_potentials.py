"""Chain potentials, c-transform, and the strong-monotonicity certificate."""

import math
import random
from fractions import Fraction

import pytest

from transport_certify import (
    INFINITY,
    NEG_INFINITY,
    InstanceError,
    PotentialPair,
    RATIONAL,
    TransportPlan,
    c_transform,
    certify_strong,
    chain_potential,
    check_c_monotone,
    float_policy,
    instance_from_dict,
    instance_to_dict,
    make_plan,
    residual_graph,
    solve_exact,
    support,
    total_cost,
    verify_strong_monotonicity,
)
from transport_certify.generators import (
    gen_ap,
    gen_blocks,
    gen_random,
    gen_shift,
    gen_zero_one,
    zero_one_diagonal_plan,
)
from conftest import (
    permutation_plan,
    reference_support,
    reference_total_cost,
    reference_verify,
    uniform_instance,
)


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

    @pytest.mark.parametrize("case", ["blocks", "zero-one"])
    def test_runs_one_bellman_ford(self, monkeypatch, case):
        from transport_certify import monotonicity, potentials

        if case == "blocks":
            inst = gen_blocks((2, 3), seed=5)
            plan = solve_exact(inst).plan
        else:
            inst, plan = gen_zero_one(16), zero_one_diagonal_plan(16)
        runs, chains = [], []
        bellman_ford = monotonicity._bellman_ford

        def counting_runs(*args):
            runs.append(args)
            return bellman_ford(*args)

        def counting_chains(*args):
            chains.append(args)
            raise AssertionError("certify_strong called distances_to")

        monkeypatch.setattr(monotonicity, "_bellman_ford", counting_runs)
        monkeypatch.setattr(potentials, "distances_to", counting_chains)
        assert certify_strong(inst, plan).ok
        assert (len(runs), len(chains)) == (1, 0)

    def test_agrees_with_chain_infimum_reference(self):
        # On a single class the chain potential and its c-transform over
        # the supported sources are a certificate too; both pairs must
        # pass the full-product check and give the plan's cost as dual
        # value.
        compared = 0
        for seed in range(40):
            inst = gen_random(2 + seed % 5, 9100 + seed,
                              inf_density=0.3 if seed % 2 else 0.0)
            result = solve_exact(inst)
            if not result.feasible:
                continue
            cert = certify_strong(inst, result.plan)
            assert cert.ok
            if cert.class_count != 1:
                continue
            sup = support(result.plan)
            phi = chain_potential(inst, sup, sup.pairs[0])
            psi = c_transform(inst, phi, sup.x_projection())
            reference = PotentialPair(phi=phi, psi=psi, anchor=sup.pairs[0])
            values = []
            for pair in (reference, cert.pair):
                assert verify_strong_monotonicity(inst, result.plan, pair).ok
                values.append(
                    sum(w * v for w, v in zip(inst.mu, pair.phi))
                    + sum(w * v for w, v in zip(inst.nu, pair.psi)))
            assert values == [result.value, result.value]
            compared += 1
        assert compared >= 25

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
        # Without a negative cycle the settled distances of the cycle
        # search are a certificate for every class at once, so with
        # infinite entries present a finite plan certifies exactly when it
        # is cyclically monotone.
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


def _oracle_cases():
    """About 120 seeded instances of five families; each is checked with
    the solver's plan and the product plan."""
    for seed in range(80):
        n = 2 + seed % 11
        yield gen_random(n, 7700 + seed, inf_density=(0, 0.3, 0.6)[seed % 3])
    for seed in range(16):
        yield gen_blocks((1 + seed % 3, 2, 2 + seed % 4), seed)
    for n in range(2, 10):
        yield gen_zero_one(n)
        yield gen_shift(n)
        yield gen_ap(n, 1, 2)


def _tampered_pairs(inst, plan, pair, step):
    """The pair, one phi raised by ``step``, and one support potential set
    to NEG_INFINITY."""
    x, y = support(plan).pairs[-1]
    raised = list(pair.phi)
    raised[0] = raised[0] + step if raised[0] is not NEG_INFINITY else step
    cut_phi, cut_psi = list(pair.phi), list(pair.psi)
    if (x + y) % 2:
        cut_phi[x] = NEG_INFINITY
    else:
        cut_psi[y] = NEG_INFINITY
    return [pair,
            PotentialPair(phi=tuple(raised), psi=pair.psi, anchor=pair.anchor),
            PotentialPair(phi=tuple(cut_phi), psi=tuple(cut_psi),
                          anchor=pair.anchor)]


class TestIntegerCertification:
    def test_matches_fraction_and_float_oracles(self):
        policy = float_policy()
        checked = 0
        failed = 0
        for inst in _oracle_cases():
            result = solve_exact(inst)
            if not result.feasible:
                continue
            den = math.lcm(*(entry.denominator for entry in
                             inst.finite_cost_values()))
            product = make_plan([[a * b for b in inst.nu] for a in inst.mu])
            approx = instance_from_dict(instance_to_dict(inst), policy)
            for plan in (result.plan, product):
                assert support(plan) == reference_support(plan)
                assert total_cost(inst, plan) == reference_total_cost(inst,
                                                                      plan)
                floats = TransportPlan(mass=tuple(
                    tuple(float(m) for m in row) for row in plan.mass))
                assert support(floats, policy=policy) == reference_support(
                    floats, policy)
                assert total_cost(approx, floats) == reference_total_cost(
                    approx, floats)
            cert = certify_strong(inst, result.plan)
            assert cert.ok and cert.report == reference_verify(
                inst, result.plan, cert.pair)
            approx_plan = solve_exact(approx, policy).plan
            approx_cert = certify_strong(approx, approx_plan, policy)
            assert approx_cert.report == reference_verify(
                approx, approx_plan, approx_cert.pair, policy)
            cases = [(inst, plan, pair, RATIONAL)
                     for plan in (result.plan, product)
                     for pair in _tampered_pairs(inst, result.plan, cert.pair,
                                                 Fraction(1, den))]
            cases += [(approx, approx_plan, pair, policy)
                      for pair in _tampered_pairs(approx, approx_plan,
                                                  approx_cert.pair, 1 / den)]
            for instance, plan, pair, mode in cases:
                report = verify_strong_monotonicity(instance, plan, pair, mode)
                assert report == reference_verify(instance, plan, pair, mode)
                failed += not report.ok
            checked += 1
        assert checked >= 100
        assert failed >= 2 * checked

    def test_no_fraction_arithmetic_per_cell(self, monkeypatch):
        # One Fraction operation per cell of the 40x40 product (or per
        # support pair) would put the count far above |X| + |Y| = 80.
        inst = gen_random(40, 1)
        plan = solve_exact(inst).plan
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                     "__abs__", "__lt__", "__le__", "__gt__", "__ge__",
                     "__eq__", "__bool__"):
            original = getattr(Fraction, name)

            def counting(*args, _original=original):
                calls.append(1)
                return _original(*args)

            monkeypatch.setattr(Fraction, name, counting)
        counts = {}
        for name, run in (("certify_strong", lambda: certify_strong(inst, plan)),
                          ("total_cost", lambda: total_cost(inst, plan)),
                          ("support", lambda: support(plan))):
            calls.clear()
            run()
            counts[name] = len(calls)
        monkeypatch.undo()
        assert all(count < 80 for count in counts.values()), counts

    def test_nan_potential_fails_in_float_mode(self, square_instance):
        policy = float_policy()
        inst = instance_from_dict(instance_to_dict(square_instance), policy)
        plan = TransportPlan(mass=((0.5, 0.0), (0.0, 0.5)))
        nan = float("nan")
        for phi, psi in (((nan, nan), (nan, nan)), ((0.0, 1.0), (0.0, nan))):
            pair = PotentialPair(phi=phi, psi=psi, anchor=(0, 0))
            report = verify_strong_monotonicity(inst, plan, pair, policy)
            assert not report.ok
            assert not report.feasible_everywhere
            assert not report.tight_on_support


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
