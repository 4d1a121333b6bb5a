"""Dual potentials: chain-infimum construction, c-transform, and the
strong-monotonicity certificate.

The chain potential of a source x, gauged at an anchor support pair, is the
cheapest total of cost differences along any hand-over chain of support
pairs that starts at the anchor and finally serves x.  Equivalently it is

    dist(x -> y_anchor) - cost(anchor)

where dist is the shortest-path distance in the residual graph of the
support (see ``monotonicity``); its c-transform is the tightest partner.

The certificate of ``certify_strong`` comes from the Bellman-Ford that
looks for a violating cycle: once it settles, its distances d satisfy
d(y) <= d(x) + cost(x, y) on every finite cost and d(x) <= d(y) - cost(x, y)
on every support pair, so phi(x) = d(x_anchor) - d(x) and
psi(y) = d(y) - d(x_anchor) are feasible everywhere and tight on the
support, across all connecting classes at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    INFINITY,
    NEG_INFINITY,
    Instance,
    InstanceError,
    Policy,
    RATIONAL,
    SupportSet,
    TransportPlan,
    support,
)
from .connectivity import decompose_graph
from .monotonicity import distances_to, residual_graph, settle


@dataclass(frozen=True)
class PotentialPair:
    """Per-source and per-target dual values in [-inf, inf), gauged so the
    anchor source has potential zero."""

    phi: tuple
    psi: tuple
    anchor: tuple


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    feasible_everywhere: bool
    tight_on_support: bool
    min_slack: object
    worst_pair: tuple | None
    max_residual: object
    worst_support_pair: tuple | None


@dataclass(frozen=True)
class CertifyResult:
    ok: bool
    pair: PotentialPair | None
    reason: str | None
    cycle: object = None
    classes: tuple = ()
    report: VerifyReport | None = None

    @property
    def class_count(self) -> int:
        return len(self.classes)


def chain_potential(instance: Instance, support_set: SupportSet, anchor,
                    policy: Policy = RATIONAL) -> tuple:
    """Per-source chain potential gauged at the anchor support pair.

    Sources that no chain can serve are mapped to NEG_INFINITY, matching
    the convention that potentials vanish to -inf off the support
    projection.  A reachable negative cycle also produces NEG_INFINITY.
    """
    anchor = tuple(anchor)
    if anchor not in support_set.pairs:
        raise InstanceError(f"anchor {anchor} not in support")
    graph = residual_graph(instance, support_set, policy)
    distances = distances_to(graph, graph.x_size + anchor[1],
                             range(len(graph.arcs)))
    anchor_cost = instance.cost[anchor[0]][anchor[1]]
    phi = [NEG_INFINITY] * instance.x_size
    for x, dist in enumerate(distances[:graph.x_size]):
        if dist is not None and dist is not NEG_INFINITY:
            phi[x] = graph.in_cost_units(dist) - anchor_cost
    return tuple(phi)


def c_transform(instance: Instance, phi, domain,
                policy: Policy = RATIONAL) -> tuple:
    """Tightest dual partner: psi(y) = min over the domain of cost - phi.

    The domain must be a set of sources on which phi is finite.  Targets
    whose column is infinite over the whole domain get NEG_INFINITY.
    """
    domain = tuple(domain)
    if not domain:
        raise InstanceError("empty domain for c-transform")
    for x in domain:
        if phi[x] is NEG_INFINITY or phi[x] is INFINITY:
            raise InstanceError(f"phi must be finite on the domain, got {phi[x]!r} at {x}")
    values = []
    for y in range(instance.y_size):
        best = None
        for x in domain:
            entry = instance.cost[x][y]
            if entry is INFINITY:
                continue
            candidate = entry - phi[x]
            if best is None or candidate < best:
                best = candidate
        values.append(NEG_INFINITY if best is None else best)
    return tuple(values)


def _dual_sum(phi_value, psi_value):
    if phi_value is NEG_INFINITY or psi_value is NEG_INFINITY:
        return NEG_INFINITY
    return phi_value + psi_value


def verify_strong_monotonicity(instance: Instance, plan: TransportPlan,
                               pair: PotentialPair,
                               policy: Policy = RATIONAL) -> VerifyReport:
    """Check phi + psi <= cost everywhere and equality on the support.

    Failures are report content, never exceptions.
    """
    min_slack = None
    worst_pair = None
    feasible = True
    for x in range(instance.x_size):
        for y in range(instance.y_size):
            entry = instance.cost[x][y]
            lhs = _dual_sum(pair.phi[x], pair.psi[y])
            if lhs is NEG_INFINITY:
                continue
            if entry is INFINITY:
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
    for x, y in support(plan, policy=policy).pairs:
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


def certify_strong(instance: Instance, plan: TransportPlan,
                   policy: Policy = RATIONAL) -> CertifyResult:
    """Construct and verify a strong-monotonicity certificate for the plan.

    Fails with the violating cycle when the support is not cyclically
    monotone; otherwise reads the potentials off the settled distances,
    gauged at the first support pair, and verifies them on the full
    product.
    """
    sup = support(plan, policy=policy)
    if len(sup.pairs) == 0:
        raise InstanceError("plan has empty support")
    graph = residual_graph(instance, sup, policy)
    dist, cycle = settle(graph)
    if cycle is not None:
        return CertifyResult(
            ok=False, pair=None, reason="not c-monotone", cycle=cycle
        )
    classes = decompose_graph(graph).classes
    anchor = sup.pairs[0]
    base = dist[anchor[0]]
    pair = PotentialPair(
        phi=tuple(graph.in_cost_units(base - d) for d in dist[:graph.x_size]),
        psi=tuple(graph.in_cost_units(d - base) for d in dist[graph.x_size:]),
        anchor=anchor,
    )
    report = verify_strong_monotonicity(instance, plan, pair, policy)
    if not report.ok:
        return CertifyResult(
            ok=False,
            pair=pair,
            reason="constructed potentials failed verification",
            classes=classes,
            report=report,
        )
    return CertifyResult(
        ok=True, pair=pair, reason=None, classes=classes, report=report
    )
