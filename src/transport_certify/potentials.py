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

The certificate is re-verified on the full product in the instance's integer
scale: the costs of ``Instance.scaled_cost`` against the settled integer
distances, with the tolerance on the same scale.  ``Fraction`` appears only
in what is reported: the ``PotentialPair`` and the report's slack and
residual, all in cost units.  ``verify_strong_monotonicity`` runs the same
check on a given pair against the costs as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def _verify(rows, phi, psi, pairs, tolerance, scale) -> VerifyReport:
    """Check phi + psi <= cost on every finite cell and equality on the
    support pairs, all on one scale: ``rows`` are the costs with INFINITY
    entries, phi and psi are numbers or NEG_INFINITY, and ``scale`` turns
    the reported slack and residual back into cost units (None: already
    there).  Cells with a NEG_INFINITY potential are skipped; the worst
    cells are the first extremes in row-major order.  A NaN fails every
    comparison and so fails the check."""
    min_slack = None
    worst_pair = None
    feasible = True
    lowest = -tolerance
    for x, (p, row) in enumerate(zip(phi, rows)):
        if p is NEG_INFINITY:
            continue
        for y, (entry, q) in enumerate(zip(row, psi)):
            if entry is INFINITY or q is NEG_INFINITY:
                continue
            slack = entry - (p + q)
            if min_slack is None or slack < min_slack:
                min_slack = slack
                worst_pair = (x, y)
            if not slack >= lowest:
                feasible = False
    max_residual = None
    worst_support_pair = None
    tight = True
    for x, y in pairs:
        entry, p, q = rows[x][y], phi[x], psi[y]
        if entry is INFINITY or p is NEG_INFINITY or q is NEG_INFINITY:
            tight = False
            max_residual = INFINITY
            worst_support_pair = (x, y)
            continue
        residual = abs(entry - (p + q))
        if max_residual is None or (max_residual is not INFINITY
                                    and residual > max_residual):
            max_residual = residual
            worst_support_pair = (x, y)
        if not residual <= tolerance:
            tight = False
    if scale is not None:
        if min_slack is not None:
            min_slack = Fraction(min_slack, scale)
        if max_residual is not None and max_residual is not INFINITY:
            max_residual = Fraction(max_residual, scale)
    return VerifyReport(
        ok=feasible and tight,
        feasible_everywhere=feasible,
        tight_on_support=tight,
        min_slack=min_slack,
        worst_pair=worst_pair,
        max_residual=max_residual,
        worst_support_pair=worst_support_pair,
    )


def verify_strong_monotonicity(instance: Instance, plan: TransportPlan,
                               pair: PotentialPair,
                               policy: Policy = RATIONAL) -> VerifyReport:
    """Check phi + psi <= cost everywhere and equality on the support.

    The pair is checked against the instance's costs as given, exactly on
    rational data; ``certify_strong`` runs the same loop on the integer
    scale.  Failures are report content, never exceptions.
    """
    pairs = support(plan, policy=policy).pairs
    return _verify(instance.cost, pair.phi, pair.psi, pairs,
                   policy.tolerance, None)


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
    phi = [base - d for d in dist[:graph.x_size]]
    psi = [d - base for d in dist[graph.x_size:]]
    report = _verify(instance.scaled_cost.rows, phi, psi, sup.pairs,
                     graph.tolerance, graph.scale)
    pair = PotentialPair(
        phi=tuple(map(graph.in_cost_units, phi)),
        psi=tuple(map(graph.in_cost_units, psi)),
        anchor=anchor,
    )
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
