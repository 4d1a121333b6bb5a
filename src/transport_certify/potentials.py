"""Dual potentials: chain-infimum construction, c-transform, and the
strong-monotonicity certificate.

The chain potential of a source x, gauged at an anchor support pair, is the
cheapest total of cost differences along any hand-over chain of support
pairs that starts at the anchor and finally serves x.  Equivalently it is

    dist(x -> y_anchor) - cost(anchor)

where dist is the shortest-path distance in the residual graph of the
support (see ``monotonicity``).  Each connecting class gets its own gauged
potential, computed on the arcs of its strongly connected component alone;
classes are then glued by per-class offsets solving the difference
constraints imposed by finite cross-class cost entries.  Because the class
condensation is acyclic on finite instances those constraints always admit
a solution, but the infeasible branch is kept and reports the blocking
constraint.
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
from .monotonicity import distances_to, find_violating_cycle, residual_graph


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
    blocking: tuple | None = None
    classes: tuple = ()
    report: VerifyReport | None = None

    @property
    def class_count(self) -> int:
        return len(self.classes)


def _gauged_potential(instance, graph, anchor, nodes) -> tuple:
    """dist(x -> y_anchor) - cost(anchor) over the arcs among the nodes;
    NEG_INFINITY where no chain reaches or a negative cycle is pumped."""
    distances = distances_to(graph, graph.x_size + anchor[1], nodes)
    anchor_cost = instance.cost[anchor[0]][anchor[1]]
    phi = [NEG_INFINITY] * instance.x_size
    for u, dist in zip(nodes, distances):
        if u < graph.x_size and dist is not None and dist is not NEG_INFINITY:
            phi[u] = graph.in_cost_units(dist) - anchor_cost
    return tuple(phi)


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
    return _gauged_potential(instance, graph, anchor, range(len(graph.arcs)))


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


def _glue_offsets(instance, classes, phis, psis, policy):
    """Solve t_i - t_j <= d over finite cross-class entries.

    Returns (offsets, None) or (None, blocking constraint).  Constraints are
    relaxed Bellman-Ford style from a virtual all-zero source.
    """
    k = len(classes)
    constraints = []
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            bound = None
            bound_cell = None
            for x in classes[i].sources:
                for y in classes[j].targets:
                    entry = instance.cost[x][y]
                    if entry is INFINITY:
                        continue
                    value = entry - phis[i][x] - psis[j][y]
                    if bound is None or value < bound:
                        bound = value
                        bound_cell = (x, y)
            if bound is not None:
                constraints.append((j, i, bound, bound_cell))
    zero = 0 * (policy.tolerance + 0)
    offsets = [zero] * k
    for _ in range(k):
        changed = False
        for j, i, bound, _ in constraints:
            candidate = offsets[j] + bound
            if candidate < offsets[i] - policy.tolerance:
                offsets[i] = candidate
                changed = True
        if not changed:
            return offsets, None
    for j, i, bound, cell in constraints:
        if offsets[j] + bound < offsets[i] - policy.tolerance:
            return None, (i, j, bound, cell)
    return offsets, None


def certify_strong(instance: Instance, plan: TransportPlan,
                   policy: Policy = RATIONAL) -> CertifyResult:
    """Construct and verify a strong-monotonicity certificate for the plan.

    Fails with the violating cycle when the support is not cyclically
    monotone; otherwise builds per-class gauged potentials, glues them, and
    verifies the result on the full product.
    """
    sup = support(plan, policy=policy)
    if len(sup.pairs) == 0:
        raise InstanceError("plan has empty support")
    graph = residual_graph(instance, sup, policy)
    cycle = find_violating_cycle(graph)
    if cycle is not None:
        return CertifyResult(
            ok=False, pair=None, reason="not c-monotone", cycle=cycle
        )
    deco = decompose_graph(graph)
    classes = deco.classes
    phis = []
    psis = []
    for cls in classes:
        # A chain between two nodes of a class never leaves their component.
        nodes = cls.sources + tuple(graph.x_size + y for y in cls.targets)
        phi = _gauged_potential(instance, graph, cls.pairs[0], nodes)
        psi = c_transform(instance, phi, cls.sources, policy)
        phis.append(phi)
        psis.append(psi)
    offsets, blocking = _glue_offsets(instance, classes, phis, psis, policy)
    if offsets is None:
        return CertifyResult(
            ok=False,
            pair=None,
            reason="cross-class gluing infeasible; per-class certificates only",
            blocking=blocking,
            classes=classes,
        )
    global_anchor = sup.pairs[0]
    anchor_class = deco.class_of_pair(global_anchor)
    shift = offsets[anchor_class]
    offsets = [t - shift for t in offsets]
    phi = [NEG_INFINITY] * instance.x_size
    psi = [NEG_INFINITY] * instance.y_size
    for idx, cls in enumerate(classes):
        for x in cls.sources:
            phi[x] = phis[idx][x] + offsets[idx]
        for y in cls.targets:
            psi[y] = psis[idx][y] - offsets[idx]
    pair = PotentialPair(phi=tuple(phi), psi=tuple(psi), anchor=global_anchor)
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
