"""Cyclical-monotonicity checking and plan improvement on the residual
graph of a plan's support.

The residual graph has a node per source and per target, an arc x -> y of
weight cost(x, y) for every finite cost and an arc y -> x of weight
-cost(x, y) for every support pair.  A cycle y1 -> x1 -> y2 -> ... -> y1
weighs the sum of cost(x_i, y_{i+1}) - cost(x_i, y_i), so a negative cycle
is exactly a family of support pairs whose rerouting strictly lowers the
transport cost; executing the reroute at the bottleneck mass yields a
strictly cheaper plan with the same marginals.  When ``settle`` finds no
negative cycle, its distances are the strong-monotonicity certificate (see
``potentials``).  The graph's strongly connected components are the
connecting classes and its shortest distances to an anchor target are the
chain potentials.

On rational data the arc weights are the instance's integer-scaled costs
(``Instance.scaled_cost``, scaled once per instance and shared by every
graph built on it), so the search runs on ints and only a reported gap
becomes a ``Fraction``.
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
    scale_tolerance,
    support,
    total_cost,
)


@dataclass(frozen=True)
class ResidualGraph:
    """Nodes 0..x_size-1 are the sources, x_size + y is target y; arcs[u]
    lists (node, weight).

    On rational costs every weight is an int, the cost times ``scale``, the
    common denominator of the costs, and ``tolerance`` is on the same scale;
    on float costs ``scale`` is None and the weights are the costs
    themselves.
    """

    x_size: int
    arcs: tuple
    scale: int | None
    tolerance: object

    def in_cost_units(self, weight):
        return weight if self.scale is None else Fraction(weight, self.scale)


@dataclass(frozen=True)
class ViolatingCycle:
    """Ordered support pairs whose rerouting saves ``gap`` per unit mass."""

    pairs: tuple
    gap: object

    def __len__(self):
        return len(self.pairs)


def residual_graph(instance: Instance, support_set: SupportSet,
                   policy: Policy = RATIONAL) -> ResidualGraph:
    """The residual graph of the support; a support pair of infinite cost is
    an error."""
    x_size = instance.x_size
    scaled = instance.scaled_cost
    arcs = [
        [(x_size + y, w) for y, w in enumerate(row) if w is not INFINITY]
        for row in scaled.rows
    ]
    arcs += [[] for _ in range(instance.y_size)]
    for x, y in support_set.pairs:
        w = scaled.rows[x][y]
        if w is INFINITY:
            raise InstanceError(f"support pair ({x},{y}) has infinite cost")
        arcs[x_size + y].append((x, -w))
    return ResidualGraph(x_size=x_size, arcs=tuple(map(tuple, arcs)),
                         scale=scaled.scale,
                         tolerance=scale_tolerance(policy.tolerance,
                                                   scaled.scale))


def _bellman_ford(arcs, dist, tolerance, passes):
    """Relax every arc in node order, in place, for at most ``passes``
    passes; dist entries are numbers or None for unreached nodes.

    Returns each node's predecessor and the nodes relaxed in the last pass
    run, which is empty when the distances settled.
    """
    parent = [-1] * len(arcs)
    relaxed = []
    for _ in range(passes):
        relaxed = []
        for u, out in enumerate(arcs):
            base = dist[u]
            if base is None:
                continue
            for v, weight in out:
                candidate = base + weight
                current = dist[v]
                if current is None or candidate < current - tolerance:
                    dist[v] = candidate
                    parent[v] = u
                    relaxed.append(v)
        if not relaxed:
            break
    return parent, relaxed


def settle(graph: ResidualGraph):
    """Bellman-Ford from an all-zero start.

    Returns (distances, None) in weight units when no violating cycle is
    found, and (None, ViolatingCycle) otherwise.
    """
    dist = [0 * graph.tolerance] * len(graph.arcs)
    # Source nodes are only lowered while targets are swept and targets only
    # while sources are, so each pass adds one support arc to a settling
    # path.  A simple path crosses each supported target at most once, so
    # without a negative cycle the passes settle within (supported targets
    # + 1).  A node relaxed in pass (supported targets + 2) has a
    # predecessor walk with more support arcs than there are supported
    # targets: the walk repeats a node, and so enters a negative cycle.
    passes = 2 + sum(1 for out in graph.arcs[graph.x_size:] if out)
    parent, relaxed = _bellman_ford(graph.arcs, dist, graph.tolerance, passes)
    if not relaxed:
        return dist, None
    walk, position = [], {}
    node = relaxed[-1]
    while node not in position:
        position[node] = len(walk)
        walk.append(node)
        node = parent[node]
    cycle = walk[position[node]:][::-1]
    pairs = []
    weight = 0
    for pos, u in enumerate(cycle):
        v = cycle[(pos + 1) % len(cycle)]
        weight += dict(graph.arcs[u])[v]
        if u >= graph.x_size:
            pairs.append((v, u - graph.x_size))
    if not -weight > graph.tolerance:
        return dist, None
    return None, ViolatingCycle(pairs=tuple(pairs),
                                gap=graph.in_cost_units(-weight))


def distances_to(graph: ResidualGraph, target: int, nodes) -> list:
    """Shortest distance in weight units from each of the ``nodes`` to the
    target node, over the arcs among them.

    An entry is None when no path exists and NEG_INFINITY when a negative
    cycle can be pumped on the way.
    """
    index = {u: pos for pos, u in enumerate(nodes)}
    reverse = [[] for _ in nodes]
    for u in nodes:
        for v, weight in graph.arcs[u]:
            if v in index:
                reverse[index[v]].append((index[u], weight))
    dist = [None] * len(nodes)
    dist[index[target]] = 0 * graph.tolerance
    # A shortest path has fewer arcs than there are nodes, so finite
    # distances settle within len(nodes) - 1 passes.  Nodes lowered in the
    # last pass, and all they lead to in the reversed arcs, lie behind a
    # negative cycle.
    _, relaxed = _bellman_ford(reverse, dist, graph.tolerance, len(nodes))
    frontier = list(relaxed)
    while frontier:
        pos = frontier.pop()
        if dist[pos] is not NEG_INFINITY:
            dist[pos] = NEG_INFINITY
            frontier.extend(v for v, _ in reverse[pos])
    return dist


def check_c_monotone(instance: Instance, plan: TransportPlan,
                     policy: Policy = RATIONAL):
    """None when no support cycle can be rerouted at a strict saving;
    otherwise a ViolatingCycle witness with its gap."""
    sup = support(plan, policy=policy)
    return settle(residual_graph(instance, sup, policy))[1]


def improve_plan(instance: Instance, plan: TransportPlan,
                 cycle: ViolatingCycle, policy: Policy = RATIONAL) -> TransportPlan:
    """Reroute the bottleneck mass along the cycle.

    Subtracts alpha = min pair mass on every cycle pair and adds it on each
    rerouted pair, so marginals are untouched and the cost drops by exactly
    alpha * gap.
    """
    masses = [plan.mass[x][y] for x, y in cycle.pairs]
    alpha = min(masses)
    if not alpha > policy.support_threshold:
        raise InstanceError("cycle references a pair without positive mass")
    mass = [list(row) for row in plan.mass]
    count = len(cycle.pairs)
    for pos, (x, y) in enumerate(cycle.pairs):
        _, y_next = cycle.pairs[(pos + 1) % count]
        if instance.cost[x][y_next] is INFINITY:
            raise InstanceError("cycle reroutes across an infinite-cost arc")
        mass[x][y] -= alpha
        mass[x][y_next] += alpha
    return TransportPlan(mass=tuple(tuple(row) for row in mass))


def improve_to_monotone(instance: Instance, plan: TransportPlan,
                        max_iters: int | None = None,
                        policy: Policy = RATIONAL):
    """Iterate cycle detection and rerouting until no violation remains.

    Returns (plan, trajectory, converged), trajectory being the cost before
    and after each reroute.  The default budget is |support|^3; running out
    is reported, not fatal.
    """
    if max_iters is None:
        max_iters = max(1, len(support(plan, policy=policy)) ** 3)
    current = plan
    trajectory = [total_cost(instance, plan)]
    for _ in range(max_iters):
        cycle = check_c_monotone(instance, current, policy)
        if cycle is None:
            return current, tuple(trajectory), True
        current = improve_plan(instance, current, cycle, policy)
        trajectory.append(total_cost(instance, current))
        if not trajectory[-1] < trajectory[-2]:
            raise InstanceError("rerouting failed to decrease the cost")
    converged = check_c_monotone(instance, current, policy) is None
    return current, tuple(trajectory), converged
