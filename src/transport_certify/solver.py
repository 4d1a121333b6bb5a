"""Exact minimum-cost transport over finite-cost arcs.

Infinite-cost arcs are deleted outright rather than big-M-ed: a problem is
infeasible exactly when the finite-arc bipartite graph admits no plan with
the prescribed marginals.  In rational mode the flow network is rescaled to
integers (common denominators of weights and costs) so the successive
shortest path computation is exact and fast; float mode works directly on
floats with the policy tolerance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

from .core import (
    INFINITY,
    Instance,
    InstanceError,
    Policy,
    RATIONAL,
    TransportPlan,
    total_cost,
)


@dataclass(frozen=True)
class OptimalResult:
    """Outcome of an exact solve: a minimizing plan or an infeasibility flag."""

    plan: TransportPlan | None
    value: object
    feasible: bool


class _Network:
    """Residual network with edge-pair storage (edge i paired with i^1)."""

    def __init__(self, n_nodes):
        self.adj = [[] for _ in range(n_nodes)]
        self.to = []
        self.cap = []
        self.cost = []

    def add_edge(self, u, v, cap, cost):
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0 * cap)
        self.cost.append(-cost)


def _max_flow_value(n_src, n_dst, arcs, supply, demand, zero):
    """Edmonds-Karp max flow from a super source through the finite arcs."""
    n = n_src + n_dst + 2
    source, sink = n, n + 1
    net = _Network(n + 2)
    big = sum(supply)
    for i, s in enumerate(supply):
        if s > zero:
            net.add_edge(source, i, s, 0)
    for j, d in enumerate(demand):
        if d > zero:
            net.add_edge(n_src + j, sink, d, 0)
    for i, j in arcs:
        net.add_edge(i, n_src + j, big, 0)
    flow = 0 * big
    while True:
        prev_edge = [-1] * (n + 2)
        prev_edge[source] = -2
        queue = [source]
        while queue and prev_edge[sink] == -1:
            nxt = []
            for u in queue:
                for eid in net.adj[u]:
                    v = net.to[eid]
                    if prev_edge[v] == -1 and net.cap[eid] > zero:
                        prev_edge[v] = eid
                        nxt.append(v)
            queue = nxt
        if prev_edge[sink] == -1:
            return flow
        bottleneck = None
        v = sink
        while v != source:
            eid = prev_edge[v]
            if bottleneck is None or net.cap[eid] < bottleneck:
                bottleneck = net.cap[eid]
            v = net.to[eid ^ 1]
        v = sink
        while v != source:
            eid = prev_edge[v]
            net.cap[eid] -= bottleneck
            net.cap[eid ^ 1] += bottleneck
            v = net.to[eid ^ 1]
        flow += bottleneck


def _min_cost_flow(n_src, n_dst, arcs, supply, demand, zero):
    """Successive shortest paths with Dijkstra over reduced costs.

    ``arcs`` is a list of (i, j, cost) with cost >= 0.  Returns a dict
    (i, j) -> flow and the objective, or None when the remaining supply
    cannot be routed.  All arithmetic stays in the caller's number domain.
    """
    n = n_src + n_dst + 2
    source, sink = n_src + n_dst, n_src + n_dst + 1
    net = _Network(n)
    big = sum(supply)
    for i, s in enumerate(supply):
        if s > zero:
            net.add_edge(source, i, s, 0 * big)
    for j, d in enumerate(demand):
        if d > zero:
            net.add_edge(n_src + j, sink, d, 0 * big)
    arc_edge = {}
    for i, j, cost in arcs:
        arc_edge[(i, j)] = len(net.to)
        net.add_edge(i, n_src + j, big, cost)

    potential = [0 * big] * n
    unreached = object()
    remaining = big
    while remaining > zero:
        dist = [unreached] * n
        dist[source] = 0 * big
        prev_edge = [-1] * n
        done = [False] * n
        heap = [(dist[source], source)]
        while heap:
            d_u, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            if u == sink:
                break
            for eid in net.adj[u]:
                if net.cap[eid] <= zero:
                    continue
                v = net.to[eid]
                if done[v]:
                    continue
                nd = d_u + net.cost[eid] + potential[u] - potential[v]
                if dist[v] is unreached or nd < dist[v]:
                    dist[v] = nd
                    prev_edge[v] = eid
                    heapq.heappush(heap, (nd, v))
        if dist[sink] is unreached:
            return None
        d_sink = dist[sink]
        for v in range(n):
            if dist[v] is unreached or dist[v] > d_sink:
                potential[v] += d_sink
            else:
                potential[v] += dist[v]
        bottleneck = remaining
        v = sink
        while v != source:
            eid = prev_edge[v]
            if net.cap[eid] < bottleneck:
                bottleneck = net.cap[eid]
            v = net.to[eid ^ 1]
        v = sink
        while v != source:
            eid = prev_edge[v]
            net.cap[eid] -= bottleneck
            net.cap[eid ^ 1] += bottleneck
            v = net.to[eid ^ 1]
        remaining -= bottleneck

    flows = {}
    objective = 0 * big
    for (i, j), eid in arc_edge.items():
        sent = net.cap[eid ^ 1]
        if sent > zero:
            flows[(i, j)] = sent
            objective += sent * net.cost[eid]
    return flows, objective


def integer_scale(values):
    """(d, ints): the least common denominator d of the rational values and
    each value times d, as an int."""
    den = lcm(1, *(Fraction(v).denominator for v in values))
    return den, [int(v * den) for v in values]


def solve_transport(mu, nu, cost, policy: Policy = RATIONAL):
    """Solve min-cost transport for arbitrary balanced nonnegative marginals.

    Returns (mass matrix as tuple-of-tuples, value) or None if infeasible.
    This is the raw engine behind solve_exact; it does not require the
    marginals to sum to one, only to balance.
    """
    n_src, n_dst = len(mu), len(nu)
    total = sum(mu)
    if not policy.eq(total, sum(nu)):
        raise InstanceError(f"unbalanced marginals: {total} vs {sum(nu)}")
    arcs = [
        (i, j, cost[i][j])
        for i in range(n_src)
        for j in range(n_dst)
        if cost[i][j] is not INFINITY
    ]
    for _, _, c in arcs:
        if c < 0:
            raise InstanceError("solver requires nonnegative costs")
    if total <= policy.tolerance:
        zero_mass = [[0 * total] * n_dst for _ in range(n_src)]
        return tuple(tuple(row) for row in zero_mass), 0 * total

    has_deleted = len(arcs) < n_src * n_dst
    if has_deleted:
        flow = _max_flow_value(
            n_src, n_dst, [(i, j) for i, j, _ in arcs], mu, nu, policy.tolerance
        )
        if not policy.eq(flow, total):
            return None

    if policy.exact:
        mass_den, int_mass = integer_scale(list(mu) + list(nu))
        cost_den, int_costs = integer_scale([c for _, _, c in arcs])
        int_arcs = [(i, j, c) for (i, j, _), c in zip(arcs, int_costs)]
        solved = _min_cost_flow(n_src, n_dst, int_arcs, int_mass[:n_src],
                                int_mass[n_src:], 0)
        if solved is None:
            return None
        flows, objective = solved
        mass = [[Fraction(0)] * n_dst for _ in range(n_src)]
        for (i, j), sent in flows.items():
            mass[i][j] = Fraction(sent, mass_den)
        value = Fraction(objective, mass_den * cost_den)
    else:
        solved = _min_cost_flow(
            n_src, n_dst, arcs, list(mu), list(nu), policy.tolerance
        )
        if solved is None:
            return None
        flows, value = solved
        mass = [[0.0] * n_dst for _ in range(n_src)]
        for (i, j), sent in flows.items():
            mass[i][j] = sent
    return tuple(tuple(row) for row in mass), value


def solve_exact(instance: Instance, policy: Policy = RATIONAL) -> OptimalResult:
    """Cost-minimizing plan over finite-cost arcs, or feasible=False."""
    solved = solve_transport(instance.mu, instance.nu, instance.cost, policy)
    if solved is None:
        return OptimalResult(plan=None, value=INFINITY, feasible=False)
    mass, value = solved
    return OptimalResult(plan=TransportPlan(mass=mass), value=value, feasible=True)


def _tree_vertex_masses(n_src, n_dst, cells, mu, nu):
    """Solve the marginal system on a spanning tree of cells by leaf peeling.

    Returns the mass per cell or None when some mass comes out negative.
    """
    nodes = n_src + n_dst
    adj = {u: [] for u in range(nodes)}
    for idx, (i, j) in enumerate(cells):
        adj[i].append((n_src + j, idx))
        adj[n_src + j].append((i, idx))
    need = list(mu) + list(nu)
    degree = {u: len(adj[u]) for u in range(nodes)}
    removed = [False] * len(cells)
    masses = [None] * len(cells)
    leaves = [u for u in range(nodes) if degree[u] == 1]
    processed = 0
    while leaves:
        u = leaves.pop()
        edge = next(
            ((v, idx) for v, idx in adj[u] if not removed[idx]), None
        )
        if edge is None:
            continue
        v, idx = edge
        amount = need[u]
        if amount < 0:
            return None
        masses[idx] = amount
        removed[idx] = True
        processed += 1
        need[u] -= amount
        need[v] -= amount
        degree[u] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            leaves.append(v)
    if processed != len(cells):
        return None
    if any(abs(r) > 0 for r in need):
        return None
    return masses


def _spanning_cells(n_src, n_dst, cells):
    """True when the cell set is a spanning tree of the bipartite node set."""
    nodes = n_src + n_dst
    if len(cells) != nodes - 1:
        return False
    parent = list(range(nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in cells:
        a, b = find(i), find(n_src + j)
        if a == b:
            return False
        parent[a] = b
    return True


def brute_force_optimal(instance: Instance, policy: Policy = RATIONAL):
    """Exact optimal value by exhaustive enumeration of polytope vertices.

    Independent of the flow solver: permutation matrices for square uniform
    instances up to 8x8, spanning-tree vertex enumeration when the cost
    matrix has at most 12 cells.  Returns INFINITY when no finite-cost plan
    exists; raises when the instance is too large for enumeration.
    """
    n_src, n_dst = instance.x_size, instance.y_size
    uniform = (
        n_src == n_dst
        and all(policy.eq(w, instance.mu[0]) for w in instance.mu)
        and all(policy.eq(w, instance.mu[0]) for w in instance.nu)
    )
    if uniform and n_src <= 8:
        share = instance.mu[0]
        best = INFINITY
        for perm in permutations(range(n_dst)):
            value = 0
            for i, j in enumerate(perm):
                entry = instance.cost[i][j]
                if entry is INFINITY:
                    value = INFINITY
                    break
                value += entry
            if value is not INFINITY:
                candidate = value * share
                if best is INFINITY or candidate < best:
                    best = candidate
        return best
    if n_src * n_dst <= 12:
        all_cells = [(i, j) for i in range(n_src) for j in range(n_dst)]
        best = INFINITY
        for cells in combinations(all_cells, n_src + n_dst - 1):
            if not _spanning_cells(n_src, n_dst, cells):
                continue
            masses = _tree_vertex_masses(
                n_src, n_dst, cells, instance.mu, instance.nu
            )
            if masses is None:
                continue
            value = 0
            for (i, j), mass in zip(cells, masses):
                if mass > 0:
                    entry = instance.cost[i][j]
                    if entry is INFINITY:
                        value = INFINITY
                        break
                    value += mass * entry
            if value is not INFINITY and (best is INFINITY or value < best):
                best = value
        return best
    raise InstanceError("instance too large for exhaustive enumeration")


def is_optimal(instance: Instance, plan: TransportPlan, policy: Policy = RATIONAL):
    """(optimal?, gap): gap is the plan's excess cost over the optimum."""
    plan_value = total_cost(instance, plan)
    if plan_value is INFINITY:
        raise InstanceError("plan has infinite cost")
    result = solve_exact(instance, policy)
    if not result.feasible:
        raise InstanceError("no finite-cost plan exists yet the plan is finite")
    gap = plan_value - result.value
    return policy.leq(gap, 0 * gap), gap
