"""Seeded random model and formula generators for property suites.

All generators take an explicit random.Random so that suites are
reproducible from a fixed seed.
"""

from __future__ import annotations

import random
from typing import Optional

from hyperdox.errors import PreconditionError
from hyperdox.formula import And, Atom, Believes, Formula, Knows, Not
from hyperdox.hypergraph import DirectedEdge, HypergraphModel, Vertex, graph_metrics
from hyperdox.kripke import KripkeModel, Relation, equivalence_classes, model_properties
from hyperdox.workspace import Workspace


def random_uniform_model(
    ws: Workspace,
    rng: random.Random,
    max_edges: int = 5,
    max_vertices_per_agent: Optional[int] = None,
    atom_density: float = 0.3,
    tail_bias: float = 0.5,
    require: Optional[str] = None,
    max_tries: int = 2000,
) -> HypergraphModel:
    """Random n-uniform chromatic model; optionally resampled until it
    falls in H_su or H_sut (require='H_su' / 'H_sut')."""
    n = ws.n_agents
    cap = max_vertices_per_agent or max_edges
    for _ in range(max_tries):
        m = rng.randint(1, max_edges)
        pools = [rng.randint(1, min(m, cap)) for _ in range(n)]
        edges = []
        for i in range(m):
            tail, head = set(), set()
            for a in range(n):
                vid = f"{ws.agents[a]}{rng.randrange(pools[a]) + 1}"
                (tail if rng.random() < tail_bias else head).add(vid)
            edges.append(DirectedEdge(f"e{i + 1}", frozenset(tail), frozenset(head)))
        used = {vid for e in edges for vid in e.span}
        vertices = []
        for a in range(n):
            for v in range(pools[a]):
                vid = f"{ws.agents[a]}{v + 1}"
                if vid not in used:
                    continue
                atoms = frozenset(
                    p for p in ws.vars_of(a) if rng.random() < atom_density
                )
                vertices.append(Vertex(vid, a, atoms))
        model = HypergraphModel(ws, vertices, edges)
        if require is None:
            return model
        metrics = graph_metrics(model)
        if require == "H_su" and metrics.in_h_su:
            return model
        if require == "H_sut" and metrics.in_h_sut:
            return model
    raise PreconditionError(f"could not sample a model in {require} within {max_tries} tries")


def _random_te_relation(size: int, rng: random.Random, serial: bool) -> Relation:
    """Transitive and Euclidean relation; serial on demand.

    Such a relation assigns each world a target cluster (possibly none
    when not serial); worlds inside a cluster target their own cluster.
    """
    order = list(range(size))
    rng.shuffle(order)
    n_clusters = rng.randint(1, size) if serial else rng.randint(0, size)
    clusters: list[list[int]] = []
    cluster_of: dict[int, int] = {}
    if n_clusters:
        covered = rng.randint(n_clusters, size)
        chosen = order[:covered]
        clusters = [[chosen[i]] for i in range(n_clusters)]
        for u in chosen[n_clusters:]:
            clusters[rng.randrange(n_clusters)].append(u)
        for i, group in enumerate(clusters):
            for u in group:
                cluster_of[u] = i
    pairs = set()
    for u in range(size):
        if u in cluster_of:
            target = cluster_of[u]
        elif serial:
            target = rng.randrange(n_clusters)
        else:
            target = rng.randrange(n_clusters + 1) - 1
        if target >= 0:
            pairs.update((u, v) for v in clusters[target])
    return Relation.from_pairs(size, pairs)


def random_local_kripke(
    ws: Workspace,
    rng: random.Random,
    max_worlds: int = 4,
    serial: bool = True,
    proper: bool = False,
    atom_density: float = 0.4,
    max_tries: int = 2000,
) -> KripkeModel:
    """Random local Kripke model with transitive Euclidean relations.

    serial=True yields the serial class; proper=True resamples until no
    two worlds are equivalent for every agent.
    """
    n = ws.n_agents
    for _ in range(max_tries):
        size = rng.randint(1, max_worlds)
        belief = {a: _random_te_relation(size, rng, serial) for a in range(n)}
        valuation = [set() for _ in range(size)]
        for a in range(n):
            for group in equivalence_classes(belief[a]):
                atoms = [p for p in ws.vars_of(a) if rng.random() < atom_density]
                for u in group:
                    valuation[u].update(atoms)
        model = KripkeModel(
            ws, [f"w{i + 1}" for i in range(size)], belief, valuation
        )
        if proper and not model_properties(model).proper:
            continue
        return model
    raise PreconditionError(f"could not sample a proper model within {max_tries} tries")


def random_formula(
    rng: random.Random,
    vars,
    agents,
    max_depth: int = 2,
    max_size: int = 8,
) -> Formula:
    vars = list(vars)
    agents = list(agents)
    if not vars:
        raise PreconditionError("need at least one atom to build formulas")
    size = rng.randint(1, max_size)
    return _grow(rng, vars, agents, max_depth, size)


def _grow(rng, vars, agents, depth, budget) -> Formula:
    if budget <= 1:
        return Atom(rng.choice(vars))
    ops = ["not"]
    if depth > 0 and agents:
        ops += ["B", "K"]
    if budget >= 3:
        ops.append("and")
    op = rng.choice(ops)
    if op == "not":
        return Not(_grow(rng, vars, agents, depth, budget - 1))
    if op == "B":
        return Believes(rng.choice(agents), _grow(rng, vars, agents, depth - 1, budget - 1))
    if op == "K":
        return Knows(rng.choice(agents), _grow(rng, vars, agents, depth - 1, budget - 1))
    split = rng.randint(1, budget - 2)
    return And(
        _grow(rng, vars, agents, depth, split),
        _grow(rng, vars, agents, depth, budget - 1 - split),
    )


def random_a_formula(
    ws: Workspace,
    agent: int,
    rng: random.Random,
    max_depth: int = 2,
    max_size: int = 6,
) -> Formula:
    """Random formula over one agent's variables and modalities only."""
    return random_formula(rng, ws.vars_of(agent), [agent], max_depth, max_size)
