"""Chromatic directed hypergraph models and their satisfaction relation.

Vertices are agent-colored local states carrying that agent's variables.
A directed hyperedge is a (tail, head) pair of disjoint vertex sets and
stands for a global state; the tail holds the local states whose agents
consider the state doxastically possible. Accessibility between edges:

    e1 -B_a-> e2  iff  some a-colored vertex lies in span(e1) and tail(e2)
    e1 -K_a-> e2  iff  some a-colored vertex lies in span(e1) and span(e2)

where span(e) = tail(e) | head(e).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, ValidationError
from .formula import Formula
from .kernel import BELIEF, KNOWLEDGE, Frame, bits, sat_mask
from .kripke import Relation
from .workspace import PropVar, Workspace


@dataclass(frozen=True)
class Vertex:
    id: str
    color: int
    atoms: frozenset


@dataclass(frozen=True)
class DirectedEdge:
    name: str
    tail: frozenset
    head: frozenset

    @property
    def span(self) -> frozenset:
        return self.tail | self.head


class HypergraphModel:
    """Directed hypergraph model over a workspace.

    Construction checks only that identifiers are unique; run
    validate_model for the semantic invariants (chromatic coloring,
    per-color valuations, tail/head disjointness, no dangling ids).
    Instances are immutable after construction.
    """

    def __init__(self, workspace: Workspace, vertices, edges):
        self.workspace = workspace
        self.vertices: dict[str, Vertex] = {}
        violations = []
        for v in vertices:
            if v.id in self.vertices:
                violations.append(f"duplicate vertex id {v.id!r}")
            self.vertices[v.id] = v
        if not self.vertices:
            violations.append("model has no vertices")
        self.edges = tuple(edges)
        names = [e.name for e in self.edges]
        if len(set(names)) != len(names):
            violations.append("duplicate edge names")
        if violations:
            raise ValidationError(violations)
        self._edge_index = {e.name: i for i, e in enumerate(self.edges)}

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_index(self, name: str) -> int:
        try:
            return self._edge_index[name]
        except KeyError:
            raise ValidationError([f"unknown edge {name!r}"]) from None


def validate_model(m: HypergraphModel) -> list:
    """All invariant violations, each naming the offending vertex or edge."""
    ws = m.workspace
    violations = []
    for v in m.vertices.values():
        if not 0 <= v.color < ws.n_agents:
            violations.append(f"vertex {v.id}: unknown color index {v.color}")
            continue
        for p in v.atoms:
            if not (0 <= p.owner < ws.n_agents and 0 <= p.index < len(ws.vars[p.owner])):
                violations.append(f"vertex {v.id}: unknown atom {p}")
            elif p.owner != v.color:
                violations.append(
                    f"vertex {v.id}: atom {ws.var_name(p)} belongs to agent "
                    f"{ws.agents[p.owner]} but the vertex is colored {ws.agents[v.color]}"
                )
    for e in m.edges:
        for vid in e.tail | e.head:
            if vid not in m.vertices:
                violations.append(f"edge {e.name}: dangling vertex id {vid!r}")
        overlap = e.tail & e.head
        if overlap:
            violations.append(
                f"edge {e.name}: tail and head overlap on {sorted(overlap)}"
            )
        span = [vid for vid in e.span if vid in m.vertices]
        by_color: dict[int, list] = {}
        for vid in span:
            by_color.setdefault(m.vertices[vid].color, []).append(vid)
        for color, vids in sorted(by_color.items()):
            if len(vids) > 1:
                violations.append(
                    f"edge {e.name}: vertices {sorted(vids)} share color "
                    f"{ws.agents[color] if 0 <= color < ws.n_agents else color}"
                )
    return violations


@dataclass
class HypergraphClassReport:
    rank: int
    n_uniform: bool
    simple: bool
    tail_complete: bool
    in_h_su: bool
    in_h_sut: bool

    def to_json(self) -> dict:
        return {
            "kind": "hypergraph",
            "rank": self.rank,
            "n_uniform": self.n_uniform,
            "simple": self.simple,
            "tail_complete": self.tail_complete,
            "in_H_su": self.in_h_su,
            "in_H_sut": self.in_h_sut,
        }


def graph_metrics(m: HypergraphModel) -> HypergraphClassReport:
    n = m.workspace.n_agents
    spans = [e.span for e in m.edges]
    rank = max((len(s) for s in spans), default=0)
    n_uniform = all(len(s) == n for s in spans)
    simple = not any(
        i != j and si <= sj for i, si in enumerate(spans) for j, sj in enumerate(spans)
    )
    tail_complete = set(m.vertices) <= set().union(*(e.tail for e in m.edges))
    in_h_su = simple and n_uniform
    in_h_sut = in_h_su and tail_complete
    return HypergraphClassReport(rank, n_uniform, simple, tail_complete, in_h_su, in_h_sut)


def accessibility(m: HypergraphModel, agent: int, kind: str) -> Relation:
    """Doxastic or epistemic accessibility over edge indices, read off the
    frame's vertex blocks: each block adds its reach to the rows of the
    edges in its span."""
    if kind not in ("doxastic", "epistemic"):
        raise PreconditionError(f"unknown accessibility kind {kind!r}")
    key = (agent, BELIEF if kind == "doxastic" else KNOWLEDGE)
    rows = [0] * m.n_edges
    for span, reach in frame_h(m).blocks.get(key, ()):
        for i in bits(span):
            rows[i] |= reach
    return Relation(m.n_edges, tuple(rows))


def edge_atoms(m: HypergraphModel, edge) -> frozenset:
    """Union of the vertex valuations across the edge's span."""
    i = m.edge_index(edge) if isinstance(edge, str) else edge
    atoms: set[PropVar] = set()
    for vid in m.edges[i].span:
        atoms |= m.vertices[vid].atoms
    return frozenset(atoms)


def frame_h(m: HypergraphModel) -> Frame:
    """The kernel frame of one model (state i is edge i).

    Accessibility factors through vertices: e1 -B_a-> e2 iff e1 lies in
    the span of an a-vertex v and e2 in its tail, so each vertex gives
    the block (span(v), tail(v)) for B and (span(v), span(v)) for K.
    """
    atoms, blocks = {}, {}
    span_of: dict[str, int] = {}
    tail_of: dict[str, int] = {}
    for i, e in enumerate(m.edges):
        for vid in e.tail:
            tail_of[vid] = tail_of.get(vid, 0) | 1 << i
        for vid in e.tail | e.head:
            span_of[vid] = span_of.get(vid, 0) | 1 << i
    for vid, span in span_of.items():
        v = m.vertices[vid]
        for p in v.atoms:
            atoms[p] = atoms.get(p, 0) | span
        blocks.setdefault((v.color, KNOWLEDGE), []).append((span, span))
        tail = tail_of.get(vid)
        if tail:
            blocks.setdefault((v.color, BELIEF), []).append((span, tail))
    return Frame(m.n_edges, atoms, blocks)


def sat_mask_h(m: HypergraphModel, f: Formula) -> int:
    """Bitmask of edges satisfying f (bit i = edge i)."""
    return sat_mask(frame_h(m), f)


def satisfies_h(m: HypergraphModel, edge, f: Formula) -> bool:
    """Satisfaction at an edge; edge may be an index or an edge name."""
    i = m.edge_index(edge) if isinstance(edge, str) else edge
    if not 0 <= i < m.n_edges:
        raise PreconditionError(f"edge index {i} out of bounds")
    return bool(sat_mask_h(m, f) >> i & 1)


def induced_complex(m: HypergraphModel) -> list:
    """Facets of the induced simplicial complex: maximal nonempty spans.

    Returned as a list of frozensets of vertex ids, sorted by (size,
    sorted ids) for deterministic output. Equal spans collapse to one
    facet; on a simple graph the facet count equals the edge count.
    """
    spans = {e.span for e in m.edges if e.span}
    facets = [s for s in spans if not any(s < t for t in spans)]
    return sorted(facets, key=lambda s: (len(s), sorted(s)))
