"""Conversions between Kripke models and hypergraph models.

Kripke to hypergraph: vertices are the classes of each agent's generated
equivalence; world u maps to the edge whose tail holds the classes of
agents with a reflexive belief loop at u and whose head holds the rest.
Locality of the input is required so that class valuations are
well-defined. Hypergraph to Kripke: edges become worlds, the doxastic
accessibility relations become the belief relations, and each world's
valuation is the edge's atom set.

Round trips are checked semantically (formula by formula), never as
structural isomorphism.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from .errors import FragmentError, PreconditionError
from .formula import And, Atom, Believes, Formula, Knows, Not
from .hypergraph import (
    DirectedEdge,
    HypergraphModel,
    Vertex,
    accessibility,
    edge_atoms,
    frame_h,
    graph_metrics,
)
from .kernel import (
    AND, ATOM, BELIEF, BOX, KNOWLEDGE, NOT, Frame, Program, bits, compile_formulas, evaluate,
)
from .kripke import (
    KripkeModel,
    equivalence_classes,
    model_properties,
)
from .workspace import PropVar, Workspace


@dataclass
class ConversionCertificate:
    direction: str
    mapping: dict
    injective: bool
    class_before: object
    class_after: object

    def to_json(self) -> dict:
        return {
            "direction": self.direction,
            "map": dict(self.mapping),
            "injective": self.injective,
            "class_before": self.class_before.to_json(),
            "class_after": self.class_after.to_json(),
        }


def _class_vertex_id(ws: Workspace, agent: int, worlds: Sequence[str]) -> str:
    return f"{ws.agents[agent]}:{{{','.join(sorted(worlds))}}}"


def kripke_to_hypergraph(m: KripkeModel):
    """Convert a local Kripke model; returns (model, certificate).

    Improper inputs are accepted but flagged: distinct worlds may then
    collapse onto one structural edge and the certificate map is not
    injective.
    """
    before = model_properties(m)
    if not before.local:
        raise PreconditionError(
            "conversion requires a local model: " + before.witnesses.get("local", "")
        )
    ws = m.workspace
    vertex_of: dict[tuple, str] = {}
    vertices = []
    for a in range(ws.n_agents):
        var_set = frozenset(ws.vars_of(a))
        for group in equivalence_classes(m.belief[a]):
            vid = _class_vertex_id(ws, a, [m.worlds[u] for u in group])
            atoms = m.valuation[group[0]] & var_set
            vertices.append(Vertex(vid, a, atoms))
            for u in group:
                vertex_of[(a, u)] = vid

    edges = []
    by_structure: dict[tuple, str] = {}
    mapping: dict[str, str] = {}
    for u in range(m.n_worlds):
        tail = frozenset(
            vertex_of[(a, u)] for a in range(ws.n_agents) if m.belief[a].rows[u] >> u & 1
        )
        head = frozenset(
            vertex_of[(a, u)] for a in range(ws.n_agents) if not m.belief[a].rows[u] >> u & 1
        )
        key = (tail, head)
        name = by_structure.get(key)
        if name is None:
            name = f"e{len(edges) + 1}"
            by_structure[key] = name
            edges.append(DirectedEdge(name, tail, head))
        mapping[m.worlds[u]] = name

    out = HypergraphModel(ws, vertices, edges)
    cert = ConversionCertificate(
        direction="k2h",
        mapping=mapping,
        injective=len(by_structure) == m.n_worlds,
        class_before=before,
        class_after=graph_metrics(out),
    )
    return out, cert


def hypergraph_to_kripke(m: HypergraphModel):
    """Convert any hypergraph model; returns (model, certificate)."""
    before = graph_metrics(m)
    ws = m.workspace
    belief = {
        a: accessibility(m, a, "doxastic") for a in range(ws.n_agents)
    }
    valuation = [edge_atoms(m, i) for i in range(m.n_edges)]
    worlds = [e.name for e in m.edges]
    out = KripkeModel(ws, worlds, belief, valuation)
    cert = ConversionCertificate(
        direction="h2k",
        mapping={name: name for name in worlds},
        injective=True,
        class_before=before,
        class_after=model_properties(out),
    )
    return out, cert


@dataclass
class EquivalenceRow:
    state: str
    formula: Formula
    kripke_value: bool
    hypergraph_value: bool


@dataclass
class EquivalenceReport:
    checked: int = 0
    disagreements: list = field(default_factory=list)

    @property
    def agree(self) -> bool:
        return not self.disagreements


def check_modal_equivalence(
    mk: KripkeModel,
    mh: HypergraphModel,
    mapping: dict,
    formulas: Sequence[Formula],
) -> EquivalenceReport:
    """Compare satisfaction on both sides across all (world, formula) pairs.

    The mapping must cover every world of mk. Formulas containing a
    knowledge modality are only admitted when both models lie in the
    serial classes (K_ste and H_sut); otherwise only belief-fragment
    formulas may be supplied. A FormulaSlots stream is evaluated on its
    own program. The hypergraph frame is laid out in world order, so a
    formula disagrees exactly at the set bits of its masks' XOR over the
    worlds; rows go by formula, then world, and a formula's rows share one
    Formula, built for them alone.
    """
    if mk.workspace != mh.workspace:
        raise PreconditionError("models are declared over different workspaces")
    missing = [w for w in mk.worlds if w not in mapping]
    if missing:
        raise PreconditionError(f"mapping does not cover worlds: {missing}")
    prog = formulas.program if isinstance(formulas, FormulaSlots) else compile_formulas(formulas)
    if any(kind == KNOWLEDGE for _, kind in prog.modals):
        ck = model_properties(mk)
        ch = graph_metrics(mh)
        if not (ck.in_k_ste and ch.in_h_sut):
            raise FragmentError("knowledge formulas require the serial classes on both sides")
    report = EquivalenceReport(checked=len(formulas) * mk.n_worlds)
    frame = _in_world_order(frame_h(mh), [mh.edge_index(mapping[w]) for w in mk.worlds])
    masks = zip(evaluate(prog, mk.frame()), evaluate(prog, frame))
    worlds = (1 << mk.n_worlds) - 1  # the states that are worlds
    for j, (mask_k, mask_h) in enumerate(masks):
        differ = (mask_k ^ mask_h) & worlds
        if differ:
            f = formulas[j]
            for i in bits(differ):
                k_value = mask_k >> i & 1 == 1
                report.disagreements.append(EquivalenceRow(mk.worlds[i], f, k_value, not k_value))
    return report


def _in_world_order(frame: Frame, edge_of: list) -> Frame:
    """The hypergraph frame with state i on edge edge_of[i], and the edges
    that no world maps to after those, in order. The states of one edge
    lie in the same blocks, so they agree on every formula."""
    image = [0] * frame.size  # edge -> the mask of its states
    for i, e in enumerate(edge_of):
        image[e] |= 1 << i
    size = len(edge_of)
    for e in range(frame.size):
        if not image[e]:
            image[e], size = 1 << size, size + 1

    def remap(mask: int) -> int:  # the edges' images are disjoint, so their sum is their union
        return sum(map(image.__getitem__, bits(mask)))

    atoms = {p: remap(mask) for p, mask in frame.atoms.items()}
    blocks = {
        key: [(remap(span), remap(reach)) for span, reach in blocks]
        for key, blocks in frame.blocks.items()
    }
    return Frame(size, atoms, blocks)


def enumerate_formulas(
    vars: Sequence[PropVar],
    agents: Sequence[int],
    max_depth: int,
    max_size: int,
) -> Iterator[Formula]:
    """Exhaustive, duplicate-free stream of core-constructor formulas.

    Size counts AST nodes; depth counts nested modalities. The order is
    deterministic: by size, then atoms, negations, beliefs, knowledge,
    conjunctions (splitting the left size from small to large).
    """
    return iter(FormulaSlots(vars, agents, max_depth, max_size))


class FormulaSlots(Sequence):
    """The stream of enumerate_formulas as one program, without building
    it: formula i is op i and root i, and self[i] decodes op i. Its atoms
    are vars, and its modals B for each agent, then K for each agent, when
    a modal formula is enumerated and none otherwise, so that the knowledge
    gate reads them. No op is shared or folded: the stream is
    duplicate-free, and an enumerated ~~x is a NOT of a NOT."""

    def __init__(self, vars, agents, max_depth: int, max_size: int):
        if max_depth < 0 or max_size < 0:
            raise PreconditionError("bounds must be nonnegative")
        self.program = prog = Program()
        prog.atoms = list(vars)
        boxed = prog.atoms and max_depth >= 1 and max_size >= 2
        prog.modals = [(a, kind) for kind in (BELIEF, KNOWLEDGE) for a in agents] if boxed else []
        by_size: list[list] = [[]]  # (index, modal depth) per formula of each size

        def add(op, a, b, depth):
            layer.append((len(prog.op), depth))
            prog.op.append(op)
            prog.a.append(a)
            prog.b.append(b)

        for size in range(1, max_size + 1):
            layer: list = []
            if size == 1:
                for x in range(len(prog.atoms)):
                    add(ATOM, x, 0, 0)
            for i, d in by_size[size - 1]:
                add(NOT, i, 0, d)
            for m in range(len(prog.modals)):
                for i, d in by_size[size - 1]:
                    if d < max_depth:
                        add(BOX, m, i, d + 1)
            for left_size in range(1, size - 1):
                for i, di in by_size[left_size]:
                    for j, dj in by_size[size - 1 - left_size]:
                        add(AND, i, j, max(di, dj))
            by_size.append(layer)
        prog.roots = array("i", range(len(prog.op)))

    def __len__(self) -> int:
        return len(self.program.op)

    def __getitem__(self, i: int) -> Formula:
        prog = self.program
        op, a, b = prog.op[i], prog.a[i], prog.b[i]
        if op == ATOM:
            return Atom(prog.atoms[a])
        if op == NOT:
            return Not(self[a])
        if op == AND:
            return And(self[a], self[b])
        agent, kind = prog.modals[a]
        return (Believes if kind == BELIEF else Knows)(agent, self[b])
