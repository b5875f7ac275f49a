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
from .kernel import AND, BELIEF, BOX, KNOWLEDGE, NOT, Builder, compile_formulas, evaluate
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
    own program, and a Formula is built for a disagreement row alone.
    """
    if mk.workspace != mh.workspace:
        raise PreconditionError("models are declared over different workspaces")
    missing = [w for w in mk.worlds if w not in mapping]
    if missing:
        raise PreconditionError(f"mapping does not cover worlds: {missing}")
    if isinstance(formulas, FormulaSlots):
        prog = formulas.builder.program(formulas.slots)
    else:
        prog = compile_formulas(formulas)
    if any(kind == KNOWLEDGE for _, kind in prog.modals):
        ck = model_properties(mk)
        ch = graph_metrics(mh)
        if not (ck.in_k_ste and ch.in_h_sut):
            raise FragmentError("knowledge formulas require the serial classes on both sides")
    report = EquivalenceReport(checked=len(formulas) * mk.n_worlds)
    edge_of = [mh.edge_index(mapping[w]) for w in mk.worlds]
    masks = zip(evaluate(prog, mk.frame()), evaluate(prog, frame_h(mh)))
    for j, (mask_k, mask_h) in enumerate(masks):
        for i, e in enumerate(edge_of):
            k_value, h_value = mask_k >> i & 1, mask_h >> e & 1
            if k_value != h_value:
                row = EquivalenceRow(mk.worlds[i], formulas[j], k_value == 1, h_value == 1)
                report.disagreements.append(row)
    return report


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
    """The stream of enumerate_formulas emitted into a program builder, in
    order, without building it: slots[i] is the i-th formula's slot, and
    self[i] builds the i-th Formula from its construction record (never
    from its slot, which ~~x shares with x). The records are three int
    columns: kind[i] indexes _KINDS (a class's code is _CODE[cls]), and
    first[i], second[i] are an atom's index in vars, a negation's or a
    conjunction's operands, or a modality's agent and operand."""

    _KINDS = (Atom, Not, Believes, Knows, And)
    _CODE = {cls: k for k, cls in enumerate(_KINDS)}

    def __init__(self, vars, agents, max_depth: int, max_size: int):
        if max_depth < 0 or max_size < 0:
            raise PreconditionError("bounds must be nonnegative")
        self.builder = b = Builder()
        self._vars = vars = tuple(vars)
        self.slots = slots = array("i")
        self._kind, self._first, self._second = kind, first, second = (
            array("i"), array("i"), array("i")
        )
        by_size: list[list] = [[]]  # (index, modal depth) per formula of each size
        code = self._CODE

        def add(cls, x, y, slot, depth):
            layer.append((len(slots), depth))
            kind.append(code[cls])
            first.append(x)
            second.append(y)
            slots.append(slot)

        for size in range(1, max_size + 1):
            layer: list = []
            if size == 1:
                for x, v in enumerate(vars):
                    add(Atom, x, 0, b.atom(v), 0)
            for i, d in by_size[size - 1]:
                add(Not, i, 0, b.node(NOT, slots[i]), d)
            for cls, box in ((Believes, BELIEF), (Knows, KNOWLEDGE)):
                for a in agents:
                    for i, d in by_size[size - 1]:
                        if d < max_depth:
                            add(cls, a, i, b.node(BOX, b.modal(a, box), slots[i]), d + 1)
            for left_size in range(1, size - 1):
                for i, di in by_size[left_size]:
                    for j, dj in by_size[size - 1 - left_size]:
                        add(And, i, j, b.node(AND, slots[i], slots[j]), max(di, dj))
            by_size.append(layer)

    def __len__(self) -> int:
        return len(self.slots)

    def __getitem__(self, i: int) -> Formula:
        cls, x, y = self._KINDS[self._kind[i]], self._first[i], self._second[i]
        if cls is Atom:
            return Atom(self._vars[x])
        if cls is And:
            return And(self[x], self[y])
        return Not(self[x]) if cls is Not else cls(x, self[y])
