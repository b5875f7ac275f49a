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

import re
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
    # each \ , { } in a world name is escaped, so distinct classes get distinct ids
    names = (re.sub(r"([\\,{}])", r"\\\1", w) for w in sorted(worlds))
    return f"{ws.agents[agent]}:{{{','.join(names)}}}"


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
    own program. The program runs once, on the disjoint union of the
    Kripke frame (states 0 .. n - 1) and the hypergraph frame laid out in
    world order after it (world i on state n + i), so a formula with mask
    m disagrees exactly at the set bits of (m ^ m >> n) over the worlds;
    rows go by formula, then world, and a formula's rows share one
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
    n = mk.n_worlds
    edge_of = [mh.edge_index(mapping[w]) for w in mk.worlds]
    worlds = (1 << n) - 1  # the states that are worlds, in each part of the union
    for j, m in enumerate(evaluate(prog, _union(mk.frame(), frame_h(mh), edge_of))):
        differ = (m ^ m >> n) & worlds
        if differ:
            f = formulas[j]
            for i in bits(differ):
                k_value = m >> i & 1 == 1
                report.disagreements.append(EquivalenceRow(mk.worlds[i], f, k_value, not k_value))
    return report


def _union(kripke: Frame, hyper: Frame, edge_of: list) -> Frame:
    """The disjoint union of the two frames: the n Kripke states first,
    then the hypergraph states laid out in world order, state n + i on
    edge edge_of[i] for each world i, and the edges that no world maps to
    after those, in order. The states of one edge lie in the same blocks,
    so they agree on every formula. A key with blocks in one frame only
    has none in the other part, so each part evaluates as its frame alone."""
    n = kripke.size
    image = [0] * hyper.size  # edge -> the mask of its states
    for i, e in enumerate(edge_of):
        image[e] |= 1 << n + i
    size = 2 * n
    for e in range(hyper.size):
        if not image[e]:
            image[e], size = 1 << size, size + 1

    def remap(mask: int) -> int:  # the edges' images are disjoint, so their sum is their union
        return sum(map(image.__getitem__, bits(mask)))

    atoms = dict(kripke.atoms)
    for p, mask in hyper.atoms.items():
        atoms[p] = atoms.get(p, 0) | remap(mask)
    blocks = {key: list(blocks) for key, blocks in kripke.blocks.items()}
    for key, spans in hyper.blocks.items():
        blocks.setdefault(key, []).extend((remap(span), remap(reach)) for span, reach in spans)
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


_MAX_FORMULAS = 1 << 23  # the longest stream FormulaSlots writes


def _stream_length(n_atoms: int, n_modals: int, max_depth: int, max_size: int) -> int:
    """The length of FormulaSlots' stream, counted by size and modal depth
    without writing it, or the first running total past _MAX_FORMULAS.
    The total passes it before any formula is deeper than its bit length
    L: the chains of L boxes over an atom alone make 2^(L+1) - 1 formulas."""
    top = min(max_depth, max_size, _MAX_FORMULAS.bit_length())
    count = [[0] * (top + 1)]  # count[size][depth]
    total = 0
    for size in range(1, max_size + 1 if n_atoms else 1):
        last, row = count[size - 1], [0] * (top + 1)
        for d in range(top + 1):
            row[d] = (n_atoms if size == 1 and d == 0 else 0) + last[d]  # atoms, negations
            if d:
                row[d] += n_modals * last[d - 1]  # boxes
            for left_size in range(1, size - 1):  # conjunctions, as deep as their deeper side
                left, right = count[left_size], count[size - 1 - left_size]
                row[d] += left[d] * sum(right[: d + 1]) + sum(left[:d]) * right[d]
        count.append(row)
        total += sum(row)
        if total > _MAX_FORMULAS:
            break
    return total


class FormulaSlots(Sequence):
    """The stream of enumerate_formulas as one program, without building
    it: formula i is op i and root i, and self[i] decodes op i. Its atoms
    are vars, and its modals B for each agent, then K for each agent, when
    a modal formula is enumerated and none otherwise, so that the knowledge
    gate reads them. No op is shared or folded: the stream is
    duplicate-free, and an enumerated ~~x is a NOT of a NOT.

    Each size's formulas are one index range, a layer, written a block at
    a time: one extend per column for each (size, op), and for each left
    conjunct of a size's conjunctions. The stream's length is counted
    before anything is written, and a stream of more than _MAX_FORMULAS
    formulas is refused with PreconditionError."""

    def __init__(self, vars, agents, max_depth: int, max_size: int):
        if max_depth < 0 or max_size < 0:
            raise PreconditionError("bounds must be nonnegative")
        self.program = prog = Program()
        prog.atoms = list(vars)
        boxed = prog.atoms and max_depth >= 1 and max_size >= 2
        prog.modals = [(a, kind) for kind in (BELIEF, KNOWLEDGE) for a in agents] if boxed else []
        if _stream_length(len(prog.atoms), len(prog.modals), max_depth, max_size) > _MAX_FORMULAS:
            raise PreconditionError(
                f"the formula stream at depth {max_depth}, size {max_size} has more than"
                f" the supported {_MAX_FORMULAS} formulas"
            )
        op, a, b = prog.op, prog.a, prog.b
        depth = array("i")  # the modal depth of each formula
        # rows[d][j] = max(d, depth[j]), the depth of a conjunction with left
        # depth d and right conjunct j; only sizes up to max_size - 2 are right conjuncts
        rows = [array("i") for _ in range(min(max_depth, max_size) + 1)]
        layers = [range(0)]  # the index range of each size
        for size in range(1, max_size + 1 if prog.atoms else 1):
            start = len(op)
            if size == 1:
                n = len(prog.atoms)
                op.extend(array("b", [ATOM]) * n)
                a.extend(range(n))
                b.extend(array("i", [0]) * n)
                depth.extend(array("i", [0]) * n)
            last = layers[size - 1]
            n = len(last)
            op.extend(array("b", [NOT]) * n)
            a.extend(last)
            b.extend(array("i", [0]) * n)
            depth.extend(depth[last.start:last.stop])
            shallow = array("i", (i for i in last if depth[i] < max_depth))
            deeper = array("i", (depth[i] + 1 for i in shallow))
            for m in range(len(prog.modals)):
                op.extend(array("b", [BOX]) * len(shallow))
                a.extend(array("i", [m]) * len(shallow))
                b.extend(shallow)
                depth.extend(deeper)
            for left_size in range(1, size - 1):
                right = layers[size - 1 - left_size]
                n = len(right)
                ands = array("b", [AND]) * n
                by_depth = [row[right.start:right.stop] for row in rows]
                for i in layers[left_size]:
                    op.extend(ands)
                    a.extend(array("i", [i]) * n)
                    b.extend(right)
                    depth.extend(by_depth[depth[i]])
            layers.append(range(start, len(op)))
            if size <= max_size - 2:
                for d, row in enumerate(rows):
                    row.extend(max(d, e) for e in depth[start:])
        prog.roots = array("i", range(len(op)))

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
