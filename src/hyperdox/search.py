"""Bounded model enumeration, countermodel search and soundness suites.

Models are enumerated in a canonical form (vertices of each color
numbered from 0, taking the least structure under color-preserving vertex
renamings), so isomorphic duplicates never appear. Structures are
generated in order rather than filtered: only descriptors the class
admits are combined, depth-first, and a prefix is cut as soon as it
cannot lead to a canonical structure of the class (orderly generation).
Each structure then carries every atom placement. countermodel builds a
structure's kernel frame once and sets only the atom masks per
placement, and equal queries share their witness. An exhausted search
means "no countermodel within bounds" and never claims validity.

soundness_suite lays chunks of the same frames side by side with
kernel.union and checks each scheme once per tuple of distinct formula
masks: formulas with one mask are one letter, and each scheme's pattern
is replayed on letters by _letter_program, the only code that emits
scheme instances. The letter program is built once per suite, and
again only for a frame with more letters than it holds; it is ordered
by largest letter, so a frame with L letters evaluates only a root
prefix of it. A failing root expands to its formula tuples, and a
Formula is built only for a violating instance.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .convert import FormulaSlots
from .errors import FragmentError, PreconditionError
from .formula import Formula, render_formula
from .hypergraph import DirectedEdge, HypergraphModel, Vertex
from .kernel import ATOM, BELIEF, KNOWLEDGE, Builder, Frame, compile_formulas, evaluate, union
from .proofcheck import ADMITTED, SCHEME_ARITY, SCHEMES, SchemeId, System, instantiate_scheme
from .workspace import Workspace, synthetic_workspace

CLASSES = ("H_su", "H_sut", "all")


@dataclass(frozen=True)
class SearchBounds:
    n_agents: int
    max_edges: int
    vars_per_agent: int = 0
    max_vertices_per_agent: Optional[int] = None

    def __post_init__(self):
        if self.n_agents < 1 or self.max_edges < 1:
            raise PreconditionError("n_agents and max_edges must be at least 1")
        if self.vars_per_agent < 0:
            raise PreconditionError("vars_per_agent must be nonnegative")
        if self.max_vertices_per_agent is not None and self.max_vertices_per_agent < 1:
            raise PreconditionError("max_vertices_per_agent must be at least 1")

    @property
    def vertex_cap(self) -> int:
        # An edge uses at most one vertex per color, so more vertices than
        # edges can never be reached by any edge set.
        cap = self.max_vertices_per_agent
        return self.max_edges if cap is None else min(cap, self.max_edges)

    def workspace(self) -> Workspace:
        return synthetic_workspace(self.n_agents, self.vars_per_agent)


# Edge descriptors encode, per agent: 0 = agent absent from the edge,
# 1 + 2v = vertex v in the tail, 2 + 2v = vertex v in the head. A
# structure is a sorted tuple of distinct descriptors, and the stream
# lists structures by edge count, then in lexicographic order.


def _code_vertex(code: int) -> int:
    return (code - 1) // 2


class _Tables:
    """Descriptor tables for n agents and a vertex cap, over every
    descriptor or only the uniform ones (no agent absent).

    The descriptors are numbered in sorted order, so a structure compares
    as its index list does. Vertex v of agent a is bit a * cap + v of the
    span and tail masks. shifts[a][k] holds, for each permutation of
    agent a's vertices 0..k-1, the change of descriptor index caused by
    each of a's codes 0..2k.
    """

    def __init__(self, n: int, cap: int, uniform: bool):
        self.n, self.cap = n, cap
        low = 1 if uniform else 0
        self.descs = list(itertools.product(range(low, 2 * cap + 1), repeat=n))
        self.span, self.tail = [], []
        for desc in self.descs:
            span = tail = 0
            for a, code in enumerate(desc):
                if code:
                    bit = 1 << (a * cap + _code_vertex(code))
                    span |= bit
                    tail |= bit if code % 2 else 0
            self.span.append(span)
            self.tail.append(tail)
        self.first = [_code_vertex(desc[0]) for desc in self.descs]  # -1 if absent
        self.shifts = []
        for a in range(n):
            weight = (2 * cap + 1 - low) ** (n - 1 - a)
            self.shifts.append([
                [
                    [0]
                    + [
                        2 * (perm[_code_vertex(c)] - _code_vertex(c)) * weight
                        for c in range(1, 2 * k + 1)
                    ]
                    for perm in itertools.permutations(range(k))
                ]
                for k in range(cap + 1)
            ])

    def segments(self, mask: int) -> list:
        """Agent a's vertex bits of the mask, for each agent a."""
        ones = (1 << self.cap) - 1
        return [mask >> (a * self.cap) & ones for a in range(self.n)]

    def is_least(self, chosen: list, used: int) -> bool:
        """Whether no renaming of each agent's vertices 0..k-1, where k-1
        is its highest vertex in the used mask, maps the structure to a
        lexicographically smaller one."""
        images = [chosen]
        for a, seg in enumerate(self.segments(used)):
            k = seg.bit_length()
            if k > 1:  # one vertex or none: only the identity
                codes = [self.descs[i][a] for i in chosen]
                images = [
                    [i + shift[c] for i, c in zip(image, codes)]
                    for image in images
                    for shift in self.shifts[a][k]
                ]
        return all(sorted(image) >= chosen for image in images)


_tables = functools.lru_cache(maxsize=16)(_Tables)


def _structures(bounds: SearchBounds, cls: str) -> Iterator[tuple]:
    """The canonical structures of the class, generated in order.

    A structure is canonical when its vertex indices are contiguous from 0
    per agent and no renaming within each agent makes it smaller. The
    descriptors of each size are chosen depth-first in lexicographic
    order, which is the stream's order, and prefixes are pruned:
    - agent 0's codes never decrease along a structure, so its vertices
      must appear as 0, 1, 2, ... (restricted growth);
    - a renaming that makes a prefix smaller makes every extension
      smaller too, since the prefix holds the extension's least
      descriptors, so a prefix that is not least is cut with its subtree
      (orderly generation; McKay, J. Algorithms 26, 1998);
    - in a uniform class a descriptor whose span is taken already is
      skipped, since equal spans break simplicity.
    Contiguity and tail-completeness are mask tests on the finished
    structure, made before its canonicity test.
    """
    uniform, complete = cls != "all", cls == "H_sut"
    t = _tables(bounds.n_agents, bounds.vertex_cap, uniform)
    descs, spans, tails, first = t.descs, t.span, t.tail, t.first

    def extend(size, chosen, used, tail, top0, taken):
        start = chosen[-1] + 1 if chosen else 0
        for i in range(start, len(descs) - size + len(chosen) + 1):
            if first[i] > top0 + 1:
                break  # agent 0 would skip a vertex, as would every later descriptor
            span = spans[i]
            if uniform and span in taken:
                continue
            now = used | span
            chosen.append(i)
            if len(chosen) < size:
                if t.is_least(chosen, now):
                    yield from extend(
                        size, chosen, now, tail | tails[i], max(top0, first[i]), taken + (span,)
                    )
            elif (
                now
                and all(x & (x + 1) == 0 for x in t.segments(now))  # contiguous
                and (not complete or tail | tails[i] == now)
                and t.is_least(chosen, now)
            ):
                yield tuple(descs[j] for j in chosen)
            chosen.pop()

    for size in range(1, bounds.max_edges + 1):
        yield from extend(size, [], 0, 0, -1, ())


def _slots(structure) -> tuple:
    """(agent, vertex) for every vertex the structure uses, by agent then
    vertex."""
    counts = [0] * len(structure[0])
    for edge in structure:
        for a, code in enumerate(edge):
            counts[a] = max(counts[a], _code_vertex(code) + 1)
    return tuple((a, v) for a, k in enumerate(counts) for v in range(k))


def _subsets(items):
    for mask in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if mask >> i & 1)


_SAMPLED_PLACEMENTS = 32


def _stream(cls: str, bounds: SearchBounds, seed: int):
    """(structure, slots, placement) for every model of the canonical
    stream, in order; placement[j] is the atom set of vertex slots[j]."""
    if cls not in CLASSES:
        raise PreconditionError(f"unknown class {cls!r}; expected one of {CLASSES}")
    ws = bounds.workspace()
    choices = [list(_subsets(ws.vars_of(a))) for a in range(ws.n_agents)]
    for structure in _structures(bounds, cls):
        slots = _slots(structure)
        if bounds.vars_per_agent <= 2:
            for placement in itertools.product(*(choices[a] for a, _ in slots)):
                yield structure, slots, placement
        else:
            rng = random.Random((seed, structure).__repr__())
            seen = set()
            for _ in range(_SAMPLED_PLACEMENTS):
                placement = tuple(
                    frozenset(p for p in ws.vars_of(a) if rng.random() < 0.5)
                    for a, _ in slots
                )
                if placement in seen:
                    continue
                seen.add(placement)
                yield structure, slots, placement


def _edge_name(i: int) -> str:
    return f"e{i + 1}"


def _build_model(ws: Workspace, structure, slots, placement) -> HypergraphModel:
    vertices = [
        Vertex(f"{ws.agents[a]}{v + 1}", a, atoms)
        for (a, v), atoms in zip(slots, placement)
    ]
    edges = []
    for i, edge in enumerate(structure):
        tail, head = set(), set()
        for a, code in enumerate(edge):
            if code:
                vid = f"{ws.agents[a]}{_code_vertex(code) + 1}"
                (tail if code % 2 else head).add(vid)
        edges.append(DirectedEdge(_edge_name(i), frozenset(tail), frozenset(head)))
    return HypergraphModel(ws, vertices, edges)


def enumerate_models(cls: str, bounds: SearchBounds, seed: int = 0) -> Iterator[HypergraphModel]:
    """Deterministic stream of validated models of the requested class.

    Atom placements are exhaustive for vars_per_agent <= 2; beyond that a
    fixed-seed sample of placements replaces exhaustion.
    """
    ws = bounds.workspace()
    for structure, slots, placement in _stream(cls, bounds, seed):
        yield _build_model(ws, structure, slots, placement)


def _frames(stream):
    """(structure, placement, frame) for each model of the stream, where
    frame is what hypergraph.frame_h gives that model. A structure's
    blocks are built once; each placement only sets the atom masks, in a
    frame that the next step reuses."""
    current = None
    for structure, slots, placement in stream:
        if structure is not current:
            current = structure
            span, tail = {}, {}
            for i, edge in enumerate(structure):
                for a, code in enumerate(edge):
                    if code:
                        key = (a, _code_vertex(code))
                        span[key] = span.get(key, 0) | 1 << i
                        if code % 2:
                            tail[key] = tail.get(key, 0) | 1 << i
            frame = Frame(len(structure), parts=[(0, len(structure))])
            for key in slots:
                frame.blocks.setdefault((key[0], KNOWLEDGE), []).append((span[key], span[key]))
                if key in tail:
                    frame.blocks.setdefault((key[0], BELIEF), []).append((span[key], tail[key]))
            slot_spans = [span[key] for key in slots]
        atoms = frame.atoms = {}
        for vertex_span, vals in zip(slot_spans, placement):
            for p in vals:
                atoms[p] = atoms.get(p, 0) | vertex_span
        yield structure, placement, frame


@dataclass(frozen=True, slots=True)
class SearchResult:
    """What a countermodel search found. Equal queries that end at the same
    witness share one result, so it holds no per-call data: the caller
    times the call, and to_json takes that time."""

    outcome: str  # "countermodel" | "exhausted"
    models_visited: int
    model: Optional[HypergraphModel] = None
    edge: Optional[str] = None

    def to_json(self, elapsed: float) -> dict:
        out = {
            "outcome": self.outcome,
            "models_visited": self.models_visited,
            "elapsed_ms": round(elapsed * 1000, 3),
        }
        if self.model is not None:
            from .modelio import hypergraph_to_json

            out["model"] = hypergraph_to_json(self.model)
            out["edge"] = self.edge
        return out


# Bounded, so that a caller keeping many results keeps one witness model
# per distinct (stream position, falsifying edge).
@functools.lru_cache(maxsize=64)
def _witness(ws: Workspace, structure, placement, visited: int, edge: int) -> SearchResult:
    model = _build_model(ws, structure, _slots(structure), placement)
    return SearchResult("countermodel", visited, model, model.edges[edge].name)


def countermodel(
    cls: str,
    f: Formula,
    bounds: SearchBounds,
    seed: int = 0,
    workers: int = 1,
) -> SearchResult:
    """First enumerated (model, edge) falsifying f, or exhaustion.

    The witness is minimal in the canonical enumeration order, and
    models_visited counts the stream consumed up to and including the
    witness. Each structure's frame is built once, and each placement
    only sets its atom masks; a model is built for the witness alone, and
    equal queries share it. Models are evaluated one at a time, since a
    witness usually comes within the first few. `workers` is accepted for
    compatibility; the stream is evaluated serially whatever its value.
    """
    if workers < 1:
        raise PreconditionError("workers must be at least 1")
    prog = compile_formulas([f])
    if cls == "H_su" and any(kind == KNOWLEDGE for _, kind in prog.modals):
        raise FragmentError("knowledge modalities are only admitted over the tail-complete class")
    ws = bounds.workspace()
    visited = 0
    for structure, placement, frame in _frames(_stream(cls, bounds, seed)):
        visited += 1
        root = evaluate(prog, frame)[0]
        if root != frame.full:
            _, edge = next(frame.failures(root))
            return _witness(ws, structure, placement, visited, edge)
    return SearchResult("exhausted", visited)


# Models per union frame in soundness_suite, framed by _frames: one program
# run covers a whole chunk (modal truth is invariant under disjoint union).
_CHUNK = 32

SYSTEM_CLASS = {
    System.EDL: "H_sut",
    System.LOC_KD45: "H_sut",
    System.LOC_K45: "H_su",
}


@dataclass
class SoundnessReport:
    system: System
    cls: str
    violations: list
    models_visited: int
    instances_checked: int
    elapsed: float

    def to_json(self) -> dict:
        return {
            "system": self.system.value,
            "violations": list(self.violations),
            "models_visited": self.models_visited,
            "elapsed_ms": round(self.elapsed * 1000, 3),
            "class": self.cls,
            "instances_checked": self.instances_checked,
        }


def _patterns(system: System) -> list:
    """(scheme, steps, modal kinds) per scheme the system admits, in
    SchemeId order: the steps of its compiled pattern, the root last, with
    each atom renumbered to its metavariable (0 phi, 1 psi, 2 p)."""
    out = []
    for scheme in (s for s in SchemeId if s in ADMITTED[system]):
        pattern = compile_formulas([SCHEMES[scheme]])
        meta = [v.index for v in pattern.atoms]
        steps = [
            (op, meta[a] if op == ATOM else a, b)
            for op, a, b in zip(pattern.op, pattern.a, pattern.b)
        ]
        out.append((scheme, steps, [kind for _, kind in pattern.modals]))
    return out


def _letter_program(system: System, ws: Workspace, count: int):
    """(program, origins, ends): every instance of the system's schemes
    over count letters, each a replay of its scheme's compiled pattern.
    Root j is the instance origins[j] = (scheme, agent, phi, psi): phi
    and psi are letters or None, and Loc's phi is its variable p, bound
    to each of the agent's own variables. Loc's instances come first;
    group L then holds every instance whose largest letter is L - 1, in
    scheme, agent, phi, psi order, and ends[L] is the root count after
    group L. The instances over L letters are thus the first ends[L]
    roots. Letter l is the atom keyed by the int l, never a PropVar, and
    is emitted with its group, so a program over more letters begins with
    the ops and roots of this one. A compiled pattern has no op that its
    root does not read, and neither has this program."""
    builder = Builder()
    replays = [  # (scheme, arity, agent, steps, modal indices) per scheme and agent
        (scheme, SCHEME_ARITY[scheme], agent, steps, [builder.modal(agent, k) for k in kinds])
        for scheme, steps, kinds in _patterns(system)
        for agent in range(ws.n_agents)
    ]
    roots, origins, letters = [], [], []
    for scheme, arity, agent, steps, modals in replays:
        if arity == "atom":  # Loc's p: each of the agent's own variables
            for p in ws.vars_of(agent):
                x = builder.atom(p)
                roots.append(builder.replay(steps, (x, None, x), modals))
                origins.append((scheme, agent, p, None))
    ends = [len(roots)]
    for last in range(count):
        letters.append(builder.atom(last))
        for scheme, arity, agent, steps, modals in replays:
            if arity == "one":
                pairs = [(last, None)]
            elif arity == "two":  # the pairs that hold the last letter
                pairs = [(x, last) for x in range(last)] + [(last, y) for y in range(last + 1)]
            else:
                continue
            for x, y in pairs:
                leaves = (letters[x], None if y is None else letters[y], letters[x])
                roots.append(builder.replay(steps, leaves, modals))
                origins.append((scheme, agent, x, y))
        ends.append(len(roots))
    return builder.program(roots), origins, ends


def instance_formula(origin: tuple, formulas: FormulaSlots) -> Formula:
    """The Formula of a _letter_program origin whose letters stand for
    the formulas of the same indices, built from their records."""
    scheme, agent, phi, psi = origin
    if SCHEME_ARITY[scheme] == "atom":
        return instantiate_scheme(scheme, agent, p=phi)
    psi = None if psi is None else formulas[psi]
    return instantiate_scheme(scheme, agent, phi=formulas[phi], psi=psi)


def soundness_suite(
    system: System,
    cls: str,
    bounds: SearchBounds,
    instantiation_depth: int,
    instantiation_size: int = 3,
    seed: int = 0,
) -> SoundnessReport:
    """Check every scheme instance for validity on every model in class.

    The class must match the system (EDL and LocKD45 go with H_sut,
    LocK45 with H_su). A sound system reports zero violations; each
    violation records the scheme, the rendered instance, the model's
    position in the canonical stream and the falsifying edge.

    An instance's mask on a frame depends only on the masks of its
    metavariables' values (the substitution lemma; Blackburn, de Rijke
    and Venema, Modal Logic, 2001, 1.3). So on each union frame the
    enumerated formulas are grouped by mask, each group is one letter,
    and the schemes are checked once per tuple of letters; a failing
    root stands for every tuple of formulas its letters hold. The letter
    program is built at the first frame's letter count and rebuilt when
    a frame has more; a frame with L letters evaluates its first ends[L]
    roots, the tuples over those letters.
    """
    if SYSTEM_CLASS[system] != cls:
        raise PreconditionError(
            f"{system.value} is checked over {SYSTEM_CLASS[system]}, not {cls}"
        )
    start = time.perf_counter()
    ws = bounds.workspace()
    formulas = FormulaSlots(
        ws.all_vars(), range(ws.n_agents), instantiation_depth, instantiation_size
    )
    n, masks_of = len(formulas), formulas.builder.program(formulas.slots)
    base, checked = {}, 0  # each (scheme, agent)'s first instance over the formulas
    for scheme in (s for s in SchemeId if s in ADMITTED[system]):
        for agent in range(ws.n_agents):
            base[scheme, agent] = checked
            arity = SCHEME_ARITY[scheme]
            checked += len(ws.vars_of(agent)) if arity == "atom" else n ** (1 + (arity == "two"))
    ends: list = []  # no letter program yet
    violations, visited = [], 0
    stream = (frame for _, _, frame in _frames(_stream(cls, bounds, seed)))
    while (frame := union(itertools.islice(stream, _CHUNK))).parts:
        groups: dict[int, list] = {}  # mask -> its formulas, in first-occurrence order
        for f, mask in enumerate(evaluate(masks_of, frame)):
            groups.setdefault(mask, []).append(f)
        if len(groups) >= len(ends):  # built at the first chunk, rebuilt at more letters
            prog, origins, ends = _letter_program(system, ws, len(groups))
        members = list(groups.values())
        frame.atoms.update(enumerate(groups))
        full, failures, origin_of = frame.full, [], {}
        for (scheme, agent, x, y), m in zip(origins, evaluate(prog, frame, ends[len(groups)])):
            if m == full:
                continue
            b = base[scheme, agent]
            if y is not None:
                found = [(b + phi * n + psi, phi, psi) for phi in members[x] for psi in members[y]]
            elif type(x) is int:
                found = [(b + phi, phi, None) for phi in members[x]]
            else:  # Loc's p, at its position among the agent's variables
                found = [(b + ws.vars_of(agent).index(x), x, None)]
            fails = list(frame.failures(m))
            for j, phi, psi in found:
                origin_of[j] = (scheme, agent, phi, psi)
                failures.extend((k, j, i) for k, i in fails)
        # (model k, instance j, first failing edge i), in (model, instance) order
        for k, j, i in sorted(failures):
            violations.append(
                {
                    "scheme": origin_of[j][0].value,
                    "instance": render_formula(instance_formula(origin_of[j], formulas), ws),
                    "model_index": visited + k + 1,
                    "edge": _edge_name(i),
                }
            )
        visited += len(frame.parts)
    elapsed = time.perf_counter() - start
    return SoundnessReport(system, cls, violations, visited, checked, elapsed)
