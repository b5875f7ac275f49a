"""Bounded model enumeration, countermodel search and soundness suites.

Models are enumerated in a canonical form (vertices of each color
numbered from 0, taking the least structure under color-preserving vertex
renamings), so isomorphic duplicates never appear. Structures are
generated in order rather than filtered, one edge count at a time: each
least prefix is extended by the descriptors the class admits and cut as
soon as it cannot lead to a canonical structure (orderly generation).
Each structure then carries every atom placement, an int with one bit
per vertex and variable (_placements): a range when exhaustive, a list
when sampled. countermodel and soundness_suite read the same frames
(_lanes), made from the bounds alone: per structure, a lane frame that
holds its placements side by side (_lane_frames, bitsliced with
placements as the lanes), a window of at most _LANES of them at a time.
countermodel runs its query once per frame and takes the first failing
lane k as the witness, placements[offset + k], for which alone it builds
a workspace and a model; equal queries share their witness. An
exhausted search means "no countermodel within bounds" and never claims
validity.

soundness_suite checks the tuples of each (scheme, agent) pattern's
metavariable domains, each a list of (mask, indices of the values with
that mask) pairs (_groups): the formulas for phi and psi, the agent's own
variables for Loc's p. Patterns with the same domains are one group
(_fuse), compiled once per call into one program. The tuples run as
copies of the frame side by side, a window of at most _PACKED states at
a time (_windows), so that a group runs once per frame and window rather
than once per pattern and tuple. No program is emitted for instances. A
failing copy decodes to its tuple (_unrank), which expands to the
instances (pattern, values) it stands for, and a Formula is built only
for a violating instance.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .convert import FormulaSlots
from .errors import FragmentError, PreconditionError
from .formula import Atom, Formula, render_formula
from .hypergraph import DirectedEdge, HypergraphModel, Vertex
from .kernel import (
    AND, ATOM, BELIEF, KNOWLEDGE, NOT, Frame, bits, compile_formulas, evaluate, index_bits,
    replicate, run,
)
from .proofcheck import _META, ADMITTED, SCHEMES, SchemeId, System, instantiate_scheme
from .workspace import PropVar, Workspace, synthetic_workspace

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


# The most descriptors a table may list: (2·cap + 1)^n, or (2·cap)^n when
# uniform. 512 is the largest that the pinned streams use (uncapped
# (3,4,1)); a table of 2^16 descriptors takes about 0.2 s and 17 MB to
# build on a 2-core VM.
_MAX_DESCRIPTORS = 1 << 16

# The most map entries (maps times descriptors) of a merged level: the
# leading levels of a used mask are composed into one list while it holds
# at most this many descriptor indices. At (2,4,1,3) that is every level
# (35 maps of 36 descriptors); uncapped bounds mostly keep their levels.
_MERGED = 1 << 11


# The most map entries (maps times descriptors) that renamings(a, k) may
# list: (k! - 1)·descriptors. The largest table the pins use is uncapped
# (2,6,1), 719 maps of 144 descriptors. One agent with one vertex per edge
# reaches k = edges: 645,104 entries at edges=8 (about 0.2 s and 25 MB on a
# 2-core VM) are admitted, 6,531,822 at edges=9 (1.5 s, 114 MB) refused.
_MAX_RENAMINGS = 1 << 20


class _Tables:
    """Descriptor tables for n agents and a vertex cap, over every
    descriptor or only the uniform ones (no agent absent).

    The descriptors are numbered in sorted order, so a structure compares
    as its index list does. Vertex v of agent a is bit a * cap + v of the
    span and tail masks. renamings(a, k) gives, for each renaming of agent
    a's vertices 0..k-1, a map of descriptor indices, and levels(used) the
    maps and agent masks that is_least and finishable read for a used
    mask; both are built on first use and kept. A table of more than
    _MAX_DESCRIPTORS descriptors, and renamings of more than _MAX_RENAMINGS
    map entries, are refused with PreconditionError before any is listed.
    """

    def __init__(self, n: int, cap: int, uniform: bool):
        self.n, self.cap = n, cap
        self.low = 1 if uniform else 0
        count = 1
        for _ in range(n):  # stops at the first count past the cap
            count *= 2 * cap + 1 - self.low
            if count > _MAX_DESCRIPTORS:
                raise PreconditionError(
                    f"{n} agents with up to {cap} vertices each give more than the"
                    f" supported {_MAX_DESCRIPTORS} edge descriptors"
                )
        self.descs = list(itertools.product(range(self.low, 2 * cap + 1), repeat=n))
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
        self.maps, self.by_used, self.by_counts = {}, {}, {}

    def segments(self, mask: int) -> list:
        """Agent a's vertex bits of the mask, for each agent a."""
        ones = (1 << self.cap) - 1
        return [mask >> (a * self.cap) & ones for a in range(self.n)]

    def finishable(self, used: int, tail: int) -> bool:
        """Whether one more edge can finish a prefix with these used and
        tail masks (pass tail = used where tails do not matter): an edge
        names one vertex per agent, so each agent may lack at most one
        vertex below its highest used one, counting a used vertex outside
        the tail as lacking. Only an agent with two vertices or more can
        lack two, and levels(used) holds the mask of those vertices of
        each such agent."""
        for below in self.levels(used)[1]:
            lacking = below & ~tail
            if lacking & lacking - 1:
                return False
        return True

    def renamings(self, a: int, k: int) -> list:
        """For each permutation perm of agent a's vertices 0..k-1 but the
        identity, in itertools.permutations order, the tuple that maps each
        descriptor index i to the index of its image under perm: i + 2·(perm[v]
        - v)·weight when agent a's code names a vertex v < k, weight being
        the place value of agent a's code in the index, and i otherwise.
        The maps share one int object per index."""
        maps = self.maps.get((a, k))
        if maps is None:
            entries = (math.factorial(k) - 1) * len(self.descs)
            if entries > _MAX_RENAMINGS:
                raise PreconditionError(
                    f"renaming {k} vertices of one agent takes {entries} map entries, more"
                    f" than the supported {_MAX_RENAMINGS}"
                )
            weight = (2 * self.cap + 1 - self.low) ** (self.n - 1 - a)
            ids = list(range(len(self.descs)))
            verts = [_code_vertex(desc[a]) for desc in self.descs]
            maps = self.maps[a, k] = [
                tuple(
                    ids[i + 2 * (perm[v] - v) * weight] if 0 <= v < k else i
                    for i, v in zip(ids, verts)
                )
                for perm in itertools.islice(itertools.permutations(range(k)), 1, None)
            ]
        return maps

    def levels(self, used: int) -> tuple:
        """(levels, agent masks) of the used mask, built once per mask and
        shared by the masks with the same vertex count k per agent (its
        highest used vertex plus one).

        levels lists renamings(a, k) for each agent a with k >= 2, in
        agent order, with its leading lists composed into one while that
        list holds at most _MERGED map entries: the merged list holds every
        product of one map or the identity from each part, but the
        identity. Agents rename disjoint digits of an index, so their maps
        commute, and the products of the levels' maps are the renamings
        is_least tests. The agent masks are each such agent's bits of
        vertices 0..k-1, which finishable reads."""
        entry = self.by_used.get(used)
        if entry is None:
            counts = tuple(seg.bit_length() for seg in self.segments(used))
            entry = self.by_counts.get(counts)
            if entry is None:
                agents = [a for a, k in enumerate(counts) if k > 1]
                levels = [self.renamings(a, counts[a]) for a in agents]
                while len(levels) > 1:
                    head, maps = levels[:2]
                    if ((len(head) + 1) * (len(maps) + 1) - 1) * len(self.descs) > _MERGED:
                        break
                    levels[:2] = [
                        head + maps + [tuple(map(m.__getitem__, p)) for p in head for m in maps]
                    ]
                below = [((1 << counts[a]) - 1) << a * self.cap for a in agents]
                entry = self.by_counts[counts] = levels, below
            self.by_used[used] = entry
        return entry

    def is_least(self, chosen: list, used: int) -> bool:
        """Whether no renaming of each agent's vertices 0..k-1, where k-1
        is its highest vertex in the used mask, maps the structure to a
        lexicographically smaller one.

        The renamings are the products of one map or the identity from
        each level of levels(used). The images under every level but the
        last are built, each image kept under the identity too; each of
        them is then tested as it is and under each map of the last level,
        two C calls per image, up to the first smaller one. Where every
        level is merged into one, that is one flat loop over its maps."""
        levels = self.levels(used)[0]
        if not levels:  # one vertex or none per agent: only the identity
            return True
        images = [chosen]
        for maps in levels[:-1]:
            images += [list(map(m.__getitem__, image)) for image in images for m in maps]
        last = levels[-1]
        for image in images:
            if sorted(image) < chosen:
                return False
            for m in last:
                if sorted(map(m.__getitem__, image)) < chosen:
                    return False
        return True


_tables = functools.lru_cache(maxsize=16)(_Tables)


def _structures(bounds: SearchBounds, cls: str) -> Iterator[tuple]:
    """The canonical structures of the class, generated in order.

    A structure is canonical when its vertex indices are contiguous from 0
    per agent and no renaming within each agent makes it smaller. Level k
    holds k-edge prefixes as records (indices, used mask, tail mask, spans
    taken, untested). Level k+1 is their children in parent order, then by
    last index: lexicographic order, each prefix tested at most once, and
    each finished child yielded as its level is built. A finished child is
    tested at once. An unfinished one is kept untested, and tested only
    when a child of its own is about to be yielded or kept, so a prefix
    that has no such child is never tested. Children are pruned:
    - agent 0's codes never decrease along a structure, so its vertices
      must appear as 0, 1, 2, ... (restricted growth);
    - a renaming that makes a prefix smaller makes every extension
      smaller too, since the prefix holds the extension's least
      descriptors, so a prefix that is not least is cut with its subtree
      (orderly generation; McKay, J. Algorithms 26, 1998). The test
      (_Tables.is_least) maps the prefix's descriptor indices through
      the renaming maps of its used mask (_Tables.levels, built once per
      mask) and stops at the first smaller image;
    - in a uniform class a descriptor whose span is taken already is
      skipped, since equal spans break simplicity;
    - a child is not kept for the last level when no one edge can finish
      it (_Tables.finishable).
    Contiguity and tail-completeness are mask tests on the finished
    structure, made before its canonicity test.
    """
    if cls not in CLASSES:
        raise PreconditionError(f"unknown class {cls!r}; expected one of {CLASSES}")
    uniform, complete = cls != "all", cls == "H_sut"
    t = _tables(bounds.n_agents, bounds.vertex_cap, uniform)
    descs, spans, tails, first = t.descs, t.span, t.tail, t.first
    ones, starts = (1 << t.cap) - 1, sum(1 << a * t.cap for a in range(t.n))
    level = [([], 0, 0, (), False)]
    for size in range(1, bounds.max_edges + 1):
        grow, children = size < bounds.max_edges, []
        for chosen, used, tail, taken, untested in level:
            top = (used & ones).bit_length()  # agent 0's next vertex
            for i in range(chosen[-1] + 1 if chosen else 0, len(descs)):
                if first[i] > top:
                    break  # agent 0 would skip a vertex, as would every later descriptor
                span = spans[i]
                if uniform and span in taken:
                    continue
                now = used | span
                contiguous = not now & ~(now << 1) & ~starts
                done = now and contiguous and (not complete or tail | tails[i] == now)
                keep = grow and (
                    size + 1 < bounds.max_edges
                    or t.finishable(now, tail | tails[i] if complete else now)
                )
                if not (keep or done):
                    continue
                if untested:  # the prefix's first child that counts: test the prefix now
                    if not t.is_least(chosen, used):
                        break
                    untested = False
                child = chosen + [i]
                if done:
                    if not t.is_least(child, now):
                        continue
                    yield tuple(descs[j] for j in child)
                if keep:
                    children.append((child, now, tail | tails[i], taken + (span,), not done))
        level = children


def _slots(structure) -> tuple:
    """(agent, vertex) for every vertex the structure uses, by agent then
    vertex. An agent's codes grow with its vertex, so its greatest code
    names its last vertex."""
    return tuple(
        (a, v) for a, codes in enumerate(zip(*structure)) for v in range((max(codes) + 1) // 2)
    )


_SAMPLED_PLACEMENTS = 32


def _placements(structure, n_slots: int, bounds: SearchBounds, seed: int):
    """The atom placements of the structure, in stream order. A placement
    is an int: with V variables per agent, bit (n_slots - 1 - j)·V + i is
    set when the vertex of slot j (see _slots) holds its agent's variable
    i, so the last slot takes the lowest V bits.

    For V <= 2 they are exhaustive, range(2 ** (n_slots·V)). Beyond two
    variables a list replaces exhaustion: up to _SAMPLED_PLACEMENTS seeded
    draws, one rng.random() per slot and variable in that order, each
    first occurrence kept in order.
    """
    n_vars = bounds.vars_per_agent
    if n_vars <= 2:
        return range(1 << n_slots * n_vars)
    rng = random.Random(repr((seed, structure)))
    draws = (
        sum(
            (rng.random() < 0.5) << (n_slots - 1 - j) * n_vars + i
            for j in range(n_slots) for i in range(n_vars)
        )
        for _ in range(_SAMPLED_PLACEMENTS)
    )
    return list(dict.fromkeys(draws))


def _edge_name(i: int) -> str:
    return f"e{i + 1}"


def _vars_of(bounds: SearchBounds) -> list:
    """Each agent's variables: PropVars made once per stream, not per model."""
    return [[PropVar(a, i) for i in range(bounds.vars_per_agent)] for a in range(bounds.n_agents)]


def _skeleton(ws: Workspace, structure) -> tuple:
    """(slots, vertex ids, edges) of the structure, which all its
    placements share: _slots, each slot's vertex id and the DirectedEdges."""
    slots = _slots(structure)
    ids = [f"{ws.agents[a]}{v + 1}" for a, v in slots]
    id_of, edges = dict(zip(slots, ids)), []
    for i, edge in enumerate(structure):
        tail, head = set(), set()
        for a, code in enumerate(edge):
            if code:
                (tail if code % 2 else head).add(id_of[a, _code_vertex(code)])
        edges.append(DirectedEdge(_edge_name(i), frozenset(tail), frozenset(head)))
    return slots, ids, edges


def _build_model(
    ws: Workspace, vars_of, atom_sets: dict, skeleton, placement: int
) -> HypergraphModel:
    """The model of a structure's _skeleton under the placement (see
    _placements); vars_of is _vars_of(bounds). atom_sets maps (agent, atom
    bits) to the frozenset of the agent's variables those bits name, filled
    as vertices need them, so that the models built with one dict share them."""
    slots, ids, edges = skeleton
    vertices = []
    for j, (a, _) in enumerate(slots):
        own = vars_of[a]
        bits = placement >> (len(slots) - 1 - j) * len(own) & (1 << len(own)) - 1
        atoms = atom_sets.get((a, bits))
        if atoms is None:
            atoms = atom_sets[a, bits] = frozenset(p for p in own if bits >> p.index & 1)
        vertices.append(Vertex(ids[j], a, atoms))
    return HypergraphModel(ws, vertices, edges)


def enumerate_models(cls: str, bounds: SearchBounds, seed: int = 0) -> Iterator[HypergraphModel]:
    """Deterministic stream of validated models of the requested class.

    Atom placements are exhaustive for vars_per_agent <= 2; beyond that a
    fixed-seed sample of placements replaces exhaustion.
    """
    ws, vars_of, atom_sets = bounds.workspace(), _vars_of(bounds), {}
    for structure in _structures(bounds, cls):
        skeleton = _skeleton(ws, structure)
        for placement in _placements(structure, len(skeleton[0]), bounds, seed):
            yield _build_model(ws, vars_of, atom_sets, skeleton, placement)


# Placements per lane frame. A power of two, so that an exhaustive window
# starts at a multiple of its width, and each bit of the placement index
# above the window's own bits is constant on it.
_LANES = 4096


# index_bits per lane count: the widths of range windows are the 13 powers
# of two up to _LANES.
_columns = functools.lru_cache(maxsize=_LANES.bit_length())(index_bits)


def _lane_frames(vars_of: list, structure, slots, placements):
    """(offset, frame) for each window of up to _LANES consecutive
    placements of the structure, in order; vars_of is _vars_of(bounds),
    and placements is _placements(structure, ...).

    In a frame of width W, state e·W + k is edge e under placement
    offset + k (bitslicing, Biham, FSE 1997, with placements as the
    lanes). A vertex gives frame_h's blocks with the span spread to bit
    e·W of each edge e and the reach to all W lanes of each edge, so the W
    placements share them; kernel.run folds the lanes where a reach fails
    and shifts them back onto the span. An atom's mask is a W-bit lane
    pattern times its vertex's spread span. The pattern of placement bit b
    is, for a range, the lanes whose index has bit b set (kernel.index_bits)
    below log2(W) and all or none of them above, where the bit is constant
    on the window; for a list it is read off the window's placements.
    Windows of equal width are one frame, whose atoms are reassigned and
    whose box memo is kept, so a frame is read before the next comes."""
    n_slots, n_vars = len(slots), len(vars_of[0])
    # agent a's slots are first[a] .. first[a + 1] - 1, since slots are sorted
    first = [bisect.bisect_left(slots, (a,)) for a in range(len(vars_of) + 1)]
    frame = None
    for offset in range(0, len(placements), _LANES):
        width = min(_LANES, len(placements) - offset)
        if frame is None or frame.width != width:
            lanes = (1 << width) - 1
            span, tail = [0] * n_slots, [0] * n_slots  # bit e·W of each edge e, or tail edge e
            for e, edge in enumerate(structure):
                one = 1 << e * width
                for a, code in enumerate(edge):
                    if code:
                        j = first[a] + (code - 1 >> 1)  # the slot of vertex _code_vertex(code)
                        span[j] |= one
                        if code & 1:
                            tail[j] |= one
            frame = Frame(len(structure) * width, width=width)
            for a in range(len(vars_of)):
                lo, hi = first[a], first[a + 1]
                if lo < hi:  # times lanes, a bit e·W spreads to all W lanes of edge e
                    frame.blocks[a, KNOWLEDGE] = [(s, s * lanes) for s in span[lo:hi]]
                    believed = [(s, t * lanes) for s, t in zip(span[lo:hi], tail[lo:hi]) if t]
                    if believed:
                        frame.blocks[a, BELIEF] = believed
        if type(placements) is range:  # the bits above the window's own are constant on it
            low = width.bit_length() - 1  # + copies the kept columns, which stay as they are
            lane_of = _columns(low) + [
                lanes * (offset >> b & 1) for b in range(low, n_slots * n_vars)
            ]
        else:
            window = placements[offset:offset + width]
            lane_of = [
                sum(1 << k for k, placement in enumerate(window) if placement >> b & 1)
                for b in range(n_slots * n_vars)
            ]
        atoms = frame.atoms = {}
        for j, (a, _) in enumerate(slots):
            for p in vars_of[a]:
                lane = lane_of[(n_slots - 1 - j) * n_vars + p.index]
                if lane:
                    atoms[p] = atoms.get(p, 0) | lane * span[j]
        yield offset, frame


def _lanes(cls: str, bounds: SearchBounds, seed: int):
    """(structure, placements, offset, frame) for each window of the
    canonical stream, in order: each structure of the class with its
    placements, laid out by _lane_frames. Lane k of the frame holds
    placements[offset + k], so the lanes follow the stream."""
    vars_of = _vars_of(bounds)
    for structure in _structures(bounds, cls):
        slots = _slots(structure)
        placements = _placements(structure, len(slots), bounds, seed)
        for offset, frame in _lane_frames(vars_of, structure, slots, placements):
            yield structure, placements, offset, frame


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
def _witness(bounds: SearchBounds, structure, placement, visited: int, edge: int) -> SearchResult:
    ws = bounds.workspace()
    model = _build_model(ws, _vars_of(bounds), {}, _skeleton(ws, structure), placement)
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
    witness. The query compiles once and runs once per frame of _lanes,
    which holds up to _LANES of a structure's placements side by side. The
    witness is the first failing lane k and its first failing edge, under
    placements[offset + k]. A workspace and a model are built for the
    witness alone, and equal queries share them. Nothing is read past the
    witness's structure. `workers` is accepted for compatibility; the
    stream is evaluated serially whatever its value.
    """
    if workers < 1:
        raise PreconditionError("workers must be at least 1")
    prog = compile_formulas([f])
    if cls == "H_su" and any(kind == KNOWLEDGE for _, kind in prog.modals):
        raise FragmentError("knowledge modalities are only admitted over the tail-complete class")
    visited = 0
    for structure, placements, offset, frame in _lanes(cls, bounds, seed):
        root = evaluate(prog, frame)[0]
        if root != frame.full:
            k, edge = next(frame.failures(root))
            return _witness(bounds, structure, placements[offset + k], visited + k + 1, edge)
        visited += frame.width
    return SearchResult("exhausted", visited)


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


def _patterns(system: System, ws: Workspace) -> list:
    """(scheme, agent, names) per scheme the system admits and agent, in
    instance order (SchemeId, then agent): names are the scheme's
    metavariables in meta-workspace order (phi before psi before p), read
    off one program of the schemes as the set of metavariables below each
    root, in one pass over its op columns."""
    schemes = [s for s in SchemeId if s in ADMITTED[system]]
    prog = compile_formulas([SCHEMES[s] for s in schemes])
    below: list[int] = []  # per op, bit i set when metavariable i occurs in it
    for op, a, b in zip(prog.op, prog.a, prog.b):
        if op == ATOM:
            below.append(1 << prog.atoms[a].index)
        else:
            below.append(below[a] | below[b] if op == AND else below[a if op == NOT else b])
    out = []
    for scheme, root in zip(schemes, prog.roots):
        names = tuple(_META.vars[0][i] for i in bits(below[root]))
        out += [(scheme, agent, names) for agent in range(ws.n_agents)]
    return out


def _fuse(patterns: list) -> list:
    """(agent, names, steps, modals, members) per metavariable signature
    of the _patterns entries, in first-occurrence order. A signature is the
    names, and the agent too when p is among them, since p ranges over the
    agent's own variables while phi and psi range over the same letters
    for every agent; so its members have the same domains.

    steps is the one program (compile_formulas) of the members' schemes,
    each instantiated for its agent on the metavariables' atoms, with ATOM
    i standing for names[i]; equal subformulas of members, such as B{a}phi
    of 4_B, 5_B, SPI, SNI and K_IB for one agent, are one op. modals are
    its boxes' (agent, kind) keys, and members is (pattern index, root
    slot) per member. agent is None for a signature without p."""
    by_signature: dict = {}
    for j, (_, agent, names) in enumerate(patterns):
        by_signature.setdefault((names, agent if "p" in names else None), []).append(j)
    phi, psi = (Atom(_META.var_by_name(name)) for name in ("phi", "psi"))
    p = _META.var_by_name("p")
    out = []
    for (names, agent), members in by_signature.items():
        prog = compile_formulas(
            instantiate_scheme(patterns[j][0], patterns[j][1], phi, psi, p) for j in members
        )
        meta = [names.index(_META.var_name(v)) for v in prog.atoms]
        steps = [
            (op, meta[a] if op == ATOM else a, b) for op, a, b in zip(prog.op, prog.a, prog.b)
        ]
        out.append((agent, names, steps, prog.modals, list(zip(members, prog.roots))))
    return out


def _groups(masks) -> list:
    """(mask, the indices that have it) for each distinct mask, in
    first-occurrence order."""
    groups: dict[int, list] = {}
    for i, mask in enumerate(masks):
        groups.setdefault(mask, []).append(i)
    return list(groups.items())


def _spread(keys: list, stride: int, count: int, size: int) -> int:
    """The packed mask whose copy c of a size-bit frame, for c < count,
    holds keys[c // stride % len(keys)]; count is a multiple of
    len(keys)·stride. One period, each key on stride copies, is repeated
    to fill the count copies."""
    period = len(keys) * stride
    block = replicate(sum(key << d * stride * size for d, key in enumerate(keys)), stride, size)
    return replicate(block, count // period, period * size)


def _unrank(domains: list, t: int) -> list:
    """The t-th tuple of itertools.product(*domains)."""
    out = []
    for domain in reversed(domains):
        t, d = divmod(t, len(domain))
        out.append(domain[d])
    return out[::-1]


# States per packed run of a pattern: a window holds at most this many
# states of tuples side by side (and at least one tuple), as _LANES bounds
# the placements of a lane frame. An op on 2**16 bits already costs far
# more than Python's per-op overhead, so larger windows only hold more.
_PACKED = 1 << 16


def _windows(sizes: list, limit: int):
    """(start, count) for each window of at most limit >= 1 consecutive
    tuples of the product of ranges of the given sizes, in order. A window
    takes consecutive values of one metavariable, with every later one
    ranging over its whole domain, so that the values of each metavariable
    on it repeat with a period that divides it (see _spread)."""
    block = [math.prod(sizes[i:]) for i in range(len(sizes) + 1)]  # tuples per value of i - 1
    i = next(i for i, n in enumerate(block) if n <= limit)
    if i == 0:
        if block[0]:  # an empty domain has no tuples
            yield 0, block[0]
        return
    step = limit // block[i]  # values of metavariable i - 1 per window
    for prefix in range(0, block[0], block[i - 1]):
        for d in range(0, sizes[i - 1], step):
            yield prefix + d * block[i], min(step, sizes[i - 1] - d) * block[i]


def _instance_masks(groups, frame: Frame, letters: list, own: list):
    """(pattern index, domains, start, count, root) for every member of
    every group of _fuse and every window (_windows) of up to
    _PACKED // frame.size tuples of the product of the group's domains,
    one domain per metavariable: p's is own[agent], the agent's variables
    grouped by mask, and every other one's is letters, the formulas
    grouped by mask (see _groups).

    The window's tuples run at once, tuple start + c on copy c of the
    frame (see Frame.box), each metavariable bound to the packed masks of
    its values on them (_spread), so that each op of the group's program
    is one int op per window, and one run serves all its members. root is
    the member's root mask on those copies; copy c of it is the mask of
    tuple _unrank(domains, start + c).

    A frame keeps one box per (agent, kind), rebuilt only for a window of
    more copies than it has: a box for M copies serves any count c <= M
    as it is, since run reads its reaches and lanes only inside bad, which
    holds c copies."""
    size = frame.size
    spread, boxes = {}, {}  # per frame, shared by the groups; boxes holds (copies, box)
    for agent, names, steps, modals, members in groups:
        domains = [own[agent] if name == "p" else letters for name in names]
        sizes = [len(domain) for domain in domains]
        for start, count in _windows(sizes, max(1, _PACKED // size)):
            masks, stride = [], math.prod(sizes)
            for domain, n in zip(domains, sizes):
                stride //= n  # tuples per value of this metavariable
                # on the window, its values from the first-th on, each on held copies
                first, held = start // stride % n, min(stride, count)
                key = id(domain), first, held, count
                if key not in spread:
                    keys = [mask for mask, _ in domain[first:first + count // held]]
                    spread[key] = _spread(keys, held, count, size)
                masks.append(spread[key])
            for key in modals:
                kept = boxes.get(key)
                if kept is None or kept[0] < count:
                    boxes[key] = count, frame.box(key, count)
            vals = run(steps, masks, [boxes[key][1] for key in modals], (1 << count * size) - 1)
            for j, root in members:
                yield j, domains, start, count, vals[root]


def instance_formula(pattern: tuple, values: tuple, formulas: FormulaSlots) -> Formula:
    """The Formula of the instance (pattern, values) of a _patterns entry,
    binding each metavariable by name to its value: p's is the index of
    one of the agent's variables, and every other one's is an index of the
    formulas, whose Formula is decoded from its op."""
    scheme, agent, names = pattern
    binding = {
        name: PropVar(agent, v) if name == "p" else formulas[v] for name, v in zip(names, values)
    }
    return instantiate_scheme(scheme, agent, **binding)


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
    and Venema, Modal Logic, 2001, 1.3). So on each frame of _lanes, one
    model per lane, each pattern checks every tuple of its domains'
    masks, the tuples of a window side by side in one run (see
    _instance_masks). Patterns with the same metavariables, and the same
    agent where p is one of them, have the same domains and share that
    run: _fuse compiles each such group once per call, from SCHEMES as it
    is then, and each pattern reads its own root. A failing copy's tuple
    stands for every instance (pattern, values) in the product of its
    index lists. instances_checked is the sum over patterns of the
    product of their domain sizes.
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
    n, masks_of = len(formulas), formulas.program
    patterns, vars_of = _patterns(system, ws), _vars_of(bounds)
    groups = _fuse(patterns)
    checked = sum(
        math.prod(bounds.vars_per_agent if name == "p" else n for name in names)
        for *_, names in patterns
    )
    violations, visited = [], 0
    for _, _, _, frame in _lanes(cls, bounds, seed):
        letters = _groups(evaluate(masks_of, frame))
        own = [_groups(frame.atoms.get(p, 0) for p in agent_vars) for agent_vars in vars_of]
        size, full, failures = frame.size, frame.full, []
        for j, domains, offset, count, root in _instance_masks(groups, frame, letters, own):
            bad = root ^ (1 << count * size) - 1
            while bad:  # the failing copies, lowest first
                c = ((bad & -bad).bit_length() - 1) // size
                fails = list(frame.failures(full ^ (bad >> c * size & full)))
                bad &= ~(full << c * size)
                indices = (values for _, values in _unrank(domains, offset + c))
                for values in itertools.product(*indices):
                    failures.extend((k, j, values, i) for k, i in fails)
        # (lane, pattern index, values, edge) sorts into (model, instance) order
        for k, j, values, i in sorted(failures):
            violations.append(
                {
                    "scheme": patterns[j][0].value,
                    "instance": render_formula(instance_formula(patterns[j], values, formulas), ws),
                    "model_index": visited + k + 1,
                    "edge": _edge_name(i),
                }
            )
        visited += frame.width
    elapsed = time.perf_counter() - start
    return SoundnessReport(system, cls, violations, visited, checked, elapsed)
