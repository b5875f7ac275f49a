"""Bounded model enumeration, countermodel search and soundness suites.

Models are enumerated in a canonical form (vertices within each color
ordered by their edge-membership signature, taking the least structure
under color-preserving vertex renamings), so isomorphic duplicates never
appear. An exhausted search means "no countermodel within bounds" and
never claims validity.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .convert import enumerate_formulas
from .errors import FragmentError, PreconditionError
from .formula import Formula, fragment_check, render_formula
from .hypergraph import DirectedEdge, HypergraphModel, Vertex, frame_h
from .kernel import compile_formulas, evaluate
from .proofcheck import ADMITTED, SCHEME_ARITY, SchemeId, System, instantiate_scheme
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
# 1 + 2v = vertex v in the tail, 2 + 2v = vertex v in the head.


def _code_tail(code: int) -> bool:
    return code % 2 == 1


def _code_vertex(code: int) -> int:
    return (code - 1) // 2


def _remap(code: int, perm) -> int:
    if code == 0:
        return 0
    return 1 + 2 * perm[_code_vertex(code)] + (0 if _code_tail(code) else 1)


def _used_counts(structure, n_agents: int):
    used = [set() for _ in range(n_agents)]
    for edge in structure:
        for a, code in enumerate(edge):
            if code:
                used[a].add(_code_vertex(code))
    return used


def _is_canonical(structure, counts) -> bool:
    perm_sets = [list(itertools.permutations(range(k))) for k in counts]
    for combo in itertools.product(*perm_sets):
        remapped = tuple(
            sorted(
                tuple(_remap(code, combo[a]) for a, code in enumerate(edge))
                for edge in structure
            )
        )
        if remapped < structure:
            return False
    return True


def _structure_in_class(structure, n_agents: int, cls: str) -> bool:
    if cls == "all":
        return True
    spans = [
        frozenset((a, _code_vertex(c)) for a, c in enumerate(edge) if c)
        for edge in structure
    ]
    if any(len(s) != n_agents for s in spans):
        return False
    for i, si in enumerate(spans):
        for j, sj in enumerate(spans):
            if i != j and si <= sj:
                return False
    if cls == "H_sut":
        tails = {
            (a, _code_vertex(c))
            for edge in structure
            for a, c in enumerate(edge)
            if c and _code_tail(c)
        }
        used = set().union(*spans) if spans else set()
        if used - tails:
            return False
    return True


def _structures(bounds: SearchBounds, cls: str) -> Iterator[tuple]:
    n = bounds.n_agents
    cap = bounds.vertex_cap
    descriptors = sorted(itertools.product(range(2 * cap + 1), repeat=n))
    for m in range(1, bounds.max_edges + 1):
        for combo in itertools.combinations(descriptors, m):
            structure = tuple(sorted(combo))
            used = _used_counts(structure, n)
            if not any(used):
                continue  # no vertices at all
            if any(u and max(u) + 1 != len(u) for u in used):
                continue  # vertex indices must be contiguous from 0
            counts = [len(u) for u in used]
            if not _is_canonical(structure, counts):
                continue
            if not _structure_in_class(structure, n, cls):
                continue
            yield structure


def _subsets(items):
    for mask in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if mask >> i & 1)


def _build_model(ws: Workspace, structure, placement) -> HypergraphModel:
    vertices = [Vertex(vid, a, atoms) for (vid, a), atoms in placement]
    edges = []
    for i, edge in enumerate(structure):
        tail, head = set(), set()
        for a, code in enumerate(edge):
            if code:
                vid = f"{ws.agents[a]}{_code_vertex(code) + 1}"
                (tail if _code_tail(code) else head).add(vid)
        edges.append(DirectedEdge(f"e{i + 1}", frozenset(tail), frozenset(head)))
    return HypergraphModel(ws, vertices, edges)


_SAMPLED_PLACEMENTS = 32


def enumerate_models(cls: str, bounds: SearchBounds, seed: int = 0) -> Iterator[HypergraphModel]:
    """Deterministic stream of validated models of the requested class.

    Atom placements are exhaustive for vars_per_agent <= 2; beyond that a
    fixed-seed sample of placements replaces exhaustion.
    """
    if cls not in CLASSES:
        raise PreconditionError(f"unknown class {cls!r}; expected one of {CLASSES}")
    ws = bounds.workspace()
    for structure in _structures(bounds, cls):
        used = _used_counts(structure, bounds.n_agents)
        slots = [
            (f"{ws.agents[a]}{v + 1}", a)
            for a in range(bounds.n_agents)
            for v in sorted(used[a])
        ]
        if bounds.vars_per_agent <= 2:
            choice_lists = [list(_subsets(ws.vars_of(a))) for _, a in slots]
            for assignment in itertools.product(*choice_lists):
                yield _build_model(ws, structure, list(zip(slots, assignment)))
        else:
            rng = random.Random((seed, structure).__repr__())
            seen = set()
            for _ in range(_SAMPLED_PLACEMENTS):
                assignment = tuple(
                    frozenset(p for p in ws.vars_of(a) if rng.random() < 0.5)
                    for _, a in slots
                )
                if assignment in seen:
                    continue
                seen.add(assignment)
                yield _build_model(ws, structure, list(zip(slots, assignment)))


@dataclass
class SearchResult:
    outcome: str  # "countermodel" | "exhausted"
    models_visited: int
    elapsed: float
    model: Optional[HypergraphModel] = None
    edge: Optional[str] = None

    def to_json(self) -> dict:
        out = {
            "outcome": self.outcome,
            "models_visited": self.models_visited,
            "elapsed_ms": round(self.elapsed * 1000, 3),
        }
        if self.model is not None:
            from .modelio import hypergraph_to_json

            out["model"] = hypergraph_to_json(self.model)
            out["edge"] = self.edge
        return out


def _require_fragment(cls: str, f: Formula):
    if cls == "H_su" and not fragment_check(f).in_doxastic_fragment:
        raise FragmentError(
            "knowledge modalities are only admitted over the tail-complete class"
        )


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
    witness. Models are evaluated one at a time, since a witness usually
    comes within the first few. `workers` is accepted for compatibility;
    the stream is evaluated serially whatever its value.
    """
    _require_fragment(cls, f)
    start = time.perf_counter()
    prog = compile_formulas([f])
    visited = 0
    for model in enumerate_models(cls, bounds, seed):
        visited += 1
        frame = frame_h([model])
        failure = next(frame.failures(evaluate(prog, frame)[0]), None)
        if failure is not None:
            edge = model.edges[failure[1]].name
            return SearchResult(
                "countermodel", visited, time.perf_counter() - start, model, edge
            )
    return SearchResult("exhausted", visited, time.perf_counter() - start)


# Models per union frame in soundness_suite: one program run covers a
# whole chunk (modal truth is invariant under disjoint union).
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
        }


def scheme_instances(
    system: System, ws: Workspace, instantiation_depth: int, instantiation_size: int = 3
):
    """All (scheme, instance formula) pairs for the system's schemes,
    instantiated with every enumerated formula within the given bounds
    (atoms of the right owner for Loc)."""
    formulas = list(
        enumerate_formulas(
            ws.all_vars(), range(ws.n_agents), instantiation_depth, instantiation_size
        )
    )
    out = []
    for scheme in SchemeId:
        if scheme not in ADMITTED[system]:
            continue
        arity = SCHEME_ARITY[scheme]
        for agent in range(ws.n_agents):
            if arity == "atom":
                for p in ws.vars_of(agent):
                    out.append((scheme, instantiate_scheme(scheme, agent, p=p)))
            elif arity == "two":
                for phi in formulas:
                    for psi in formulas:
                        out.append(
                            (scheme, instantiate_scheme(scheme, agent, phi=phi, psi=psi))
                        )
            else:
                for phi in formulas:
                    out.append((scheme, instantiate_scheme(scheme, agent, phi=phi)))
    return out


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
    """
    if SYSTEM_CLASS[system] != cls:
        raise PreconditionError(
            f"{system.value} is checked over {SYSTEM_CLASS[system]}, not {cls}"
        )
    start = time.perf_counter()
    ws = bounds.workspace()
    instances = scheme_instances(system, ws, instantiation_depth, instantiation_size)
    prog = compile_formulas(inst for _, inst in instances)
    violations = []
    visited = 0
    stream = enumerate_models(cls, bounds, seed)
    while True:
        chunk = list(itertools.islice(stream, _CHUNK))
        if not chunk:
            break
        frame = frame_h(chunk)
        masks = evaluate(prog, frame)
        # (model k, instance j, first failing edge i), in (model, instance) order
        failures = sorted((k, j, i) for j, m in enumerate(masks) for k, i in frame.failures(m))
        for k, j, i in failures:
            scheme, inst = instances[j]
            violations.append(
                {
                    "scheme": scheme.value,
                    "instance": render_formula(inst, ws),
                    "model_index": visited + k + 1,
                    "edge": chunk[k].edges[i].name,
                }
            )
        visited += len(chunk)
    elapsed = time.perf_counter() - start
    return SoundnessReport(system, cls, violations, visited, len(instances), elapsed)
