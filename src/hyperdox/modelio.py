"""JSON file formats for models, proofs and conversion certificates.

Every file embeds its own workspace block (agents and per-agent
variables), so fixtures are self-contained; commands combining files
require the blocks to be identical. Unknown keys are rejected.
"""

from __future__ import annotations

import json

from .errors import InputError, ValidationError, WorkspaceError
from .formula import parse_formula
from .hypergraph import DirectedEdge, HypergraphModel, Vertex, validate_model
from .kripke import KripkeModel, Relation
from .proofcheck import (
    MP,
    Axiom,
    NecB,
    NecK,
    ProofStep,
    SchemeId,
    System,
    Tautology,
)
from .workspace import Workspace


def _check_keys(obj: dict, allowed, what: str):
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise InputError(f"{what}: unknown keys {sorted(unknown)}")


def _names(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise InputError(f"{what} must be a list of names")
    return value


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
            raise InputError(f"{path}: malformed JSON: {exc}") from None


def _workspace_from(data: dict) -> Workspace:
    try:
        return Workspace.from_json(data)
    except WorkspaceError as exc:
        raise InputError(str(exc)) from None


def kripke_from_json(data: dict) -> KripkeModel:
    _check_keys(data, {"kind", "agents", "vars", "worlds", "belief", "valuation"}, "kripke model")
    ws = _workspace_from(data)
    worlds = _names(data.get("worlds"), "'worlds'")
    index = {w: i for i, w in enumerate(worlds)}
    belief_block = data.get("belief", {})
    if not isinstance(belief_block, dict):
        raise InputError("'belief' must map agent names to pair lists")
    unknown_agents = set(belief_block) - set(ws.agents)
    if unknown_agents:
        raise InputError(f"belief relations for undeclared agents: {sorted(unknown_agents)}")
    belief = {}
    for a_name, pairs in belief_block.items():
        a = ws.agent_index(a_name)
        if not isinstance(pairs, list):
            raise InputError(f"belief for {a_name} must be a list of pairs")
        rel_pairs = []
        for pair in pairs:
            if len(_names(pair, f"belief for {a_name}: each pair")) != 2:
                raise InputError(f"belief for {a_name}: pairs must be [from, to] lists")
            u, v = pair
            if u not in index or v not in index:
                raise InputError(f"belief for {a_name}: unknown world in pair {pair}")
            rel_pairs.append((index[u], index[v]))
        belief[a] = Relation.from_pairs(len(worlds), rel_pairs)
    valuation_block = data.get("valuation", {})
    if not isinstance(valuation_block, dict):
        raise InputError("'valuation' must map world names to atom lists")
    unknown_worlds = set(valuation_block) - set(worlds)
    if unknown_worlds:
        raise InputError(f"valuation for unknown worlds: {sorted(unknown_worlds)}")
    valuation = [set() for _ in worlds]
    for w, atoms in valuation_block.items():
        for name in _names(atoms, f"valuation for {w}"):
            try:
                valuation[index[w]].add(ws.var_by_name(name))
            except WorkspaceError as exc:
                raise InputError(f"valuation for {w}: {exc}") from None
    try:
        return KripkeModel(ws, worlds, belief, valuation)
    except ValidationError as exc:
        raise InputError(str(exc)) from None


def kripke_to_json(m: KripkeModel) -> dict:
    ws = m.workspace
    return {
        "kind": "kripke",
        **ws.to_json(),
        "worlds": list(m.worlds),
        "belief": {
            ws.agents[a]: [
                [m.worlds[u], m.worlds[v]] for u, v in sorted(m.belief[a].pairs)
            ]
            for a in range(ws.n_agents)
        },
        "valuation": {
            w: sorted(ws.var_name(p) for p in m.valuation[i])
            for i, w in enumerate(m.worlds)
        },
    }


def hypergraph_from_json(data: dict) -> HypergraphModel:
    _check_keys(data, {"kind", "agents", "vars", "vertices", "edges"}, "hypergraph model")
    ws = _workspace_from(data)
    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list):
        raise InputError("'vertices' must be a list")
    vertices = []
    for entry in raw_vertices:
        _check_keys(entry, {"id", "color", "atoms"}, f"vertex {len(vertices) + 1}")
        vid = entry.get("id")
        color_name = entry.get("color")
        if not isinstance(vid, str) or not isinstance(color_name, str):
            raise InputError("each vertex needs string 'id' and 'color'")
        try:
            color = ws.agent_index(color_name)
        except WorkspaceError as exc:
            raise InputError(f"vertex {vid}: {exc}") from None
        atoms = set()
        for name in _names(entry.get("atoms", []), f"vertex {vid}: 'atoms'"):
            try:
                atoms.add(ws.var_by_name(name))
            except WorkspaceError as exc:
                raise InputError(f"vertex {vid}: {exc}") from None
        vertices.append(Vertex(vid, color, frozenset(atoms)))
    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list):
        raise InputError("'edges' must be a list")
    edges = []
    for i, entry in enumerate(raw_edges):
        _check_keys(entry, {"tail", "head", "name"}, f"edge {i + 1}")
        name = entry.get("name", f"e{i + 1}")
        if not isinstance(name, str):
            raise InputError(f"edge {i + 1}: 'name' must be a string")
        tail = _names(entry.get("tail", []), f"edge {name}: 'tail'")
        head = _names(entry.get("head", []), f"edge {name}: 'head'")
        edges.append(DirectedEdge(name, frozenset(tail), frozenset(head)))
    try:
        model = HypergraphModel(ws, vertices, edges)
    except ValidationError as exc:
        raise InputError(str(exc)) from None
    violations = validate_model(model)
    if violations:
        raise ValidationError(violations)
    return model


def hypergraph_to_json(m: HypergraphModel) -> dict:
    ws = m.workspace
    return {
        "kind": "hypergraph",
        **ws.to_json(),
        "vertices": [
            {
                "id": v.id,
                "color": ws.agents[v.color],
                "atoms": sorted(ws.var_name(p) for p in v.atoms),
            }
            for v in m.vertices.values()
        ],
        "edges": [
            {"name": e.name, "tail": sorted(e.tail), "head": sorted(e.head)}
            for e in m.edges
        ],
    }


def model_from_json(data) -> KripkeModel | HypergraphModel:
    if not isinstance(data, dict):
        raise InputError("model file must contain a JSON object")
    kind = data.get("kind")
    if kind == "kripke":
        return kripke_from_json(data)
    if kind == "hypergraph":
        return hypergraph_from_json(data)
    raise InputError(f"unknown model kind {kind!r}; expected 'kripke' or 'hypergraph'")


def model_to_json(m: KripkeModel | HypergraphModel) -> dict:
    if isinstance(m, KripkeModel):
        return kripke_to_json(m)
    return hypergraph_to_json(m)


def load_model(path: str) -> KripkeModel | HypergraphModel:
    return model_from_json(_read_json(path))


def save_model(m: KripkeModel | HypergraphModel, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(m), fh, indent=2)
        fh.write("\n")


_JUSTIFICATION_KEYS = {"tautology", "axiom", "mp", "nec_k", "nec_b"}


def _justification_from_json(entry: dict, ws: Workspace, step_no: int):
    _check_keys(entry, _JUSTIFICATION_KEYS, f"step {step_no} justification")
    if len(entry) != 1:
        raise InputError(f"step {step_no}: justification must have exactly one key")
    if "tautology" in entry:
        if entry["tautology"] is not True:
            raise InputError(f"step {step_no}: 'tautology' must be true")
        return Tautology()
    if "axiom" in entry:
        name = entry["axiom"]
        try:
            return Axiom(SchemeId(name))
        except ValueError:
            raise InputError(f"step {step_no}: unknown scheme {name!r}") from None
    if "mp" in entry:
        refs = entry["mp"]
        if not (isinstance(refs, list) and len(refs) == 2 and all(type(r) is int for r in refs)):
            raise InputError(f"step {step_no}: 'mp' must be a pair of step numbers")
        return MP(refs[0], refs[1])
    key = "nec_k" if "nec_k" in entry else "nec_b"
    payload = entry[key]
    if not (isinstance(payload, dict) and set(payload) == {"agent", "from"}):
        raise InputError(f"step {step_no}: '{key}' needs 'agent' and 'from'")
    if not isinstance(payload["agent"], str):
        raise InputError(f"step {step_no}: 'agent' must be an agent name")
    try:
        agent = ws.agent_index(payload["agent"])
    except WorkspaceError as exc:
        raise InputError(f"step {step_no}: {exc}") from None
    if type(payload["from"]) is not int:  # not isinstance: JSON true would pass as 1
        raise InputError(f"step {step_no}: 'from' must be a step number")
    cls = NecK if key == "nec_k" else NecB
    return cls(agent, payload["from"])


def proof_from_json(data: dict):
    """Returns (system, steps, workspace)."""
    if not isinstance(data, dict):
        raise InputError("proof file must contain a JSON object")
    _check_keys(data, {"system", "agents", "vars", "steps"}, "proof")
    try:
        system = System(data.get("system"))
    except ValueError:
        raise InputError(f"unknown system {data.get('system')!r}") from None
    ws = _workspace_from(data)
    raw_steps = data.get("steps")
    if not isinstance(raw_steps, list) or not raw_steps:
        raise InputError("'steps' must be a non-empty list")
    steps = []
    for i, entry in enumerate(raw_steps, start=1):
        _check_keys(entry, {"formula", "by"}, f"step {i}")
        text = entry.get("formula")
        if not isinstance(text, str):
            raise InputError(f"step {i}: 'formula' must be a string")
        formula = parse_formula(text, ws)
        by = entry.get("by")
        if not isinstance(by, dict):
            raise InputError(f"step {i}: 'by' must be an object")
        steps.append(ProofStep(formula, _justification_from_json(by, ws, i)))
    return system, steps, ws


def load_proof(path: str):
    return proof_from_json(_read_json(path))


def load_certificate(path: str) -> dict:
    data = _read_json(path)
    mapping = data.get("map") if isinstance(data, dict) else None
    if not isinstance(mapping, dict) or not all(isinstance(v, str) for v in mapping.values()):
        raise InputError("certificate must be an object whose 'map' maps worlds to edges")
    return mapping


def save_certificate(cert, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cert.to_json(), fh, indent=2)
        fh.write("\n")
