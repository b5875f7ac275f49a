"""Doxastic Kripke models: bit-row relations, class checks and satisfaction.

Knowledge is never stored as its own relation. It is always interpreted
through the equivalence generated by the belief relation (the
reflexive-transitive closure of its symmetric closure), which on the model
classes used here determines the knowledge relation uniquely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FragmentError, PreconditionError, ValidationError
from .formula import Believes, Formula, f_iff, f_imp
from .kernel import BELIEF, KNOWLEDGE, Frame, bits, fragment_check, sat_mask
from .workspace import Workspace


@dataclass(frozen=True)
class Relation:
    """Binary relation over world indices 0..size-1 as bit rows: bit v
    of rows[u] is set iff u relates to v."""

    size: int
    rows: tuple

    @classmethod
    def from_pairs(cls, size: int, pairs) -> "Relation":
        rows = [0] * size
        for u, v in pairs:
            u, v = int(u), int(v)
            if not (0 <= u < size and 0 <= v < size):
                raise ValidationError([f"relation pair ({u},{v}) out of bounds for size {size}"])
            rows[u] |= 1 << v
        return cls(size, tuple(rows))

    @property
    def pairs(self) -> frozenset:
        return frozenset((u, v) for u, row in enumerate(self.rows) for v in bits(row))


def equivalence_classes(r: Relation) -> list:
    """Classes of the smallest equivalence containing r, via union-find;
    each a sorted list of indices, ordered by least member."""
    parent = list(range(r.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, row in enumerate(r.rows):
        for v in bits(row):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
    members: dict[int, list[int]] = {}
    for u in range(r.size):
        members.setdefault(find(u), []).append(u)
    return list(members.values())


def generated_equivalence(r: Relation) -> Relation:
    """Smallest equivalence containing r: each world's row is its class."""
    rows = [0] * r.size
    for group in equivalence_classes(r):
        mask = sum(1 << u for u in group)
        for u in group:
            rows[u] = mask
    return Relation(r.size, tuple(rows))


@dataclass(frozen=True)
class RelationProperties:
    serial: bool
    transitive: bool
    euclidean: bool
    reflexive: bool
    symmetric: bool

    def to_json(self) -> dict:
        return {
            "serial": self.serial,
            "transitive": self.transitive,
            "euclidean": self.euclidean,
            "reflexive": self.reflexive,
            "symmetric": self.symmetric,
        }


def relation_properties(r: Relation) -> RelationProperties:
    """The five properties read off the rows: along each arrow u -> v,
    transitivity needs rows[v] within rows[u], Euclideanness rows[u]
    within rows[v], and symmetry bit u of rows[v]."""
    rows = r.rows
    arrows = [(u, row, rows[v]) for u, row in enumerate(rows) for v in bits(row)]
    serial = all(rows)
    transitive = all(succ & ~row == 0 for _, row, succ in arrows)
    euclidean = all(row & ~succ == 0 for _, row, succ in arrows)
    reflexive = all(row >> u & 1 for u, row in enumerate(rows))
    symmetric = all(succ >> u & 1 for u, _, succ in arrows)
    return RelationProperties(serial, transitive, euclidean, reflexive, symmetric)


class KripkeModel:
    """Finite doxastic Kripke model over a workspace.

    Treat instances as immutable after construction.
    """

    def __init__(self, workspace: Workspace, worlds, belief, valuation):
        self.workspace = workspace
        self.worlds = tuple(worlds)
        violations = []
        if not self.worlds:
            violations.append("model has no worlds")
        if len(set(self.worlds)) != len(self.worlds):
            violations.append("world names must be unique")
        n = workspace.n_agents
        size = len(self.worlds)
        rels = []
        for a in range(n):
            r = belief.get(a, Relation(size, (0,) * size))
            if r.size != size:
                violations.append(f"relation for agent {workspace.agents[a]} has wrong size")
            rels.append(r)
        extra = set(belief) - set(range(n))
        if extra:
            violations.append(f"belief relations for unknown agent indices: {sorted(extra)}")
        self.belief = tuple(rels)
        vals = [frozenset(v) for v in valuation]
        if len(vals) != size:
            violations.append("valuation must assign one atom set per world")
        for i, atoms in enumerate(vals):
            for p in atoms:
                if not (0 <= p.owner < n and 0 <= p.index < len(workspace.vars[p.owner])):
                    violations.append(f"world {self.worlds[i] if i < size else i}: unknown atom {p}")
        self.valuation = tuple(vals)
        if violations:
            raise ValidationError(violations)
        self._world_index = {w: i for i, w in enumerate(self.worlds)}

    @property
    def n_worlds(self) -> int:
        return len(self.worlds)

    def world_index(self, name: str) -> int:
        try:
            return self._world_index[name]
        except KeyError:
            raise ValidationError([f"unknown world {name!r}"]) from None

    def frame(self) -> Frame:
        """The model as a kernel frame: per agent, one belief block
        (world, successors) per world with successors and one knowledge
        block (class, class) per equivalence class."""
        frame = Frame(self.n_worlds)
        atoms = frame.atoms
        for u, vals in enumerate(self.valuation):
            for p in vals:
                atoms[p] = atoms.get(p, 0) | 1 << u
        for a, rel in enumerate(self.belief):
            frame.blocks[(a, BELIEF)] = [(1 << u, row) for u, row in enumerate(rel.rows) if row]
            classes = (sum(1 << u for u in group) for group in equivalence_classes(rel))
            frame.blocks[(a, KNOWLEDGE)] = [(c, c) for c in classes]
        return frame

    def sat_mask(self, f: Formula) -> int:
        """Bitmask of worlds satisfying f (bit i = world i)."""
        return sat_mask(self.frame(), f)


def satisfies_k(m: KripkeModel, world, f: Formula) -> bool:
    """Satisfaction at a world; world may be an index or a world name."""
    w = m.world_index(world) if isinstance(world, str) else world
    if not 0 <= w < m.n_worlds:
        raise PreconditionError(f"world index {w} out of bounds")
    return bool(m.sat_mask(f) >> w & 1)


@dataclass
class KripkeClassReport:
    local: bool
    proper: bool
    serial: bool
    transitive: bool
    euclidean: bool
    per_agent: dict
    in_k_te: bool
    in_k_ste: bool
    witnesses: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": "kripke",
            "local": self.local,
            "proper": self.proper,
            "serial": self.serial,
            "transitive": self.transitive,
            "euclidean": self.euclidean,
            "per_agent": {a: p.to_json() for a, p in self.per_agent.items()},
            "in_K_te": self.in_k_te,
            "in_K_ste": self.in_k_ste,
            "witnesses": dict(sorted(self.witnesses.items())),
        }


def model_properties(m: KripkeModel) -> KripkeClassReport:
    ws = m.workspace
    witnesses: dict[str, str] = {}

    own = [frozenset(ws.vars_of(a)) for a in range(ws.n_agents)]
    clashes = (
        (a, min(u, v), max(u, v))
        for a, r in enumerate(m.belief)
        for u, row in enumerate(r.rows)
        for v in bits(row)
        if m.valuation[u] & own[a] != m.valuation[v] & own[a]
    )
    clash = min(clashes, default=None)
    local = clash is None
    if clash is not None:
        a, u, v = clash
        witnesses["local"] = (
            f"agent {ws.agents[a]} relates {m.worlds[u]} and {m.worlds[v]} "
            f"but they disagree on {ws.agents[a]}'s variables"
        )

    classes = [generated_equivalence(r).rows for r in m.belief]
    pairs = ((u, v) for u in range(m.n_worlds) for v in range(u + 1, m.n_worlds))
    twin = next(((u, v) for u, v in pairs if all(c[u] >> v & 1 for c in classes)), None)
    proper = twin is None
    if twin is not None:
        u, v = twin
        witnesses["proper"] = f"no agent distinguishes {m.worlds[u]} from {m.worlds[v]}"

    per_agent = {}
    for a in range(ws.n_agents):
        per_agent[ws.agents[a]] = relation_properties(m.belief[a])
    serial = all(p.serial for p in per_agent.values())
    transitive = all(p.transitive for p in per_agent.values())
    euclidean = all(p.euclidean for p in per_agent.values())
    in_k_te = local and proper and transitive and euclidean
    in_k_ste = in_k_te and serial
    return KripkeClassReport(
        local, proper, serial, transitive, euclidean, per_agent, in_k_te, in_k_ste, witnesses
    )


def check_local_veracity(m: KripkeModel, agent: int, f: Formula) -> bool:
    """Whether f -> B_a f is valid in m (f <-> B_a f when m is serial).

    Preconditions: f must be an a-formula for the given agent and m must
    be local. Violations raise instead of returning False.
    """
    info = fragment_check(f)
    if agent not in info.agent_formula_for:
        raise FragmentError(
            f"formula is not an {m.workspace.agents[agent]}-formula"
        )
    props = model_properties(m)
    if not props.local:
        raise PreconditionError("model is not local: " + props.witnesses.get("local", ""))
    if props.serial:
        goal = f_iff(f, Believes(agent, f))
    else:
        goal = f_imp(f, Believes(agent, f))
    return m.sat_mask(goal) == (1 << m.n_worlds) - 1
