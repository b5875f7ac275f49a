"""Seeded input generation for the benchmark, independent of the package.

Nothing here imports hyperdox: formulas, models and proofs are built on
the benchmark's own representations and written out as text or JSON, so
a change under src/ can never change what a workload runs.

Formulas are tuples over the core connectives, mirroring the desugared
AST the parser produces:

    ("p", name)  ("~", f)  ("&", f, g)  ("B", agent, f)  ("K", agent, f)
"""

from __future__ import annotations

import json
import os
import random

# -- formulas ---------------------------------------------------------------


def atom(name):
    return ("p", name)


def neg(f):
    return ("~", f)


def conj(f, g):
    return ("&", f, g)


def imp(f, g):
    # the parser desugars x -> y into ~(~~x & ~y)
    return neg(conj(neg(neg(f)), neg(g)))


def conj_all(fs):
    out = fs[0]
    for f in fs[1:]:
        out = conj(out, f)
    return out


def render(f) -> str:
    """Formula text that parses back to exactly this tree."""
    tag = f[0]
    if tag == "p":
        return f[1]
    if tag in ("B", "K"):
        return f"{tag}{{{f[1]}}}" + render(f[2])
    if tag == "&":
        return f"({render(f[1])} & {render(f[2])})"
    sub = f[1]
    if sub[0] == "&" and sub[1][0] == "~" and sub[2][0] == "~":
        left, right = sub[1][1], sub[2][1]
        if left[0] == "~":
            return f"({render(left[1])} -> {render(right)})"
        return f"({render(left)} | {render(right)})"
    return "~" + render(sub)


def letters(f, out=None) -> set:
    """Atoms and maximal modal subformulas: the propositional letters a
    tautology check abstracts f into."""
    out = set() if out is None else out
    if f[0] in ("p", "B", "K"):
        out.add(f)
    elif f[0] == "~":
        letters(f[1], out)
    else:
        letters(f[1], out)
        letters(f[2], out)
    return out


def random_formula(rng, atoms, agents, depth, size, modal_ops=("B", "K")):
    """Random core formula with at most `size` nodes and modal depth <= depth."""
    if size <= 1 or rng.random() < 0.2:
        return atom(rng.choice(atoms))
    r = rng.random()
    if depth > 0 and r < 0.45:
        op = rng.choice(modal_ops)
        return (op, rng.choice(agents), random_formula(rng, atoms, agents, depth - 1, size - 1, modal_ops))
    if r < 0.65 or size < 3:
        return neg(random_formula(rng, atoms, agents, depth, size - 1, modal_ops))
    left = rng.randint(1, size - 2)
    return conj(
        random_formula(rng, atoms, agents, depth, left, modal_ops),
        random_formula(rng, atoms, agents, depth, size - 1 - left, modal_ops),
    )


# -- hypergraph models --------------------------------------------------------
# A model is {"agents", "vars", "vertices": {id: (agent, frozenset atoms)},
# "edges": [(name, frozenset tail, frozenset head)]}.


def h_model(agents, vars_, vertices, edges):
    return {
        "agents": list(agents),
        "vars": {a: list(vs) for a, vs in vars_.items()},
        "vertices": {vid: (agent, frozenset(atoms)) for vid, agent, atoms in vertices},
        "edges": [(name, frozenset(tail), frozenset(head)) for name, tail, head in edges],
    }


def h_eval(m, i, f) -> bool:
    """Plain recursive satisfaction at edge i, straight from the definition."""
    tag = f[0]
    edges, vertices = m["edges"], m["vertices"]
    span = edges[i][1] | edges[i][2]
    if tag == "p":
        return any(f[1] in vertices[v][1] for v in span)
    if tag == "~":
        return not h_eval(m, i, f[1])
    if tag == "&":
        return h_eval(m, i, f[1]) and h_eval(m, i, f[2])
    mine = {v for v in span if vertices[v][0] == f[1]}
    for j, (_, tail, head) in enumerate(edges):
        region = tail if tag == "B" else tail | head
        if mine & region and not h_eval(m, j, f[2]):
            return False
    return True


def h_sut_facts(m) -> dict:
    """n-uniformity, simplicity and tail-completeness of a model."""
    n = len(m["agents"])
    spans = [tail | head for _, tail, head in m["edges"]]
    uniform = all(len({m["vertices"][v][0] for v in s}) == len(s) == n for s in spans)
    simple = not any(
        i != j and si <= sj for i, si in enumerate(spans) for j, sj in enumerate(spans)
    )
    tails = set().union(*(tail for _, tail, _ in m["edges"]))
    return {"uniform": uniform, "simple": simple, "tail_complete": set(m["vertices"]) <= tails}


def random_h_sut(rng, agents, vars_, n_edges):
    """Random model of H_sut with n_edges edges: n-uniform, simple and
    tail-complete, with one to three vertices per agent."""
    while True:
        pools = {a: [f"{a}{k + 1}" for k in range(rng.randint(1, 3))] for a in agents}
        n_spans = 1
        for pool in pools.values():
            n_spans *= len(pool)
        if n_spans >= n_edges:
            break
    spans = set()
    while len(spans) < n_edges:
        spans.add(tuple(rng.choice(pools[a]) for a in agents))
    spans = sorted(spans)
    in_tail = [[rng.random() < 0.5 for _ in agents] for _ in spans]
    for vid in sorted({v for s in spans for v in s}):
        if not any(in_tail[e][k] for e, s in enumerate(spans) for k, v in enumerate(s) if v == vid):
            e = rng.choice([e for e, s in enumerate(spans) if vid in s])
            in_tail[e][spans[e].index(vid)] = True
    used = sorted({(v, k) for s in spans for k, v in enumerate(s)})
    vertices = [
        (vid, agents[k], {p for p in vars_[agents[k]] if rng.random() < 0.5})
        for vid, k in used
    ]
    edges = []
    for e, s in enumerate(spans):
        tail = {v for k, v in enumerate(s) if in_tail[e][k]}
        edges.append((f"e{e + 1}", tail, set(s) - tail))
    return h_model(agents, vars_, vertices, edges)


def h_to_json(m) -> dict:
    return {
        "kind": "hypergraph",
        "agents": m["agents"],
        "vars": m["vars"],
        "vertices": [
            {"id": vid, "color": agent, "atoms": sorted(atoms)}
            for vid, (agent, atoms) in m["vertices"].items()
        ],
        "edges": [
            {"name": name, "tail": sorted(tail), "head": sorted(head)}
            for name, tail, head in m["edges"]
        ],
    }


# -- Kripke models --------------------------------------------------------------
# A model is {"agents", "vars", "worlds": [...], "classes": {agent: [[w..]..]},
# "believed": {agent: [[w..]..]} (one nonempty subset per class),
# "valuation": {w: set}}. Every agent's belief sends each world of a class to
# every world of that class's believed subset, which is serial, transitive
# and Euclidean; valuations are constant on classes, which is locality.


def random_k_ste(rng, agents, vars_, n_worlds):
    """Random local, proper, serial, transitive and Euclidean Kripke model."""
    worlds = [f"w{i + 1}" for i in range(n_worlds)]
    label = {a: [rng.randrange(3) for _ in worlds] for a in agents}
    # properness: every pair of worlds is told apart by some agent
    for u in range(len(worlds)):
        for v in range(u + 1, len(worlds)):
            if all(label[a][u] == label[a][v] for a in agents):
                label[rng.choice(agents)][v] = 3 + v
    classes, believed, valuation = {}, {}, {w: set() for w in worlds}
    for a in agents:
        groups = {}
        for i, w in enumerate(worlds):
            groups.setdefault(label[a][i], []).append(w)
        classes[a] = [groups[k] for k in sorted(groups)]
        believed[a] = []
        for group in classes[a]:
            believed[a].append([w for w in group if rng.random() < 0.5] or [rng.choice(group)])
            atoms = {p for p in vars_[a] if rng.random() < 0.5}
            for w in group:
                valuation[w] |= atoms
    return {
        "agents": list(agents),
        "vars": {a: list(vs) for a, vs in vars_.items()},
        "worlds": worlds,
        "classes": classes,
        "believed": believed,
        "valuation": valuation,
    }


def k_to_json(m) -> dict:
    belief = {}
    for a in m["agents"]:
        pairs = []
        for group, seen in zip(m["classes"][a], m["believed"][a]):
            pairs.extend([u, v] for u in group for v in seen)
        belief[a] = sorted(pairs)
    return {
        "kind": "kripke",
        "agents": m["agents"],
        "vars": m["vars"],
        "worlds": m["worlds"],
        "belief": belief,
        "valuation": {w: sorted(m["valuation"][w]) for w in m["worlds"]},
    }


def k_to_h(m):
    """The paper's k2h construction on a K_ste model: one vertex per class,
    one edge per world, a class in the tail when the world believes itself
    possible. Returns (hypergraph, world -> edge map)."""
    vertex_of, vertices = {}, []
    for a in m["agents"]:
        for c, group in enumerate(m["classes"][a]):
            vid = f"{a}{c + 1}"
            atoms = m["valuation"][group[0]] & set(m["vars"][a])
            vertices.append((vid, a, atoms))
            for w in group:
                vertex_of[a, w] = vid
    self_loop = {
        (a, w) for a in m["agents"] for seen in m["believed"][a] for w in seen
    }
    edges, mapping = [], {}
    for i, w in enumerate(m["worlds"]):
        tail = {vertex_of[a, w] for a in m["agents"] if (a, w) in self_loop}
        head = {vertex_of[a, w] for a in m["agents"]} - tail
        edges.append((f"e{i + 1}", tail, head))
        mapping[w] = f"e{i + 1}"
    return h_model(m["agents"], m["vars"], vertices, edges), mapping


def h_to_k_json(m) -> dict:
    """The paper's h2k construction: edges become worlds, doxastic
    accessibility becomes belief, an edge's atoms its world's valuation."""
    names = [name for name, _, _ in m["edges"]]
    belief = {}
    for a in m["agents"]:
        pairs = []
        for name_i, tail_i, head_i in m["edges"]:
            mine = {v for v in tail_i | head_i if m["vertices"][v][0] == a}
            pairs.extend([name_i, name_j] for name_j, tail_j, _ in m["edges"] if mine & tail_j)
        belief[a] = sorted(pairs)
    valuation = {}
    for name, tail, head in m["edges"]:
        valuation[name] = sorted(set().union(*(m["vertices"][v][1] for v in tail | head)))
    return {
        "kind": "kripke",
        "agents": m["agents"],
        "vars": m["vars"],
        "worlds": names,
        "belief": belief,
        "valuation": valuation,
    }


# -- proofs ----------------------------------------------------------------------

SYSTEM_SCHEMES = {
    "EDL": ("K_B", "K_K", "D_B", "4_B", "5_B", "T_K", "4_K", "5_K", "SPI", "SNI", "K_IB", "Loc"),
    "LocKD45": ("K_B", "D_B", "4_B", "5_B", "Loc"),
    "LocK45": ("K_B", "4_B", "5_B", "Loc"),
}


def scheme_instance(scheme, a, phi, psi, p):
    """The paper's axiom schemes, instantiated for agent a."""
    def B(f):
        return ("B", a, f)

    def K(f):
        return ("K", a, f)

    return {
        "K_B": lambda: imp(B(imp(phi, psi)), imp(B(phi), B(psi))),
        "K_K": lambda: imp(K(imp(phi, psi)), imp(K(phi), K(psi))),
        "D_B": lambda: neg(B(conj(phi, neg(phi)))),
        "4_B": lambda: imp(B(phi), B(B(phi))),
        "5_B": lambda: imp(neg(B(phi)), B(neg(B(phi)))),
        "T_K": lambda: imp(K(phi), phi),
        "4_K": lambda: imp(K(phi), K(K(phi))),
        "5_K": lambda: imp(neg(K(phi)), K(neg(K(phi)))),
        "SPI": lambda: imp(B(phi), K(B(phi))),
        "SNI": lambda: imp(neg(B(phi)), K(neg(B(phi)))),
        "K_IB": lambda: imp(K(phi), B(phi)),
        "Loc": lambda: conj(imp(atom(p), B(atom(p))), imp(neg(atom(p)), B(neg(atom(p))))),
    }[scheme]()


MUTATIONS = ("relabel", "swap_mp", "not_tautology", "wrong_rule", "altered_mp")


def _distinct_letters(rng, k, atoms, agents, modal_ops):
    out, seen = [], set()
    while len(out) < k:
        if rng.random() < 0.3:
            f = atom(rng.choice(atoms))
        else:
            f = (rng.choice(modal_ops), rng.choice(agents),
                 random_formula(rng, atoms, agents, 1, 3, modal_ops))
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def random_proof(rng, agents, vars_, system, n_letters, mutation=None):
    """A seven-step proof in `system`, optionally broken by one mutation.

    Steps: two axiom instances A1, A2; the tautology A1 -> (A2 -> A1 & A2);
    two modus ponens steps deriving A1 & A2; a hypothetical-syllogism
    tautology over `n_letters` distinct letters; necessitation of step 5.
    Returns (proof JSON, expected verdict, expected failing step or None,
    letter counts of the tautology steps).
    """
    atoms = [p for a in agents for p in vars_[a]]
    modal_ops = ("B", "K") if system == "EDL" else ("B",)
    schemes = SYSTEM_SCHEMES[system]
    a = rng.choice(agents)

    def instance(scheme):
        phi = random_formula(rng, atoms, agents, 1, 4, modal_ops)
        psi = random_formula(rng, atoms, agents, 1, 4, modal_ops)
        return scheme_instance(scheme, a, phi, psi, rng.choice(vars_[a]))

    s1, s2 = rng.sample(schemes, 2)
    a1, a2 = instance(s1), instance(s2)
    both = conj(a1, a2)
    ms = _distinct_letters(rng, n_letters, atoms, agents, modal_ops)
    chain = conj_all([imp(ms[i], ms[i + 1]) for i in range(n_letters - 1)])
    b = rng.choice(agents)
    nec_op, nec_key = ("K", "nec_k") if system == "EDL" else ("B", "nec_b")
    steps = [
        [a1, {"axiom": s1}],
        [a2, {"axiom": s2}],
        [imp(a1, imp(a2, both)), {"tautology": True}],
        [imp(a2, both), {"mp": [1, 3]}],
        [both, {"mp": [2, 4]}],
        [imp(chain, imp(ms[0], ms[-1])), {"tautology": True}],
        [(nec_op, b, both), {nec_key: {"agent": b, "from": 5}}],
    ]
    bad_step = None
    if mutation == "relabel":
        bad_step = rng.choice([1, 2])
        scheme = steps[bad_step - 1][1]["axiom"]
        steps[bad_step - 1][1] = {"axiom": "K_B" if scheme == "Loc" else "Loc"}
    elif mutation == "swap_mp":
        bad_step = rng.choice([4, 5])
        steps[bad_step - 1][1] = {"mp": [bad_step - 1, bad_step - 3]}
    elif mutation == "not_tautology":
        bad_step = 6
        steps[5][0] = imp(chain, imp(ms[-1], ms[0]))
    elif mutation == "wrong_rule":
        bad_step = 7
        op, key = ("B", "nec_b") if system == "EDL" else ("K", "nec_k")
        steps[6] = [(op, b, both), {key: {"agent": b, "from": 5}}]
    elif mutation == "altered_mp":
        bad_step = 5
        steps[4][0] = conj(a2, a1)
    taut_letters = [len(letters(f)) for f, by in steps if "tautology" in by]
    proof = {
        "system": system,
        "agents": list(agents),
        "vars": {x: list(vars_[x]) for x in agents},
        "steps": [{"formula": render(f), "by": by} for f, by in steps],
    }
    return proof, bad_step is None, bad_step, taut_letters


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def digest_update(h, path):
    with open(path, "rb") as fh:
        h.update(os.path.basename(path).encode() + b"\0" + fh.read())


def rng_for(*key) -> random.Random:
    return random.Random(repr(key))
