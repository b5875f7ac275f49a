"""Independent reference implementations used only as test oracles.

Everything here deliberately avoids the package's evaluators and caches:
closures are computed by matrix iteration or by search over the pair
list, relation properties from their definitions, satisfaction by plain
recursion that recomputes accessibility at every modal node, tautologies
by a truth table evaluated row by row, fragment membership and modal
depth by walking the formula tree, enumeration counts by brute force
over labeled structures, and the canonical structure stream by filtering
every combination of descriptors. The formula stream and the scheme
instances are built as Formula trees, one constructor call per node.
Atom placements are tuples of atom sets, one per vertex slot. Formula
text is parsed by recursive descent, one method per grammar rule.

The one exception is naive_modal_equivalence, which runs the package's
kernel on both frames as they are and compares them world by world; the
kernel itself is checked against naive_satisfies_k and naive_satisfies_h.
"""

import itertools
import random
import re

from hyperdox.convert import EquivalenceRow, FormulaSlots
from hyperdox.errors import ParseError, WorkspaceError
from hyperdox.formula import And, Atom, Believes, Knows, Not, f_bottom, f_iff, f_imp, f_or, f_top
from hyperdox.hypergraph import frame_h
from hyperdox.kernel import FragmentInfo, compile_formulas, evaluate
from hyperdox.proofcheck import _META, ADMITTED, SCHEMES, SchemeId, instantiate_scheme


def warshall_equivalence(size, pairs):
    """Pairs of the generated equivalence via Floyd-Warshall closure of
    the reflexive-symmetric extension."""
    reach = [[False] * size for _ in range(size)]
    for i in range(size):
        reach[i][i] = True
    for u, v in pairs:
        reach[u][v] = True
        reach[v][u] = True
    for k in range(size):
        for i in range(size):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(size):
                    if row_k[j]:
                        row_i[j] = True
    return frozenset(
        (i, j) for i in range(size) for j in range(size) if reach[i][j]
    )


def symmetric_closure(pairs):
    return frozenset(pairs) | {(v, u) for u, v in pairs}


def reflexive_transitive_closure(size, pairs):
    """Pairs (u, v) such that v is reachable from u, by a search from
    every world over the pair list."""
    out = set()
    for start in range(size):
        seen = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for x, v in pairs:
                if x == u and v not in seen:
                    seen.add(v)
                    frontier.append(v)
        out.update((start, v) for v in seen)
    return frozenset(out)


def naive_relation_properties(size, pairs):
    """The five properties from their first-order definitions, quantifying
    over worlds and pairs."""
    r = set(pairs)
    worlds = range(size)
    return {
        "serial": all(any((u, v) in r for v in worlds) for u in worlds),
        "transitive": all((u, w) in r for u, v in r for x, w in r if x == v),
        "euclidean": all((v, w) in r for u, v in r for x, w in r if x == u),
        "reflexive": all((u, u) in r for u in worlds),
        "symmetric": all((v, u) in r for u, v in r),
    }


def naive_equivalence_classes(size, pairs):
    """Classes of the Warshall equivalence, each sorted, ordered by least
    member."""
    eq = warshall_equivalence(size, pairs)
    classes = {tuple(v for v in range(size) if (u, v) in eq) for u in range(size)}
    return sorted(list(c) for c in classes)


def _sym_class(m, agent, w):
    """Equivalence class of w under the symmetric-closure reachability of
    the agent's belief relation, recomputed per call."""
    sym = set(m.belief[agent].pairs)
    sym |= {(v, u) for u, v in m.belief[agent].pairs}
    seen = {w}
    frontier = [w]
    while frontier:
        u = frontier.pop()
        for x, y in sym:
            if x == u and y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def naive_satisfies_k(m, w, f):
    if isinstance(f, Atom):
        return f.var in m.valuation[w]
    if isinstance(f, Not):
        return not naive_satisfies_k(m, w, f.sub)
    if isinstance(f, And):
        return naive_satisfies_k(m, w, f.left) and naive_satisfies_k(m, w, f.right)
    if isinstance(f, Believes):
        return all(
            naive_satisfies_k(m, v, f.sub)
            for u, v in m.belief[f.agent].pairs
            if u == w
        )
    if isinstance(f, Knows):
        return all(naive_satisfies_k(m, v, f.sub) for v in _sym_class(m, f.agent, w))
    raise TypeError(f)


def _naive_succ(m, i, agent, kind):
    span_i = m.edges[i].span
    out = []
    for j, e2 in enumerate(m.edges):
        region = e2.tail if kind == "doxastic" else e2.span
        if any(m.vertices[v].color == agent for v in span_i & region):
            out.append(j)
    return out


def naive_satisfies_h(m, i, f):
    if isinstance(f, Atom):
        atoms = set()
        for vid in m.edges[i].span:
            atoms |= m.vertices[vid].atoms
        return f.var in atoms
    if isinstance(f, Not):
        return not naive_satisfies_h(m, i, f.sub)
    if isinstance(f, And):
        return naive_satisfies_h(m, i, f.left) and naive_satisfies_h(m, i, f.right)
    if isinstance(f, Believes):
        return all(
            naive_satisfies_h(m, j, f.sub) for j in _naive_succ(m, i, f.agent, "doxastic")
        )
    if isinstance(f, Knows):
        return all(
            naive_satisfies_h(m, j, f.sub) for j in _naive_succ(m, i, f.agent, "epistemic")
        )
    raise TypeError(f)


def naive_is_tautology(f):
    """Row-by-row truth table over the atoms and maximal modal
    subformulas of f, which are told apart by their printed structure."""
    letters = {}

    def collect(g):
        if isinstance(g, Not):
            collect(g.sub)
        elif isinstance(g, And):
            collect(g.left)
            collect(g.right)
        else:
            letters.setdefault(repr(g), len(letters))

    def value(g, row):
        if isinstance(g, Not):
            return not value(g.sub, row)
        if isinstance(g, And):
            return value(g.left, row) and value(g.right, row)
        return row[letters[repr(g)]]

    collect(f)
    rows = itertools.product((False, True), repeat=len(letters))
    return all(value(f, row) for row in rows)


def naive_fragment_check(f):
    """Belief-fragment membership and the agents f is an a-formula for,
    collected by a walk over the tree with an explicit stack."""
    owners, modal_agents, has_knows = set(), set(), False
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            owners.add(node.var.owner)
        elif isinstance(node, Not):
            stack.append(node.sub)
        elif isinstance(node, And):
            stack += [node.left, node.right]
        elif isinstance(node, (Believes, Knows)):
            has_knows = has_knows or isinstance(node, Knows)
            modal_agents.add(node.agent)
            stack.append(node.sub)
        else:
            raise TypeError(node)
    mentioned = owners | modal_agents
    qualifying = frozenset(mentioned) if len(mentioned) == 1 else frozenset()
    return FragmentInfo(not has_knows, qualifying)


def naive_modal_depth(f):
    """Greatest nesting of modalities, by a walk over the tree with an
    explicit stack."""
    depth, stack = 0, [(f, 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, Atom):
            depth = max(depth, d)
        elif isinstance(node, Not):
            stack.append((node.sub, d))
        elif isinstance(node, And):
            stack += [(node.left, d), (node.right, d)]
        elif isinstance(node, (Believes, Knows)):
            stack.append((node.sub, d + 1))
        else:
            raise TypeError(node)
    return depth


_NAIVE_TOKEN_RE = re.compile(r"<->|->|[~&|(){}]|[A-Za-z_][A-Za-z0-9_]*")
_NAIVE_WS_RE = re.compile(r"\s*")


def _naive_tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        pos = _NAIVE_WS_RE.match(text, pos).end()
        if pos >= n:
            break
        m = _NAIVE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    tokens.append(("", n))
    return tokens


class _NaiveParser:
    def __init__(self, text, ws):
        self.ws = ws
        self.tokens = _naive_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def pos(self):
        return self.tokens[self.i][1]

    def take(self):
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def expect(self, tok, what):
        if self.peek() != tok:
            raise ParseError(f"expected {what}", self.pos())
        self.take()

    def form(self):
        parts = [self.imp()]
        while self.peek() == "<->":
            self.take()
            parts.append(self.imp())
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = f_iff(part, out)
        return out

    def imp(self):
        left = self.or_()
        if self.peek() == "->":
            self.take()
            return f_imp(left, self.imp())
        return left

    def or_(self):
        out = self.and_()
        while self.peek() == "|":
            self.take()
            out = f_or(out, self.and_())
        return out

    def and_(self):
        out = self.unary()
        while self.peek() == "&":
            self.take()
            out = And(out, self.unary())
        return out

    def unary(self):
        tok = self.peek()
        pos = self.pos()
        if tok == "~":
            self.take()
            return Not(self.unary())
        if tok in ("B", "K") and self.tokens[self.i + 1][0] == "{":
            self.take()
            self.take()
            agent_name = self.peek()
            agent_pos = self.pos()
            if not agent_name or not (agent_name[0].isalpha() or agent_name[0] == "_"):
                raise ParseError("expected agent name", agent_pos)
            self.take()
            try:
                agent = self.ws.agent_index(agent_name)
            except WorkspaceError:
                raise ParseError(f"undeclared agent {agent_name!r}", agent_pos) from None
            self.expect("}", "'}'")
            return (Believes if tok == "B" else Knows)(agent, self.unary())
        if tok == "(":
            self.take()
            out = self.form()
            self.expect(")", "')'")
            return out
        if tok == "true":
            self.take()
            try:
                return f_top(self.ws)
            except WorkspaceError as exc:
                raise ParseError(str(exc), pos) from None
        if tok == "false":
            self.take()
            try:
                return f_bottom(self.ws)
            except WorkspaceError as exc:
                raise ParseError(str(exc), pos) from None
        if tok and (tok[0].isalpha() or tok[0] == "_"):
            self.take()
            try:
                return Atom(self.ws.var_by_name(tok))
            except WorkspaceError:
                raise ParseError(f"undeclared atom {tok!r}", pos) from None
        raise ParseError("expected a formula", pos)


def naive_parse_formula(text, ws):
    """The formula of text by recursive descent, one method per grammar
    rule, after a tokenizer that matches one token at a time. It recurses
    once per level of nesting, so a deep formula raises RecursionError."""
    p = _NaiveParser(text, ws)
    out = p.form()
    if p.peek() != "":
        raise ParseError(f"unexpected token {p.peek()!r}", p.pos())
    return out


def count_formulas(n_vars, n_agents, max_depth, max_size):
    """Number of core-constructor formulas with size <= max_size and
    modal depth <= max_depth, by recurrence on exact size."""

    def c(size, depth):
        if depth < 0 or size < 1:
            return 0
        if size == 1:
            return n_vars
        total = c(size - 1, depth)
        if depth >= 1:
            total += 2 * n_agents * c(size - 1, depth - 1)
        for left in range(1, size - 1):
            total += c(left, depth) * c(size - 1 - left, depth)
        return total

    return sum(c(s, max_depth) for s in range(1, max_size + 1))


def naive_enumerate_formulas(vars, agents, max_depth, max_size):
    """The formula stream of enumerate_formulas as Formula trees: by size,
    then atoms, negations, beliefs, knowledge, conjunctions (splitting the
    left size from small to large)."""
    by_size = [[]]
    for size in range(1, max_size + 1):
        layer = []
        if size == 1:
            for v in vars:
                layer.append((Atom(v), 0))
        else:
            for f, d in by_size[size - 1]:
                layer.append((Not(f), d))
            if max_depth >= 1:
                for a in agents:
                    for f, d in by_size[size - 1]:
                        if d < max_depth:
                            layer.append((Believes(a, f), d + 1))
                for a in agents:
                    for f, d in by_size[size - 1]:
                        if d < max_depth:
                            layer.append((Knows(a, f), d + 1))
            for left_size in range(1, size - 1):
                for f, df in by_size[left_size]:
                    for g, dg in by_size[size - 1 - left_size]:
                        layer.append((And(f, g), max(df, dg)))
        by_size.append(layer)
        for f, _ in layer:
            yield f


def naive_modal_equivalence(mk, mh, mapping, formulas):
    """The disagreement rows of check_modal_equivalence, world by world:
    each formula's masks on the Kripke frame and on the hypergraph frame
    in edge order are compared at every world i and the edge it maps to,
    and a row builds formulas[j] anew."""
    prog = formulas.program if isinstance(formulas, FormulaSlots) else compile_formulas(formulas)
    rows = []
    edge_of = [mh.edge_index(mapping[w]) for w in mk.worlds]
    masks = zip(evaluate(prog, mk.frame()), evaluate(prog, frame_h(mh)))
    for j, (mask_k, mask_h) in enumerate(masks):
        for i, e in enumerate(edge_of):
            k_value, h_value = mask_k >> i & 1, mask_h >> e & 1
            if k_value != h_value:
                rows.append(EquivalenceRow(mk.worlds[i], formulas[j], k_value == 1, h_value == 1))
    return rows


def _metavariables(pattern):
    """The names of the pattern's atoms, by walking its tree."""
    if type(pattern) is Atom:
        return {_META.var_name(pattern.var)}
    if type(pattern) is And:
        return _metavariables(pattern.left) | _metavariables(pattern.right)
    return _metavariables(pattern.sub)


def _arity(pattern):
    names = _metavariables(pattern)
    return "atom" if "p" in names else "two" if "psi" in names else "one"


# Each scheme's kind by its metavariables: "atom" (Loc's p), "one" (phi)
# or "two" (phi and psi).
SCHEME_ARITY = {scheme: _arity(pattern) for scheme, pattern in SCHEMES.items()}


def naive_scheme_instances(system, ws, instantiation_depth=0, instantiation_size=3):
    """All (scheme, instance formula) pairs for the system's schemes, each
    instance a Formula tree built by instantiate_scheme, in the order in
    which soundness_suite reports the violations of one model: by scheme,
    agent, phi, then psi. phi and psi range over the formulas enumerated
    within the instantiation bounds."""
    formulas = list(
        naive_enumerate_formulas(
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


def _remap_code(code, perm):
    if code == 0:
        return 0
    v, tail = (code - 1) // 2, code % 2 == 1
    return 1 + 2 * perm[v] + (0 if tail else 1)


def count_structures_naive(n_agents, max_edges, vertex_cap):
    """Count edge structures up to color-preserving vertex renaming by
    brute force: enumerate every labeled structure over full vertex
    pools (no canonicity shortcuts), then quotient by taking the least
    image under all per-color permutations."""
    canon = set()
    codes = range(2 * vertex_cap + 1)
    descriptors = list(itertools.product(codes, repeat=n_agents))
    perms = list(itertools.permutations(range(vertex_cap)))
    for m in range(1, max_edges + 1):
        for combo in itertools.combinations(descriptors, m):
            structure = tuple(sorted(combo))
            if all(code == 0 for edge in structure for code in edge):
                continue  # empty support, no vertices
            best = min(
                tuple(
                    sorted(
                        tuple(_remap_code(c, pc[a]) for a, c in enumerate(edge))
                        for edge in structure
                    )
                )
                for pc in itertools.product(perms, repeat=n_agents)
            )
            canon.add(best)
    return len(canon)


def _structure_in_class(structure, n_agents, cls):
    if cls == "all":
        return True
    spans = [
        frozenset((a, (c - 1) // 2) for a, c in enumerate(edge) if c)
        for edge in structure
    ]
    if any(len(s) != n_agents for s in spans):
        return False  # not uniform
    if any(i != j and si <= sj for i, si in enumerate(spans) for j, sj in enumerate(spans)):
        return False  # not simple
    if cls == "H_sut":
        tails = {
            (a, (c - 1) // 2) for edge in structure for a, c in enumerate(edge) if c % 2
        }
        return set().union(*spans) <= tails
    return True


def naive_structures(n_agents, max_edges, vertex_cap, cls):
    """The canonical structure stream, in order, by filtering every
    combination of descriptors (by size, then lexicographically): keep a
    structure whose vertices are contiguous from 0 per agent, that no
    per-agent permutation of its vertices maps to a smaller sorted
    structure, and that lies in the class."""
    out = []
    descriptors = list(itertools.product(range(2 * vertex_cap + 1), repeat=n_agents))
    for m in range(1, max_edges + 1):
        for structure in itertools.combinations(descriptors, m):
            used = [{(c - 1) // 2 for c in col if c} for col in zip(*structure)]
            if not any(used) or any(u and max(u) + 1 != len(u) for u in used):
                continue
            perms = [list(itertools.permutations(range(len(u)))) for u in used]
            if any(
                tuple(
                    sorted(
                        tuple(_remap_code(c, combo[a]) for a, c in enumerate(edge))
                        for edge in structure
                    )
                )
                < structure
                for combo in itertools.product(*perms)
            ):
                continue
            if _structure_in_class(structure, n_agents, cls):
                out.append(structure)
    return out


def naive_placements(ws, structure, slots, vars_per_agent, seed):
    """The atom placements of the structure in stream order, each a tuple
    whose j-th entry is the atom set of the vertex slots[j]. Up to two
    variables per agent they are the itertools.product of each slot's
    subsets of its agent's variables, where subset m holds variable i when
    bit i of m is set. Beyond that they are up to 32 seeded draws of
    one such tuple, each first occurrence kept in order."""
    own = [ws.vars_of(a) for a in range(ws.n_agents)]
    if vars_per_agent <= 2:
        subsets = [
            [frozenset(p for i, p in enumerate(vs) if m >> i & 1) for m in range(1 << len(vs))]
            for vs in own
        ]
        return list(itertools.product(*(subsets[a] for a, _ in slots)))
    rng = random.Random(repr((seed, structure)))
    draws = (
        tuple(frozenset(p for p in own[a] if rng.random() < 0.5) for a, _ in slots)
        for _ in range(32)
    )
    return list(dict.fromkeys(draws))
