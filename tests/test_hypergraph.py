import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdox import (
    DirectedEdge,
    HypergraphModel,
    Relation,
    Vertex,
    Workspace,
    accessibility,
    edge_atoms,
    graph_metrics,
    induced_complex,
    parse_formula,
    relation_properties,
    satisfies_h,
    validate_model,
)
from hyperdox.formula import Believes, Knows
from hyperdox.hypergraph import frame_h
from hyperdox.kernel import compile_formulas, evaluate
from randgen import random_formula, random_uniform_model
from oracles import _naive_succ, naive_satisfies_h


def has(m, rel, src, dst):
    return (m.edge_index(src), m.edge_index(dst)) in rel.pairs


def test_fixture_models_are_valid(chain4, pair2, five_worlds_h):
    for m in (chain4, pair2, five_worlds_h):
        assert validate_model(m) == []


def test_chromatic_violation(ws3):
    m = HypergraphModel(
        ws3,
        [Vertex("u", 0, frozenset()), Vertex("v", 0, frozenset())],
        [DirectedEdge("e1", frozenset({"u"}), frozenset({"v"}))],
    )
    violations = validate_model(m)
    assert any("share color" in v and "e1" in v for v in violations)


def test_valuation_violation(ws3):
    m = HypergraphModel(
        ws3,
        [Vertex("u", 0, frozenset({ws3.var_by_name("p_b_1")}))],
        [DirectedEdge("e1", frozenset({"u"}), frozenset())],
    )
    violations = validate_model(m)
    assert any("p_b_1" in v and "u" in v for v in violations)


def test_overlap_and_dangling(ws3):
    m = HypergraphModel(
        ws3,
        [Vertex("u", 0, frozenset())],
        [DirectedEdge("e1", frozenset({"u"}), frozenset({"u", "ghost"}))],
    )
    violations = validate_model(m)
    assert any("overlap" in v for v in violations)
    assert any("dangling" in v and "ghost" in v for v in violations)


def test_chain4_metrics(chain4):
    report = graph_metrics(chain4)
    assert report.simple and report.n_uniform and report.tail_complete
    assert report.rank == 3
    assert report.in_h_su and report.in_h_sut


def test_five_worlds_h_metrics(five_worlds_h):
    report = graph_metrics(five_worlds_h)
    assert report.simple and report.n_uniform and report.tail_complete


def test_single_vertex_edge_metrics():
    ws = Workspace(("a",), (("p_a_1",),))
    m = HypergraphModel(
        ws, [Vertex("u", 0, frozenset())], [DirectedEdge("e1", frozenset({"u"}), frozenset())]
    )
    report = graph_metrics(m)
    assert report.rank == 1 and report.n_uniform
    assert report.simple and report.tail_complete


def test_chain4_doxastic_accessibility(chain4):
    rel = accessibility(chain4, 0, "doxastic")
    assert has(chain4, rel, "e2", "e3")
    assert has(chain4, rel, "e3", "e3")
    assert not has(chain4, rel, "e2", "e2")
    assert not has(chain4, rel, "e3", "e2")


def test_pair2_accessibility(pair2):
    rel_a = accessibility(pair2, 0, "doxastic")
    rel_c = accessibility(pair2, 2, "doxastic")
    assert has(pair2, rel_c, "e1", "e1")
    assert has(pair2, rel_a, "e1", "e2")
    assert not has(pair2, rel_a, "e1", "e1")
    assert not has(pair2, rel_a, "e2", "e1")


def test_epistemic_self_pair_on_isolated_full_edge(ws3):
    m = HypergraphModel(
        ws3,
        [Vertex("ua", 0, frozenset()), Vertex("ub", 1, frozenset()), Vertex("uc", 2, frozenset())],
        [DirectedEdge("e1", frozenset({"ua"}), frozenset({"ub", "uc"}))],
    )
    for a in range(3):
        rel = accessibility(m, a, "epistemic")
        assert rel.pairs == {(0, 0)}


def test_edge_atoms(ws3):
    pa, pb = ws3.var_by_name("p_a_1"), ws3.var_by_name("p_b_1")
    m = HypergraphModel(
        ws3,
        [Vertex("u", 0, frozenset({pa})), Vertex("v", 1, frozenset({pb})), Vertex("w", 2, frozenset())],
        [
            DirectedEdge("e1", frozenset({"u"}), frozenset({"v"})),
            DirectedEdge("e2", frozenset({"w"}), frozenset()),
        ],
    )
    assert edge_atoms(m, "e1") == {pa, pb}
    assert edge_atoms(m, "e2") == frozenset()


def test_edge_atoms_bounded_by_span_owners(ws3):
    rng = random.Random(2)
    for _ in range(50):
        m = random_uniform_model(ws3, rng, max_edges=4)
        for i, e in enumerate(m.edges):
            owners = {m.vertices[v].color for v in e.span}
            assert all(p.owner in owners for p in edge_atoms(m, i))


def test_chain4_eval_examples(chain4):
    ws = chain4.workspace
    assert satisfies_h(chain4, "e2", parse_formula("B{a} p_c_1", ws))
    assert satisfies_h(chain4, "e2", parse_formula("p_c_1 & ~B{a} false", ws))


def test_belief_vacuous_when_no_tail_occurrence(ws3):
    m = HypergraphModel(
        ws3,
        [Vertex("ua", 0, frozenset()), Vertex("ub", 1, frozenset()), Vertex("uc", 2, frozenset())],
        [DirectedEdge("e1", frozenset({"ub", "uc"}), frozenset({"ua"}))],
    )
    assert satisfies_h(m, "e1", parse_formula("B{a} false", ws3))


def test_consistency_axiom_on_random_tail_complete(ws3):
    rng = random.Random(9)
    vars_ = ws3.all_vars()
    for _ in range(60):
        m = random_uniform_model(ws3, rng, max_edges=4, tail_bias=0.7, require="H_sut")
        phi = random_formula(rng, vars_, range(3), 2, 5)
        a = rng.randrange(3)
        from hyperdox.formula import Believes, Not, f_imp

        f = f_imp(Believes(a, phi), Not(Believes(a, Not(phi))))
        assert all(satisfies_h(m, i, f) for i in range(m.n_edges))


def test_satisfaction_matches_naive_oracle(ws3):
    rng = random.Random(13)
    vars_ = ws3.all_vars()
    for _ in range(80):
        m = random_uniform_model(ws3, rng, max_edges=4, atom_density=0.4)
        for _ in range(5):
            f = random_formula(rng, vars_, range(3), max_depth=3, max_size=8)
            i = rng.randrange(m.n_edges)
            assert satisfies_h(m, i, f) == naive_satisfies_h(m, i, f)


def test_uniform_accessibility_properties(ws3):
    rng = random.Random(31)
    ws_by_n = {
        1: Workspace(("a",), (("p_a_1",),)),
        2: Workspace(("a", "b"), (("p_a_1",), ("p_b_1",))),
        3: ws3,
    }
    for _ in range(120):
        n = rng.choice([1, 2, 3])
        ws = ws_by_n[n]
        m = random_uniform_model(ws, rng, max_edges=5)
        metrics = graph_metrics(m)
        for a in range(n):
            dox = relation_properties(accessibility(m, a, "doxastic"))
            assert dox.transitive and dox.euclidean
            if metrics.tail_complete:
                assert dox.serial
            epi = relation_properties(accessibility(m, a, "epistemic"))
            assert epi.reflexive and epi.symmetric and epi.transitive


def test_accessibility_matches_naive_succ(ws3):
    rng = random.Random(41)
    for _ in range(150):
        m = random_uniform_model(ws3, rng, max_edges=6, tail_bias=rng.random())
        for a in range(3):
            for kind in ("doxastic", "epistemic"):
                expected = {(i, j) for i in range(m.n_edges) for j in _naive_succ(m, i, a, kind)}
                assert accessibility(m, a, kind).pairs == expected


def test_doxastic_subset_of_epistemic(ws3):
    rng = random.Random(37)
    for _ in range(60):
        m = random_uniform_model(ws3, rng, max_edges=4)
        for a in range(3):
            assert accessibility(m, a, "doxastic").pairs <= accessibility(m, a, "epistemic").pairs


def test_induced_complex_two_overlapping_triangles(ws3):
    vs = [
        Vertex("a1", 0, frozenset()),
        Vertex("b1", 1, frozenset()),
        Vertex("c1", 2, frozenset()),
        Vertex("c2", 2, frozenset()),
    ]
    es = [
        DirectedEdge("e1", frozenset({"a1", "b1"}), frozenset({"c1"})),
        DirectedEdge("e2", frozenset({"a1", "b1"}), frozenset({"c2"})),
    ]
    m = HypergraphModel(ws3, vs, es)
    facets = induced_complex(m)
    assert len(facets) == 2
    assert all(len(f) == 3 for f in facets)


def test_induced_complex_nested_spans(ws3):
    vs = [Vertex("a1", 0, frozenset()), Vertex("b1", 1, frozenset())]
    es = [
        DirectedEdge("e1", frozenset({"a1"}), frozenset()),
        DirectedEdge("e2", frozenset({"a1"}), frozenset({"b1"})),
    ]
    m = HypergraphModel(ws3, vs, es)
    assert induced_complex(m) == [frozenset({"a1", "b1"})]


def test_induced_complex_pure_on_simple_uniform(ws3):
    rng = random.Random(43)
    for _ in range(60):
        m = random_uniform_model(ws3, rng, max_edges=4, require="H_su")
        facets = induced_complex(m)
        # brute-force maximality scan over all spans
        spans = [e.span for e in m.edges]
        expected = {s for s in spans if not any(s < t for t in spans)}
        assert set(facets) == expected
        assert len(facets) == m.n_edges
        assert all(len(f) == 3 for f in facets)


def _random_ragged_model(ws3, rng):
    """Chromatic but deliberately non-uniform: edges may miss agents."""
    m_edges = rng.randint(1, 4)
    pools = [rng.randint(1, 3) for _ in range(3)]
    edges = []
    for i in range(m_edges):
        tail, head = set(), set()
        for a in range(3):
            if rng.random() < 0.7:
                vid = f"{ws3.agents[a]}{rng.randrange(pools[a]) + 1}"
                (tail if rng.random() < 0.5 else head).add(vid)
        edges.append(DirectedEdge(f"e{i + 1}", frozenset(tail), frozenset(head)))
    used = {v for e in edges for v in e.span}
    if not used:
        return None
    verts = []
    for a in range(3):
        for v in range(pools[a]):
            vid = f"{ws3.agents[a]}{v + 1}"
            if vid in used:
                atoms = frozenset(p for p in ws3.vars_of(a) if rng.random() < 0.4)
                verts.append(Vertex(vid, a, atoms))
    return HypergraphModel(ws3, verts, edges)


def test_raw_semantics_on_non_uniform_models(ws3):
    # outside the uniform classes the definitions are evaluated as-is:
    # knowledge accessibility may be non-reflexive and no repair happens
    rng = random.Random(5150)
    saw_nonreflexive = False
    for _ in range(200):
        m = _random_ragged_model(ws3, rng)
        if m is None:
            continue
        assert validate_model(m) == []
        for a in range(3):
            props = relation_properties(accessibility(m, a, "epistemic"))
            if not props.reflexive:
                saw_nonreflexive = True
        for _ in range(4):
            f = random_formula(rng, ws3.all_vars(), range(3), 3, 8)
            i = rng.randrange(m.n_edges)
            assert satisfies_h(m, i, f) == naive_satisfies_h(m, i, f)
    assert saw_nonreflexive


def test_structurally_equal_edges_break_simplicity(ws3):
    vs = [Vertex("a1", 0, frozenset())]
    es = [
        DirectedEdge("e1", frozenset({"a1"}), frozenset()),
        DirectedEdge("e2", frozenset({"a1"}), frozenset()),
    ]
    m = HypergraphModel(ws3, vs, es)
    assert not graph_metrics(m).simple


def test_empty_edge_allowed(ws3):
    m = HypergraphModel(
        ws3,
        [Vertex("a1", 0, frozenset({ws3.var_by_name("p_a_1")}))],
        [
            DirectedEdge("e1", frozenset(), frozenset()),
            DirectedEdge("e2", frozenset({"a1"}), frozenset()),
        ],
    )
    assert validate_model(m) == []
    assert not satisfies_h(m, "e1", parse_formula("p_a_1", ws3))
    assert satisfies_h(m, "e2", parse_formula("p_a_1", ws3))


WS3 = Workspace(("a", "b", "c"), (("p_a_1",), ("p_b_1",), ("p_c_1",)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_models=st.integers(1, 6))
def test_frame_agrees_with_oracle_on_random_models(seed, n_models):
    # the frame of each of several uniform and ragged models over three
    # agents gives the oracle's truth values at every edge
    rng = random.Random(seed)
    models = []
    while len(models) < n_models:
        if rng.random() < 0.5:
            models.append(random_uniform_model(WS3, rng, max_edges=4, atom_density=0.4))
        else:
            m = _random_ragged_model(WS3, rng)
            if m is not None:
                models.append(m)
    vars_ = WS3.all_vars()
    formulas = []
    for _ in range(4):
        f = random_formula(rng, vars_, range(3), 2, 7)
        formulas += [f, Believes(rng.randrange(3), f), Knows(rng.randrange(3), f)]
    prog = compile_formulas(formulas)
    for m in models:
        frame = frame_h(m)
        assert (frame.size, frame.width) == (m.n_edges, 1)
        for f, mask in zip(formulas, evaluate(prog, frame)):
            for i in range(m.n_edges):
                assert bool(mask >> i & 1) == naive_satisfies_h(m, i, f)


def test_deep_formula_evaluates_without_recursion(chain4):
    from hyperdox.formula import Atom, Not

    p = Atom(chain4.workspace.var_by_name("p_c_1"))
    f = p
    for _ in range(5001):
        f = Not(f)
    for i in range(chain4.n_edges):
        assert satisfies_h(chain4, i, f) == (not satisfies_h(chain4, i, p))
