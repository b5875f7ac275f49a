import hashlib
import itertools
import json
import random

import pytest

from hyperdox import (
    Atom,
    FragmentError,
    KripkeModel,
    PreconditionError,
    PropVar,
    Relation,
    Workspace,
    check_modal_equivalence,
    enumerate_formulas,
    graph_metrics,
    hypergraph_to_kripke,
    kripke_to_hypergraph,
    model_properties,
    SearchBounds,
    enumerate_models,
    render_formula,
    satisfies_h,
    satisfies_k,
)
from hyperdox import convert
from hyperdox.convert import FormulaSlots
from hyperdox.formula import And, Not
from hyperdox.hypergraph import frame_h
from hyperdox.kernel import BELIEF, compile_formulas, evaluate, fragment_check
from hyperdox.kripke import equivalence_classes
from hyperdox.modelio import model_from_json
from randgen import random_formula, random_local_kripke, random_uniform_model
from conftest import fixture_path
from oracles import (
    count_formulas,
    naive_enumerate_formulas,
    naive_modal_equivalence,
    naive_satisfies_h,
    naive_satisfies_k,
)


def rel(size, pairs):
    return Relation.from_pairs(size, pairs)


def test_five_worlds_conversion_structure(five_worlds_k):
    mh, cert = kripke_to_hypergraph(five_worlds_k)
    assert len(mh.vertices) == 8
    assert mh.n_edges == 5
    a134, a2, a5 = "a:{1,3,4}", "a:{2}", "a:{5}"
    b1, b235, b4 = "b:{1}", "b:{2,3,5}", "b:{4}"
    c123, c45 = "c:{1,2,3}", "c:{4,5}"
    assert set(mh.vertices) == {a134, a2, a5, b1, b235, b4, c123, c45}
    expected = {
        "e1": ({b1}, {a134, c123}),
        "e2": ({a2, b235, c123}, set()),
        "e3": ({b235, c123}, {a134}),
        "e4": ({a134, b4, c45}, set()),
        "e5": ({a5}, {b235, c45}),
    }
    for e in mh.edges:
        tail, head = expected[e.name]
        assert e.tail == frozenset(tail) and e.head == frozenset(head)
    assert cert.mapping == {str(i): f"e{i}" for i in range(1, 6)}
    assert cert.injective
    report = graph_metrics(mh)
    assert report.simple and report.n_uniform and report.tail_complete


def test_single_world_identity(ws3):
    m = KripkeModel(ws3, ["w"], {a: rel(1, [(0, 0)]) for a in range(3)}, [set()])
    mh, _ = kripke_to_hypergraph(m)
    assert mh.n_edges == 1
    edge = mh.edges[0]
    assert len(edge.tail) == 3 and not edge.head


def test_single_world_empty_relations(ws3):
    m = KripkeModel(ws3, ["w"], {}, [set()])
    mh, _ = kripke_to_hypergraph(m)
    edge = mh.edges[0]
    assert not edge.tail and len(edge.head) == 3
    assert not graph_metrics(mh).tail_complete


def test_improper_input_collapses_and_is_flagged(ws3):
    total = rel(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    m = KripkeModel(ws3, ["u", "v"], {a: total for a in range(3)}, [set(), set()])
    mh, cert = kripke_to_hypergraph(m)
    assert not cert.injective
    assert mh.n_edges == 1
    assert cert.mapping == {"u": "e1", "v": "e1"}


def test_non_local_input_rejected(ws3):
    p = ws3.var_by_name("p_a_1")
    m = KripkeModel(ws3, ["u", "v"], {0: rel(2, [(0, 1), (1, 1)])}, [{p}, set()])
    with pytest.raises(PreconditionError, match="local"):
        kripke_to_hypergraph(m)


def test_class_valuations_well_defined(ws3):
    rng = random.Random(3)
    for _ in range(60):
        m = random_local_kripke(ws3, rng, max_worlds=4, serial=rng.random() < 0.5)
        for a in range(3):
            var_set = frozenset(ws3.vars_of(a))
            for group in equivalence_classes(m.belief[a]):
                vals = {frozenset(m.valuation[u] & var_set) for u in group}
                assert len(vals) == 1


def test_kripke_to_hypergraph_class_preservation(ws3):
    rng = random.Random(8)
    for _ in range(200):
        serial = rng.random() < 0.5
        m = random_local_kripke(ws3, rng, max_worlds=4, serial=serial, proper=True)
        report = model_properties(m)
        mh, _ = kripke_to_hypergraph(m)
        metrics = graph_metrics(mh)
        assert report.in_k_te and metrics.in_h_su
        if report.in_k_ste:
            assert metrics.in_h_sut


def test_hypergraph_to_kripke_class_preservation(ws3):
    rng = random.Random(21)
    for _ in range(150):
        want = "H_sut" if rng.random() < 0.5 else "H_su"
        m = random_uniform_model(ws3, rng, max_edges=4, tail_bias=0.7, require=want)
        mk, _ = hypergraph_to_kripke(m)
        report = model_properties(mk)
        assert report.in_k_te
        if want == "H_sut":
            assert report.in_k_ste


def test_hypergraph_to_kripke_structure(chain4):
    mk, cert = hypergraph_to_kripke(chain4)
    assert mk.worlds == ("e1", "e2", "e3", "e4")
    i = {w: k for k, w in enumerate(mk.worlds)}
    pairs = mk.belief[0].pairs
    assert (i["e2"], i["e3"]) in pairs and (i["e3"], i["e3"]) in pairs
    assert (i["e2"], i["e2"]) not in pairs and (i["e3"], i["e2"]) not in pairs
    assert cert.mapping == {w: w for w in mk.worlds}


def test_one_full_tail_edge_gives_identity_relations(ws3):
    from hyperdox import DirectedEdge, HypergraphModel, Vertex

    m = HypergraphModel(
        ws3,
        [Vertex("ua", 0, frozenset()), Vertex("ub", 1, frozenset()), Vertex("uc", 2, frozenset())],
        [DirectedEdge("e1", frozenset({"ua", "ub", "uc"}), frozenset())],
    )
    mk, _ = hypergraph_to_kripke(m)
    for a in range(3):
        assert mk.belief[a].pairs == {(0, 0)}


def test_modal_equivalence_on_five_worlds(five_worlds_k):
    mh, cert = kripke_to_hypergraph(five_worlds_k)
    ws = five_worlds_k.workspace
    from hyperdox import parse_formula

    formulas = [
        parse_formula("B{a} false", ws),
        parse_formula("~B{a} false", ws),
        parse_formula("B{b} ~B{a} false", ws),
    ]
    report = check_modal_equivalence(five_worlds_k, mh, cert.mapping, formulas)
    assert report.agree and report.checked == 15


@pytest.mark.parametrize(
    "names,ids",
    [
        (("w1,w2", "w1", "w2"), {"a:{w1\\,w2}", "a:{w1,w2}"}),
        (("x,y", "x\\", "y"), {"a:{x\\,y}", "a:{x\\\\,y}"}),
        (("{w}", "w", "}"), {"a:{\\{w\\}}", "a:{w,\\}}"}),
    ],
)
def test_world_names_with_separators_give_distinct_class_ids(names, ids):
    # world 0 forms a class alone and worlds 1 and 2 form one; unescaped,
    # the first two pairs of ids would be equal
    ws = Workspace(("a",), (("p_a_1",),))
    p = ws.all_vars()[0]
    m = KripkeModel(ws, list(names), {0: rel(3, [(0, 0), (1, 1), (2, 1)])}, [set(), {p}, {p}])
    mh, cert = kripke_to_hypergraph(m)
    assert set(mh.vertices) == ids and cert.injective
    from hyperdox import parse_formula

    texts = ["p_a_1", "B{a} p_a_1", "~B{a} p_a_1", "B{a} ~p_a_1", "B{a}B{a}p_a_1 & ~p_a_1"]
    formulas = [parse_formula(text, ws) for text in texts]
    report = check_modal_equivalence(m, mh, cert.mapping, formulas)
    assert report.agree and report.checked == 3 * len(formulas)


def swapped_worlds():
    """The five-worlds model with b's class {2, 3, 5} made p_b_1, its
    conversion, and the conversion map with worlds 1 and 2 swapped."""
    with open(fixture_path("five_worlds_k.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["valuation"] = {w: ["p_b_1"] for w in ("2", "3", "5")}
    mk = model_from_json(data)
    mh, cert = kripke_to_hypergraph(mk)
    mapping = dict(cert.mapping)
    mapping["1"], mapping["2"] = mapping["2"], mapping["1"]
    return mk, mh, mapping


def test_swapped_worlds_give_the_oracle_disagreements():
    mk, mh, mapping = swapped_worlds()
    ws = mk.workspace
    formulas = list(enumerate_formulas(ws.all_vars(), range(ws.n_agents), 1, 2))
    report = check_modal_equivalence(mk, mh, mapping, formulas)
    expected = []
    for f in formulas:
        for i, w in enumerate(mk.worlds):
            k_value = naive_satisfies_k(mk, i, f)
            h_value = naive_satisfies_h(mh, mh.edge_index(mapping[w]), f)
            if k_value != h_value:
                expected.append((w, f, k_value, h_value))
    rows = [(r.state, r.formula, r.kripke_value, r.hypergraph_value) for r in report.disagreements]
    assert expected and rows == expected
    assert not report.agree and report.checked == 5 * len(formulas)


def test_sigma_equivalence_random(ws3):
    rng = random.Random(77)
    vars_ = ws3.all_vars()[:2]
    formulas = list(enumerate_formulas(vars_, range(2), max_depth=2, max_size=4))
    for _ in range(25):
        m = random_local_kripke(ws3, rng, max_worlds=4, serial=True, proper=True)
        mh, cert = kripke_to_hypergraph(m)
        report = check_modal_equivalence(m, mh, cert.mapping, formulas)
        assert report.agree


def test_kappa_identity_equivalence_exhaustive(ws3):
    # kappa output against the source model, identity edge map,
    # exhaustive formulas of depth <= 3 over 2 atoms
    rng = random.Random(99)
    ws2 = Workspace(("a", "b"), (("p_a_1",), ("p_b_1",)))
    formulas = list(
        enumerate_formulas(ws2.all_vars(), range(2), max_depth=3, max_size=5)
    )
    assert len(formulas) > 500
    iso_results = []
    for _ in range(10):
        mh = random_uniform_model(ws2, rng, max_edges=3, tail_bias=0.7, require="H_sut")
        mk, cert = hypergraph_to_kripke(mh)
        for f in formulas:
            for e in range(mh.n_edges):
                assert satisfies_h(mh, e, f) == satisfies_k(mk, e, f)
        # round-trip structural comparison is recorded, not asserted
        back, _ = kripke_to_hypergraph(mk)
        iso_results.append(back.n_edges == mh.n_edges and len(back.vertices) == len(mh.vertices))
    print(f"round-trip structurally aligned in {sum(iso_results)}/{len(iso_results)} samples")


def test_atom_case_agrees_on_empty_valuations(ws3):
    m = KripkeModel(ws3, ["w"], {a: rel(1, [(0, 0)]) for a in range(3)}, [set()])
    mh, cert = kripke_to_hypergraph(m)
    for name in ("p_a_1", "p_b_1", "p_c_1"):
        from hyperdox import parse_formula

        f = parse_formula(name, ws3)
        assert satisfies_k(m, 0, f) == satisfies_h(mh, cert.mapping["w"], f)


def test_equivalence_fragment_violation(ws3):
    from hyperdox import parse_formula

    m = KripkeModel(ws3, ["w"], {}, [set()])  # not serial
    mh, cert = kripke_to_hypergraph(m)
    f = parse_formula("K{a} p_a_1", ws3)
    belief_only = parse_formula("B{a} p_a_1 & ~p_b_1", ws3)
    message = "^knowledge formulas require the serial classes on both sides$"
    for formulas in ([f], [belief_only, f]):
        with pytest.raises(FragmentError, match=message):
            check_modal_equivalence(m, mh, cert.mapping, formulas)
    assert check_modal_equivalence(m, mh, cert.mapping, [belief_only]).checked == 1


def test_formula_slots_list_modals_only_when_a_modal_formula_is_enumerated(ws3):
    # the knowledge gate reads the stream's modal list, so a stream with
    # no modal formula (depth 0, or size 1) must list none and pass a
    # non-serial pair, and the first stream with boxes must be refused
    m = KripkeModel(ws3, ["w"], {}, [set()])  # not serial
    mh, cert = kripke_to_hypergraph(m)
    for bounds in ((0, 4), (3, 1)):
        slots = FormulaSlots(ws3.all_vars(), range(ws3.n_agents), *bounds)
        assert slots.program.modals == []
        report = check_modal_equivalence(m, mh, cert.mapping, slots)
        assert report.checked == len(slots) > 0
    slots = FormulaSlots(ws3.all_vars(), range(ws3.n_agents), 1, 2)
    assert [kind for _, kind in slots.program.modals] == ["B"] * 3 + ["K"] * 3
    with pytest.raises(FragmentError, match="^knowledge formulas require the serial"):
        check_modal_equivalence(m, mh, cert.mapping, slots)


def test_equivalence_requires_total_map(five_worlds_k):
    mh, cert = kripke_to_hypergraph(five_worlds_k)
    partial = dict(cert.mapping)
    del partial["3"]
    with pytest.raises(PreconditionError, match="cover"):
        check_modal_equivalence(five_worlds_k, mh, partial, [])


def test_enumerate_formulas_examples():
    ws = Workspace(("a",), (("p",),))
    p = ws.var_by_name("p")
    out = list(enumerate_formulas([p], [0], max_depth=1, max_size=2))
    from hyperdox import Believes, Knows, Not

    assert Atom(p) in out and Not(Atom(p)) in out
    assert Believes(0, Atom(p)) in out and Knows(0, Atom(p)) in out
    assert list(enumerate_formulas([p], [0], max_depth=0, max_size=1)) == [Atom(p)]


def test_enumerate_formulas_duplicate_free_and_counted():
    ws = Workspace(("a", "b"), (("p_a_1",), ("p_b_1",)))
    cases = [(1, 3), (2, 4), (0, 4), (3, 5)]
    for depth, size in cases:
        out = list(
            enumerate_formulas(ws.all_vars(), range(2), max_depth=depth, max_size=size)
        )
        assert len(out) == len(set(out))
        assert len(out) == count_formulas(2, 2, depth, size)


def test_enumerate_formulas_deterministic():
    ws = Workspace(("a",), (("p",),))
    first = list(enumerate_formulas(ws.all_vars(), [0], 2, 4))
    second = list(enumerate_formulas(ws.all_vars(), [0], 2, 4))
    assert first == second


def test_formula_slots_rebuild_the_enumerated_stream():
    ws = Workspace(("a", "b"), (("p_a_1",), ("p_b_1",)))
    naive = list(naive_enumerate_formulas(ws.all_vars(), range(2), 2, 4))
    slots = FormulaSlots(ws.all_vars(), range(2), 2, 4)
    assert len(slots) == len(slots.program.op) == len(naive) == count_formulas(2, 2, 2, 4)
    assert list(slots.program.roots) == list(range(len(slots)))  # formula i is op i
    assert list(slots) == naive
    assert list(enumerate_formulas(ws.all_vars(), range(2), 2, 4)) == naive
    # every root has its formula's mask, on each of 52 models
    prog, expected = slots.program, compile_formulas(naive)
    for m in enumerate_models("H_sut", SearchBounds(2, 2, 1)):
        frame = frame_h(m)
        assert evaluate(prog, frame) == evaluate(expected, frame)
    with pytest.raises(PreconditionError):
        FormulaSlots(ws.all_vars(), range(2), -1, 4)


def has_double_negation(f):
    stack = [f]
    while stack:
        node = stack.pop()
        if type(node) is And:
            stack += [node.left, node.right]
        elif type(node) is not Atom:
            if type(node) is Not and type(node.sub) is Not:
                return True
            stack.append(node.sub)
    return False


def test_swapped_worlds_rows_from_formula_slots():
    # equiv's stream builds a Formula for each disagreement row only; the
    # rows equal those of the list of Formula trees, formula by formula
    mk, mh, mapping = swapped_worlds()
    ws = mk.workspace
    slots = FormulaSlots(ws.all_vars(), range(ws.n_agents), 2, 4)
    naive = list(naive_enumerate_formulas(ws.all_vars(), range(ws.n_agents), 2, 4))
    report = check_modal_equivalence(mk, mh, mapping, slots)
    listed = check_modal_equivalence(mk, mh, mapping, naive)
    rows = [(r.state, r.formula, r.kripke_value, r.hypergraph_value) for r in report.disagreements]
    assert rows == [
        (r.state, r.formula, r.kripke_value, r.hypergraph_value) for r in listed.disagreements
    ]
    assert report.checked == listed.checked == 5 * 750
    assert any(has_double_negation(f) for _, f, _, _ in rows)
    # each disagreeing formula is built once, and its rows share the object
    # (the stream is duplicate-free, so equal formulas come from one slot)
    pairs = list(zip(report.disagreements, report.disagreements[1:]))
    assert all((r.formula is s.formula) == (r.formula == s.formula) for r, s in pairs)
    assert any(r.formula is s.formula for r, s in pairs)
    # (count, sha256) of the rows, rendered, recorded when equiv built every formula
    rendered = [(state, render_formula(f, ws), k, h) for state, f, k, h in rows]
    digest = hashlib.sha256(json.dumps(rendered).encode()).hexdigest()
    assert (len(rows), digest) == (
        204,
        "22caa49afa7b22d86ad6e246dc51fb5bee2808a5f9470d69486812dfb4f31649",
    )


def test_equivalence_rows_match_the_world_by_world_oracle():
    """The hypergraph frame laid out in world order gives the rows of the
    world-by-world loop (same order, states, values and formula objects)
    under maps that are injective, non-injective or partial (some edge is
    no world's image)."""
    ws = Workspace(("a", "b"), (("p_a_1", "p_a_2"), ("p_b_1",)))
    rng = random.Random(26)
    slots = FormulaSlots(ws.all_vars(), range(2), 2, 4)
    seen = {"injective": 0, "non-injective": 0, "partial": 0}
    rows = 0
    for n in range(300):
        mk = random_local_kripke(ws, rng, max_worlds=5, serial=True, proper=True)
        mh = random_uniform_model(ws, rng, max_edges=5, require="H_sut")
        edges = [e.name for e in mh.edges]
        if n % 3 == 0 and mk.n_worlds <= len(edges):
            images = rng.sample(edges, mk.n_worlds)
        else:  # some edges, or all of them, with repeats
            images = rng.choices(edges[: rng.randint(1, len(edges))], k=mk.n_worlds)
        mapping = dict(zip(mk.worlds, images))
        seen["injective" if len(set(images)) == len(images) else "non-injective"] += 1
        seen["partial"] += len(set(images)) < len(edges)
        if n % 2:
            formulas = slots
        else:
            formulas = [random_formula(rng, ws.all_vars(), range(2), 3, 9) for _ in range(60)]
        report = check_modal_equivalence(mk, mh, mapping, formulas)
        got = [(r.state, r.formula, r.kripke_value, r.hypergraph_value) for r in report.disagreements]
        want = naive_modal_equivalence(mk, mh, mapping, formulas)
        assert got == [(r.state, r.formula, r.kripke_value, r.hypergraph_value) for r in want]
        assert all(g[1] is w.formula for g, w in zip(got, want))
        assert report.checked == len(formulas) * mk.n_worlds
        rows += len(got)
    assert min(seen.values()) >= 50 and rows > 10000, (seen, rows)


def test_formula_slots_columns_pinned():
    """(sha256 of the program columns) over vars {0, 1, 2, 6} x agents
    {1, 2, 3} x depth 0-3 x size 0-5, recorded when FormulaSlots wrote
    its columns one formula at a time."""
    digest = hashlib.sha256()
    for n_vars, n_agents in itertools.product((0, 1, 2, 6), (1, 2, 3)):
        vars_ = [PropVar(i % n_agents, i // n_agents) for i in range(n_vars)]
        for depth, size in itertools.product(range(4), range(6)):
            prog = FormulaSlots(vars_, range(n_agents), depth, size).program
            columns = (list(prog.op), list(prog.a), list(prog.b), list(prog.roots))
            digest.update(repr((n_vars, n_agents, depth, size, *columns, prog.atoms, prog.modals)).encode())
    assert digest.hexdigest() == "699942852a047ff39e99d1095db1ccba734883a57fd01745aaef3dc13d08c0db"


def test_stream_length_is_counted_without_writing_it():
    for n_vars, n_agents, depth, size in itertools.product(range(4), range(3), range(4), range(8)):
        n_modals = 2 * n_agents if n_vars and depth and size >= 2 else 0
        got = convert._stream_length(n_vars, n_modals, depth, size)
        assert got == count_formulas(n_vars, n_agents, depth, size)
    # a count past the cap stops at its first running total beyond it
    past = convert._stream_length(6, 6, 2, 10**9)
    assert convert._MAX_FORMULAS < past < count_formulas(6, 3, 2, 10)


def test_a_stream_past_the_cap_is_refused_before_it_is_written(monkeypatch):
    vars_ = [PropVar(i % 2, i // 2) for i in range(4)]
    n = count_formulas(4, 2, 2, 4)
    monkeypatch.setattr(convert, "_MAX_FORMULAS", n)
    assert len(FormulaSlots(vars_, range(2), 2, 4)) == n  # at the cap
    monkeypatch.setattr(convert, "_MAX_FORMULAS", n - 1)
    monkeypatch.setattr(convert, "array", None)  # writing a column would raise TypeError
    with pytest.raises(PreconditionError, match=f"more than the supported {n - 1} formulas"):
        FormulaSlots(vars_, range(2), 2, 4)


def test_equivalence_with_blocks_on_one_side_only():
    """A (agent, kind) key whose blocks lie in one frame only evaluates,
    on the union frame, as each frame alone: the rows equal the
    world-by-world oracle's."""
    bounds = SearchBounds(2, 3, 1)
    ws = bounds.workspace()
    rng = random.Random(28)
    formulas = [
        f for f in naive_enumerate_formulas(ws.all_vars(), range(2), 2, 4)
        if fragment_check(f).in_doxastic_fragment
    ]
    hypergraphs = list(enumerate_models("all", bounds))
    one_sided = 0
    for n in range(120):
        mh = rng.choice(hypergraphs)
        size = rng.randint(1, 4)
        # agent b believes nothing in even rounds, so its B blocks lie in mh
        # alone; an agent whose vertices are in no tail of mh has them in mk alone
        belief = {
            a: rel(size, [(u, v) for u in range(size) for v in range(size) if rng.random() < 0.4])
            for a in range(2 if n % 2 else 1)
        }
        valuation = [{p for p in ws.all_vars() if rng.random() < 0.5} for _ in range(size)]
        mk = KripkeModel(ws, [f"w{i}" for i in range(size)], belief, valuation)
        mapping = {w: rng.choice(mh.edges).name for w in mk.worlds}
        fk, fh = mk.frame(), frame_h(mh)
        one_sided += any(
            bool(fk.blocks.get((a, BELIEF))) != bool(fh.blocks.get((a, BELIEF))) for a in range(2)
        )
        report = check_modal_equivalence(mk, mh, mapping, formulas)
        expected = naive_modal_equivalence(mk, mh, mapping, formulas)
        rows = [(r.state, r.formula, r.kripke_value, r.hypergraph_value) for r in expected]
        assert [
            (r.state, r.formula, r.kripke_value, r.hypergraph_value) for r in report.disagreements
        ] == rows
    assert one_sided >= 30
