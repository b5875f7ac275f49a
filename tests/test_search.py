import bisect
import hashlib
import itertools
import json
import math
import random
import time
from collections import Counter

import pytest

from hyperdox import (
    FragmentError,
    PreconditionError,
    SearchBounds,
    System,
    countermodel,
    enumerate_models,
    graph_metrics,
    parse_formula,
    soundness_suite,
    validate_model,
)
from hyperdox import hypergraph, search
from hyperdox.convert import FormulaSlots
from hyperdox.formula import And, Atom, Not, render_formula
from hyperdox.hypergraph import frame_h
from hyperdox.kernel import AND, ATOM, BOX, NOT, compile_formulas, evaluate, fragment_check, run
from hyperdox.modelio import hypergraph_to_json
from hyperdox.proofcheck import ADMITTED, SCHEMES, SchemeId
from hyperdox.workspace import Workspace
from randgen import random_formula
from oracles import (
    _remap_code,
    count_structures_naive,
    naive_placements,
    naive_satisfies_h,
    naive_scheme_instances,
    naive_structures,
)


def test_hand_enumerated_two_model_space():
    bounds = SearchBounds(1, 1, 0, max_vertices_per_agent=1)
    models = list(enumerate_models("all", bounds))
    assert len(models) == 2
    shapes = {
        (bool(m.edges[0].tail), bool(m.edges[0].head)) for m in models
    }
    assert shapes == {(True, False), (False, True)}


def test_class_filter_contract():
    bounds = SearchBounds(2, 2, 1)
    for cls in ("H_su", "H_sut"):
        for m in enumerate_models(cls, bounds):
            assert validate_model(m) == []
            metrics = graph_metrics(m)
            assert metrics.in_h_su
            if cls == "H_sut":
                assert metrics.in_h_sut


def test_all_emitted_models_validate():
    bounds = SearchBounds(2, 2, 0)
    for m in enumerate_models("all", bounds):
        assert validate_model(m) == []


@pytest.mark.parametrize("n_agents,max_edges", [(1, 2), (2, 2)])
def test_enumeration_count_matches_naive_oracle(n_agents, max_edges):
    bounds = SearchBounds(n_agents, max_edges, 0)
    ours = sum(1 for _ in enumerate_models("all", bounds))
    naive = count_structures_naive(n_agents, max_edges, bounds.vertex_cap)
    assert ours == naive


def test_enumeration_deterministic():
    bounds = SearchBounds(2, 2, 1)
    first = [hypergraph_to_json(m) for m in enumerate_models("H_su", bounds)]
    second = [hypergraph_to_json(m) for m in enumerate_models("H_su", bounds)]
    assert first == second


def test_consistency_countermodel_without_tail_completeness():
    bounds = SearchBounds(1, 2, 1)
    ws = bounds.workspace()
    f = parse_formula("~B{a}(p_a_1 & ~p_a_1)", ws)
    result = countermodel("H_su", f, bounds)
    assert result.outcome == "countermodel"
    # the witness's a-vertex lies in no tail
    witness = result.model
    idx = witness.edge_index(result.edge)
    (a_vertex,) = (v for v in witness.edges[idx].span if witness.vertices[v].color == 0)
    assert all(a_vertex not in e.tail for e in witness.edges)
    # witness re-verifies on the cache-free oracle
    assert not naive_satisfies_h(witness, idx, f)


def test_consistency_holds_on_tail_complete_class():
    bounds = SearchBounds(1, 2, 1)
    ws = bounds.workspace()
    f = parse_formula("~B{a}(p_a_1 & ~p_a_1)", ws)
    result = countermodel("H_sut", f, bounds)
    assert result.outcome == "exhausted"


def test_positive_introspection_exhausts():
    bounds = SearchBounds(1, 2, 1)
    ws = bounds.workspace()
    f = parse_formula("B{a} p_a_1 -> B{a} B{a} p_a_1", ws)
    assert countermodel("H_su", f, bounds).outcome == "exhausted"


def test_search_determinism_and_workers():
    bounds = SearchBounds(2, 2, 1)
    ws = bounds.workspace()
    f = parse_formula("B{a} p_b_1 -> p_b_1", ws)
    one = countermodel("H_sut", f, bounds)
    again = countermodel("H_sut", f, bounds)
    parallel = countermodel("H_sut", f, bounds, workers=3)
    assert one.outcome == again.outcome == parallel.outcome == "countermodel"
    assert one.models_visited == again.models_visited == parallel.models_visited
    assert one.edge == again.edge == parallel.edge
    assert hypergraph_to_json(one.model) == hypergraph_to_json(parallel.model)


def test_fragment_violation_over_h_su():
    bounds = SearchBounds(1, 1, 1)
    ws = bounds.workspace()
    f = parse_formula("K{a} p_a_1 -> p_a_1", ws)
    message = "^knowledge modalities are only admitted over the tail-complete class$"
    with pytest.raises(FragmentError, match=message):
        countermodel("H_su", f, bounds)
    assert countermodel("H_sut", f, bounds).outcome == "exhausted"


def test_sampled_placements_beyond_two_vars():
    # vars_per_agent > 2 switches from exhaustive to seeded sampling
    bounds = SearchBounds(1, 1, 3)
    first = [hypergraph_to_json(m) for m in enumerate_models("H_su", bounds, seed=5)]
    second = [hypergraph_to_json(m) for m in enumerate_models("H_su", bounds, seed=5)]
    other = [hypergraph_to_json(m) for m in enumerate_models("H_su", bounds, seed=6)]
    assert first == second
    assert first != other
    structures = 2  # one vertex, tail or head
    assert len(first) <= structures * 32
    for m in enumerate_models("H_su", bounds, seed=5):
        assert validate_model(m) == []
    # the sampled streams equal the ones recorded before orderly generation
    # (sampling seeds on repr((seed, structure)), so structures stay tuples)
    pinned = {
        ((1, 1, 3), "H_su"): (16, "c249183829294d15d2d5cfd4f376cb4f8633e43acb2ba7dcf43276a4b52d835c"),
        ((2, 2, 3), "H_su"): (1034, "a758505432cbc62bdfc2b9a411c138da9a212aa1c369363015035a99bd7e67ba"),
        ((2, 2, 3), "H_sut"): (181, "5e72a6938c80791899f66540bd1ae207ba174596a8832fa8afaa9a4f9553b91e"),
        ((1, 2, 3), "all"): (118, "6006b3112471039757b7e5ffc09953f753271f328d6bccf6ecde89fb20cac1d8"),
    }
    for (b, cls), (count, digest) in pinned.items():
        stream = [hypergraph_to_json(m) for m in enumerate_models(cls, SearchBounds(*b), seed=5)]
        assert len(stream) == count
        assert hashlib.sha256(json.dumps(stream, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "bounds, seed",
    [
        pytest.param(b, seed, id=",".join(map(str, b)) + f"-seed{seed}")
        for b, seed in (((2, 3, 1), 0), ((2, 2, 2), 0), ((3, 2, 1), 0), ((2, 2, 3), 0),
                        ((2, 2, 3), 5), ((1, 3, 4), 0), ((1, 3, 4), 5))
    ],
)
def test_int_placements_build_the_oracle_models(bounds, seed):
    # each int placement is exhaustive below three variables and sampled
    # from three on, and _build_model gives each vertex the atoms of the
    # tuple-of-sets placement the oracle lists at the same position, with
    # one dict of atom sets shared by every model of the bounds
    bounds = SearchBounds(*bounds)
    ws, vars_of, atom_sets = bounds.workspace(), search._vars_of(bounds), {}
    for cls in search.CLASSES:
        for structure in search._structures(bounds, cls):
            skeleton = search._skeleton(ws, structure)
            slots = skeleton[0]
            placements = search._placements(structure, len(slots), bounds, seed)
            naive = naive_placements(ws, structure, slots, bounds.vars_per_agent, seed)
            if bounds.vars_per_agent <= 2:
                assert placements == range(len(naive))
            else:
                assert type(placements) is list and len(set(placements)) == len(placements)
            assert len(placements) == len(naive)
            for placement, sets in zip(placements, naive):
                model = search._build_model(ws, vars_of, atom_sets, skeleton, placement)
                assert [(v.id, v.color, v.atoms) for v in model.vertices.values()] == [
                    (f"{ws.agents[a]}{v + 1}", a, atoms) for (a, v), atoms in zip(slots, sets)
                ]


def test_exhausting_countermodel_builds_no_workspace(monkeypatch):
    # the lane frames need only the bounds; a workspace is built for a
    # witness the cache does not hold, and not for an exhausted search
    bounds = SearchBounds(2, 2, 1)
    ws = bounds.workspace()
    valid = parse_formula("B{a}p_a_1 -> B{a}B{a}p_a_1", ws)
    falsifiable = parse_formula("B{a} p_b_1 -> p_b_1", ws)
    found = countermodel("H_sut", falsifiable, bounds)

    def unused(*args):
        raise AssertionError("countermodel built a workspace")

    monkeypatch.setattr(search, "synthetic_workspace", unused)
    assert countermodel("H_sut", valid, bounds).outcome == "exhausted"
    assert countermodel("H_sut", falsifiable, bounds) is found


def test_unknown_class_rejected():
    bounds = SearchBounds(1, 1, 0)
    with pytest.raises(PreconditionError):
        list(enumerate_models("H_xyz", bounds))


def test_countermodel_rejects_unknown_class_and_workers_below_one():
    bounds = SearchBounds(1, 1, 1)
    f = parse_formula("p_a_1", bounds.workspace())
    with pytest.raises(PreconditionError):
        countermodel("H_xyz", f, bounds)
    for workers in (0, -3):
        with pytest.raises(PreconditionError):
            countermodel("H_su", f, bounds, workers=workers)


def test_soundness_suite_class_mismatch():
    bounds = SearchBounds(1, 1, 1)
    with pytest.raises(PreconditionError):
        soundness_suite(System.LOC_KD45, "H_su", bounds, 1)


def test_soundness_suite_small_run_clean():
    bounds = SearchBounds(1, 2, 1)
    report = soundness_suite(System.LOC_K45, "H_su", bounds, 1, instantiation_size=2)
    assert report.violations == []
    assert report.models_visited > 0 and report.instances_checked > 0
    data = report.to_json()
    assert list(data) == [
        "system", "violations", "models_visited", "elapsed_ms", "class", "instances_checked"
    ]
    assert (data["system"], data["class"]) == ("LocK45", "H_su")
    assert data["instances_checked"] == report.instances_checked


def test_non_theorem_spot_checks():
    # belief about another agent's variable is not factive
    bounds2 = SearchBounds(2, 2, 1)
    ws2 = bounds2.workspace()
    f = parse_formula("B{a} p_b_1 -> p_b_1", ws2)
    assert countermodel("H_sut", f, bounds2).outcome == "countermodel"
    # nor is it veridically forced by the fact itself
    g = parse_formula("p_b_1 -> B{a} p_b_1", ws2)
    assert countermodel("H_sut", g, bounds2).outcome == "countermodel"
    # unconditional disbelief is not a theorem
    bounds = SearchBounds(1, 2, 1)
    ws = bounds.workspace()
    h = parse_formula("~B{a} p_a_1", ws)
    assert countermodel("H_sut", h, bounds).outcome == "countermodel"


def test_own_variable_belief_is_factive_within_bounds():
    # the local-veracity effect: for the agent's own variable the
    # implication exhausts, unlike the foreign-variable case above
    bounds = SearchBounds(2, 2, 1)
    ws = bounds.workspace()
    f = parse_formula("B{a} p_a_1 -> p_a_1", ws)
    assert countermodel("H_sut", f, bounds).outcome == "exhausted"


def _per_model_violations(system, cls, bounds, *sizes):
    """(naive instances, models, the suite's violations as found by
    evaluating the naive instances on one model at a time)."""
    ws = bounds.workspace()
    instances = naive_scheme_instances(system, ws, *sizes)
    prog = compile_formulas(inst for _, inst in instances)
    expected = []
    models = list(enumerate_models(cls, bounds))
    for index, model in enumerate(models, 1):
        frame = frame_h(model)
        for (scheme, inst), mask in zip(instances, evaluate(prog, frame)):
            for _, i in frame.failures(mask):
                expected.append(
                    {
                        "scheme": scheme.value,
                        "instance": render_formula(inst, ws),
                        "model_index": index,
                        "edge": model.edges[i].name,
                    }
                )
    return instances, models, expected


def test_chunked_suite_matches_per_model_evaluation(monkeypatch):
    # LocKD45 over H_su is unsound (D_B fails where a vertex lies in no
    # tail), so the suite reports violations from many lane frames;
    # they must be exactly those of evaluating one model at a time
    monkeypatch.setitem(search.SYSTEM_CLASS, System.LOC_KD45, "H_su")
    bounds = SearchBounds(2, 2, 1)
    ws = bounds.workspace()
    report = soundness_suite(System.LOC_KD45, "H_su", bounds, 1)
    instances, models, expected = _per_model_violations(System.LOC_KD45, "H_su", bounds, 1)
    assert report.models_visited == len(models)
    # the last model index of each frame, and the frames with a violation
    ends = list(itertools.accumulate(f.width for *_, f in search._lanes("H_su", bounds, 0)))
    assert ends[-1] == len(models)
    assert len({bisect.bisect_left(ends, v["model_index"]) for v in report.violations}) > 1
    assert len(report.violations) == 13600
    assert report.violations == expected
    # spot-check the reported first failing edges on the oracle
    by_text = {render_formula(inst, ws): inst for _, inst in instances}
    for v in report.violations[::997]:
        model = models[v["model_index"] - 1]
        inst = by_text[v["instance"]]
        edge = model.edge_index(v["edge"])
        assert not naive_satisfies_h(model, edge, inst)
        assert all(naive_satisfies_h(model, i, inst) for i in range(edge))


def test_suite_reports_an_instance_failing_at_the_first_state_alone(monkeypatch):
    # EDL over every hypergraph: some instance of the first lane frame
    # fails at its state 0 and nowhere else, so a suite that skipped a
    # root by a wrong test on its mask would miss that violation
    monkeypatch.setitem(search.SYSTEM_CLASS, System.EDL, "all")
    bounds = SearchBounds(2, 1, 1)
    report = soundness_suite(System.EDL, "all", bounds, 1, 2)
    _, _, expected = _per_model_violations(System.EDL, "all", bounds, 1, 2)
    assert report.violations == expected and len(expected) == 370
    # every model has one edge, so each violation is one state (lane) of
    # its frame
    width = next(search._lanes("all", bounds, 0))[3].width
    assert width > 1
    in_first = Counter(v["instance"] for v in expected if v["model_index"] <= width)
    assert any(in_first[v["instance"]] == 1 for v in expected if v["model_index"] == 1)


def test_letter_suite_matches_per_model_evaluation(monkeypatch):
    # the suite checks each scheme once per tuple of letters, the distinct
    # formula masks on a lane frame; its violations must be those of
    # evaluating every instance one model at a time, on runs where a
    # violating letter holds several formulas
    shared = False
    for system, cls, bounds, sizes in (
        (System.EDL, "all", (2, 2, 1), (1, 3)),
        (System.LOC_KD45, "H_su", (2, 2, 1), (2, 3)),
        (System.LOC_KD45, "H_su", (3, 1, 1), (1, 2)),
    ):
        monkeypatch.setitem(search.SYSTEM_CLASS, system, cls)
        bounds = SearchBounds(*bounds)
        ws = bounds.workspace()
        report = soundness_suite(system, cls, bounds, *sizes)
        instances, models, expected = _per_model_violations(system, cls, bounds, *sizes)
        assert report.violations == expected and report.instances_checked == len(instances)
        formulas = FormulaSlots(ws.all_vars(), range(ws.n_agents), *sizes)
        prog = formulas.program
        masks = []  # per model, the formula masks on the suite's frame of it
        for _, _, _, frame in search._lanes(cls, bounds, 0):
            masks += [evaluate(prog, frame)] * frame.width
        assert len(masks) == len(models)
        # every instance (pattern, values), each value ranging over the
        # formulas or the agent's variables, renders as a naive instance
        patterns = search._patterns(system, ws)
        origin_of = {}
        for pattern in patterns:
            ranges = (range(bounds.vars_per_agent if n == "p" else len(formulas)) for n in pattern[-1])
            for values in itertools.product(*ranges):
                text = render_formula(search.instance_formula(pattern, values, formulas), ws)
                origin_of[pattern[0].value, text] = pattern, values
        assert set(origin_of) == {(s.value, render_formula(inst, ws)) for s, inst in instances}
        assert len(origin_of) == len(instances)
        for v in expected:
            (*_, names), values = origin_of[v["scheme"], v["instance"]]
            on_frame = masks[v["model_index"] - 1]
            shared |= any(
                name != "p" and on_frame.count(on_frame[x]) > 1 for name, x in zip(names, values)
            )
    assert shared


@pytest.mark.parametrize(
    "bounds, cls",
    [((2, 1, 2), "H_su"), ((2, 1, 3), "H_su"), ((2, 1, 2), "all")],
    ids=["vars2", "vars3", "vars2_all"],
)
def test_letter_suite_expands_two_letter_and_loc_roots(monkeypatch, bounds, cls):
    # K_B, K_K and Loc hold on every model of every class, so no suite
    # fails a tuple of two letters or one of Loc's; falsifiable stand-ins
    # with the same metavariables check that such tuples expand in
    # instance order, with Loc's p at its position among the agent's
    # variables; three variables per agent take the sampled placements,
    # and in class all an agent may lie on no edge, so that its two
    # variables share mask 0 and one of Loc's tuples holds both
    meta = Workspace(("a",), (("phi", "psi", "p"),))
    monkeypatch.setitem(SCHEMES, SchemeId.K_B, parse_formula("B{a}phi -> psi", meta))
    monkeypatch.setitem(SCHEMES, SchemeId.LOC, parse_formula("B{a}p", meta))
    monkeypatch.setitem(search.SYSTEM_CLASS, System.LOC_K45, cls)
    bounds = SearchBounds(*bounds)
    report = soundness_suite(System.LOC_K45, cls, bounds, 1, 2)
    instances, _, expected = _per_model_violations(System.LOC_K45, cls, bounds, 1, 2)
    assert report.violations == expected and report.instances_checked == len(instances)
    assert {"K_B", "Loc"} <= {v["scheme"] for v in expected}
    if cls == "all":
        assert (len(expected), sum(v["scheme"] == "Loc" for v in expected)) == (27896, 72)
        vars_of = search._vars_of(bounds)
        assert any(
            {frame.atoms.get(p, 0) for p in agent_vars} == {0}
            for *_, frame in search._lanes(cls, bounds, 0)
            for agent_vars in vars_of
        )


def test_suite_follows_schemes_and_admitted(monkeypatch):
    # a suite run after SCHEMES or ADMITTED changes, and again after they
    # are restored, must check the schemes then in force
    bounds = SearchBounds(2, 1, 2)

    def violations():
        report = soundness_suite(System.LOC_K45, "H_su", bounds, 1, 2)
        _, _, expected = _per_model_violations(System.LOC_K45, "H_su", bounds, 1, 2)
        assert report.violations == expected
        return len(expected)

    meta = Workspace(("a",), (("phi", "psi", "p"),))
    assert violations() == 0
    with monkeypatch.context() as patched:
        patched.setitem(SCHEMES, SchemeId.K_B, parse_formula("B{a}phi -> psi", meta))
        patched.setitem(SCHEMES, SchemeId.LOC, parse_formula("B{a}p", meta))
        assert violations() == 22176
    assert violations() == 0
    with monkeypatch.context() as patched:
        patched.setitem(ADMITTED, System.LOC_K45, ADMITTED[System.LOC_K45] | {SchemeId.D_B})
        assert violations() == 1536
    assert violations() == 0


def test_pattern_steps_are_all_read():
    # an implication compiles through ~~phi, which folds on the tree, so
    # the ~phi it skips is never emitted: K_B's pattern has 12 steps, and
    # in every pattern each step but the last, the root, is read by a
    # later one; there is one entry per scheme and agent, and the atoms
    # are the metavariables, numbered in ascending order
    patterns = search._patterns(System.EDL, SearchBounds(2, 1).workspace())
    assert [(scheme, agent) for scheme, agent, *_ in patterns] == list(
        itertools.product(SchemeId, range(2))
    )
    steps = {scheme: steps for scheme, _, steps, _, _ in patterns}
    names = {scheme: names for scheme, *_, names in patterns}
    assert len(steps) == len(SchemeId) and len(steps[SchemeId.K_B]) == 12
    assert names[SchemeId.K_B] == ("phi", "psi") and names[SchemeId.LOC] == ("p",)
    for scheme, pattern in steps.items():
        read = {a for op, a, _ in pattern if op in (NOT, AND)}
        read |= {b for op, _, b in pattern if op in (AND, BOX)}
        assert read == set(range(len(pattern) - 1))
        assert {a for op, a, _ in pattern if op == ATOM} == set(range(len(names[scheme])))


@pytest.mark.parametrize("depth, size, instances", [(1, 0, 2), (0, 1, 18)])
def test_suite_at_degenerate_instantiation_bounds(depth, size, instances):
    # size 0 enumerates no formula, yet Loc's two instances are checked on
    # every model; depth 0, size 1 enumerates the two atoms alone
    report = soundness_suite(System.LOC_K45, "H_su", SearchBounds(2, 2, 1), depth, size)
    assert (report.violations, report.models_visited, report.instances_checked) == (
        [],
        336,
        instances,
    )


@pytest.mark.parametrize("bounds", [(1, 5, 1), (2, 2, 1), (2, 3, 1), (3, 2, 0)])
@pytest.mark.parametrize("cls", search.CLASSES)
def test_orderly_stream_equals_naive_stream(bounds, cls):
    bounds = SearchBounds(*bounds)
    naive = naive_structures(bounds.n_agents, bounds.max_edges, bounds.vertex_cap, cls)
    assert list(search._structures(bounds, cls)) == naive


# (count, sha256 of repr(list)) of the stream, recorded with the
# generate-then-filter generator, which takes about 15 s per class here
PINNED_STREAMS = {
    ((2, 4, 0), "H_su"): (1837, "071b080eb5fca57306fc389d5939bb0910ed7ab0a05e5607a34d5d1e188830a5"),
    ((2, 4, 0), "H_sut"): (148, "9a77e8328fa5f69332f3e909653a2e1ba0ce64be32a79691402392e127e4298d"),
    ((2, 4, 0), "all"): (9685, "1db0c36d3714fbdbdee89ed588fd96955f06ff72e8acb544d474d9f244a68749"),
    ((2, 4, 1, 3), "H_su"): (1262, "85ca0210533a571f98076631fba2dd408412a99e7d6742d6350b0961c812795c"),
    ((2, 4, 1, 3), "H_sut"): (123, "d7cb7103e34d27e40b4657f5856cdd09f2ea23d38e5ee10f6158d1c63d181fc8"),
    ((2, 4, 1, 3), "all"): (8628, "1fb9dd93e6acdd0051b4539beb5c06bd488de86785392c3a8d0322a541b6dbe9"),
    # where the renaming maps go deeper, recorded with the canonicity test
    # that rebuilt every image from per-code shift lists: uncapped, both
    # agents reach five vertices (120 renamings each), and three agents
    # give three levels of maps
    ((2, 5, 1), "H_sut"): (848, "72797a5ab99e5457e6da2eecab12080891acfd6cd4ad485fdbab3598023deb4b"),
    ((3, 4, 1, 2), "H_sut"): (5397, "b8d99f4e0aa8c1a24c9730cef329eb53bf0c7b3a3395289567c330e14ecdf0ad"),
    # the deepest capped stream, recorded with the generator that re-walked
    # every prefix once per size
    ((2, 6, 1, 3), "H_sut"): (1961, "9e97c62c85f9ca5c3a8a8e8eb5a7bcda3a93b270eb98207009e87f2ac23a8187"),
}


@pytest.mark.parametrize("bounds,cls", list(PINNED_STREAMS))
def test_orderly_stream_pinned_at_larger_bounds(bounds, cls):
    stream = list(search._structures(SearchBounds(*bounds), cls))
    assert all(type(s) is tuple and all(type(e) is tuple for e in s) for s in stream)
    digest = hashlib.sha256(repr(stream).encode()).hexdigest()
    assert (len(stream), digest) == PINNED_STREAMS[bounds, cls]


@pytest.mark.parametrize("n,cap,uniform", [(2, 3, True), (2, 3, False), (3, 2, True), (3, 2, False)])
def test_renamings_remap_each_descriptor(n, cap, uniform):
    t = search._Tables(n, cap, uniform)
    index = {desc: i for i, desc in enumerate(t.descs)}
    for a in range(n):
        for k in range(cap + 1):
            maps = t.renamings(a, k)
            perms = list(itertools.permutations(range(k)))[1:]  # all but the identity
            assert len(maps) == len(perms)
            for perm, m in zip(perms, maps):
                assert sorted(m) == list(range(len(t.descs)))
                whole = list(perm) + list(range(k, cap))  # fixes the vertices from k on
                for i, desc in enumerate(t.descs):
                    if not 0 < desc[a] <= 2 * k:  # names no vertex below k of agent a
                        assert m[i] == i
                    image = desc[:a] + (_remap_code(desc[a], whole),) + desc[a + 1:]
                    assert m[i] == index[image]
            assert t.renamings(a, k) is maps  # built once


def _naive_is_least(t, chosen, used):
    """Every image of chosen under a product of per-agent permutations of
    each agent's vertices 0..k-1 (k-1 its highest in used) sorts >= chosen."""
    perms = [itertools.permutations(range(seg.bit_length())) for seg in t.segments(used)]
    index = {desc: i for i, desc in enumerate(t.descs)}
    for combo in itertools.product(*map(list, perms)):
        image = sorted(
            index[tuple(_remap_code(c, combo[a]) for a, c in enumerate(t.descs[i]))] for i in chosen
        )
        if image < chosen:
            return False
    return True


def _record_tested(monkeypatch) -> list:
    """Record (tables, prefix, used mask, result) for every is_least call."""
    tested = []
    is_least = search._Tables.is_least

    def recording(self, chosen, used):
        result = is_least(self, chosen, used)
        tested.append((self, list(chosen), used, result))
        return result

    monkeypatch.setattr(search._Tables, "is_least", recording)
    return tested


@pytest.mark.parametrize("bounds", [(2, 3, 1), (3, 2, 0)])
@pytest.mark.parametrize("cls", search.CLASSES)
def test_is_least_equals_naive_test_on_every_prefix(monkeypatch, bounds, cls):
    tested = _record_tested(monkeypatch)
    list(search._structures(SearchBounds(*bounds), cls))
    assert any(result for *_, result in tested) and not all(result for *_, result in tested)
    for t, chosen, used, result in tested:
        assert result == _naive_is_least(t, chosen, used), (chosen, used)


@pytest.mark.parametrize(
    "bounds,cls", [((2, 4, 1, 3), cls) for cls in search.CLASSES] + [((2, 3, 0), "all")]
)
def test_each_prefix_is_tested_once(monkeypatch, bounds, cls):
    # the stream is built a level at a time, so no size re-walks the
    # prefixes of the sizes before it
    tested = _record_tested(monkeypatch)
    bounds = SearchBounds(*bounds)
    stream = list(search._structures(bounds, cls))
    prefixes = [tuple(chosen) for _, chosen, *_ in tested]
    assert stream and len(set(prefixes)) == len(prefixes)
    assert {len(p) for p in prefixes} == set(range(1, bounds.max_edges + 1))


def test_stopping_at_two_edges_tests_no_three_edge_prefix(monkeypatch):
    # a level's structures are yielded while it is built, so a consumer
    # that stops at the first 2-edge structure never builds level 3
    tested = _record_tested(monkeypatch)
    for structure in search._structures(SearchBounds(2, 4, 1, 3), "H_sut"):
        if len(structure) == 2:
            break
    assert len(structure) == 2 and max(len(chosen) for _, chosen, *_ in tested) == 2


@pytest.mark.parametrize("cls", search.CLASSES)
def test_structure_frames_equal_model_frames(monkeypatch, cls):
    # with one lane per window, each frame the suite and countermodel read,
    # with that placement's atom masks set, is the frame of the model
    # enumerate_models builds there
    monkeypatch.setattr(search, "_LANES", 1)
    bounds = SearchBounds(2, 3, 1)
    frames = search._lanes(cls, bounds, 0)
    for (_, _, _, frame), model in zip(frames, enumerate_models(cls, bounds), strict=True):
        expected = frame_h(model)
        assert frame.atoms == expected.atoms
        assert (frame.size, frame.width) == (expected.size, expected.width) == (model.n_edges, 1)
        assert {k: sorted(v) for k, v in frame.blocks.items()} == {
            k: sorted(v) for k, v in expected.blocks.items()
        }


# (bounds, seed, test id suffix) of the naive walk. The seed only moves the
# placements that (2, 2, 3) samples. The first case keeps the bare class as
# its test id.
WALK_CASES = (((2, 3, 1), 0, ""), ((2, 2, 2), 0, "-2,2,2"), ((2, 2, 3), 0, "-2,2,3-seed0"),
              ((2, 2, 3), 5, "-2,2,3-seed5"))


@pytest.mark.parametrize(
    "cls, bounds, seed",
    [
        pytest.param(cls, b, seed, id=cls + suffix)
        for b, seed, suffix in WALK_CASES
        for cls in search.CLASSES
    ],
)
def test_countermodel_frames_match_naive_walk(monkeypatch, cls, bounds, seed):
    # lane frames against a walk of enumerate_models on the oracle, with
    # windows of _LANES placements and of 1 and 4
    bounds = SearchBounds(*bounds)
    ws = bounds.workspace()
    rng = random.Random(f"frames-{cls}")
    formulas = [
        parse_formula("B{a}p_a_1 -> B{a}B{a}p_a_1", ws),
        parse_formula("B{b}(p_a_1 & p_b_1) -> B{b}p_b_1", ws),  # valid on every frame
    ]
    while len(formulas) < 30:
        f = random_formula(rng, ws.all_vars(), [0, 1], 2, 7)
        if cls != "H_su" or fragment_check(f).in_doxastic_fragment:
            formulas.append(f)
    models = list(enumerate_models(cls, bounds, seed))
    outcomes = set()
    for f in formulas:
        expected = ("exhausted", len(models), None, None)
        for index, model in enumerate(models, 1):
            bad = [i for i in range(model.n_edges) if not naive_satisfies_h(model, i, f)]
            if bad:
                witness = hypergraph_to_json(model)
                expected = ("countermodel", index, model.edges[bad[0]].name, witness)
                break
        for lanes in (search._LANES, 1, 4):
            monkeypatch.setattr(search, "_LANES", lanes)
            result = countermodel(cls, f, bounds, seed)
            witness = None if result.model is None else hypergraph_to_json(result.model)
            assert (result.outcome, result.models_visited, result.edge, witness) == expected
            again = countermodel(cls, f, bounds, seed)
            assert again.model is result.model
        outcomes.add(result.outcome)
    assert outcomes == {"countermodel", "exhausted"}


@pytest.mark.parametrize("lanes", [None, 4], ids=["lanes_default", "lanes_4"])
@pytest.mark.parametrize("bounds", [(2, 3, 1), (2, 2, 3)], ids=["2,3,1", "2,2,3"])
def test_lane_k_is_the_kth_placement(monkeypatch, bounds, lanes):
    # lane k of the window at offset of a structure is the frame_h of the
    # model at the structure's placement offset + k: the same atom masks,
    # and the same first failing edge of each formula
    if lanes is not None:
        monkeypatch.setattr(search, "_LANES", lanes)
    bounds = SearchBounds(*bounds)
    ws = bounds.workspace()
    rng = random.Random("lanes")
    prog = compile_formulas(random_formula(rng, ws.all_vars(), [0, 1], 2, 7) for _ in range(12))
    for cls in search.CLASSES:
        stream = (
            (s, p)
            for s in search._structures(bounds, cls)
            for p in search._placements(s, len(search._slots(s)), bounds, 5)
        )
        models = zip(stream, enumerate_models(cls, bounds, 5))
        seen = {}  # structure -> its placements read so far
        for structure, placements, offset, frame in search._lanes(cls, bounds, 5):
            width, edges = frame.width, range(len(structure))
            assert frame.size == len(structure) * width and offset == seen.get(structure, 0)
            seen[structure] = offset + width
            fails = [dict(frame.failures(mask)) for mask in evaluate(prog, frame)]
            for k in range(width):
                (s, placement), model = next(models)
                assert s == structure and placement == placements[offset + k]
                single = frame_h(model)
                lane = {
                    p: sum((mask >> e * width + k & 1) << e for e in edges)
                    for p, mask in frame.atoms.items()
                }
                assert {p: m for p, m in lane.items() if m} == {
                    p: m for p, m in single.atoms.items() if m
                }
                first = [dict(single.failures(mask)).get(0) for mask in evaluate(prog, single)]
                assert first == [fail.get(k) for fail in fails]
        assert next(models, None) is None


# (system, class, models_visited, instances_checked) of the three suites at
# SearchBounds(2, 2, 1), instantiation depth 1 and size 3
SUITE_COUNTS = (
    (System.LOC_K45, "H_su", 336, 2450),
    (System.LOC_KD45, "H_sut", 52, 2518),
    (System.EDL, "H_sut", 52, 5238),
)
# (count, sha256 of json.dumps(report.violations)) for LocKD45 forced onto
# H_su at (2, 2, 1), recorded when the instances were built as Formula trees
FORCED_VIOLATIONS = (13600, "bece632194a15d731c1a9ca8d3202581a580296050e0e7916538adc7ea44a1fe")


@pytest.mark.parametrize("lanes", [None, 4, 1], ids=["lanes_default", "lanes_4", "lanes_1"])
def test_suite_counts_and_forced_violations_pinned(monkeypatch, lanes):
    # the suite frames the stream from per-structure blocks, with no model,
    # and gives the same report whether or not its windows split structures
    if lanes is not None:
        monkeypatch.setattr(search, "_LANES", lanes)

    def unused(*args):
        raise AssertionError("soundness_suite builds a model or a model frame")

    monkeypatch.setattr(search, "_build_model", unused)
    monkeypatch.setattr(hypergraph, "frame_h", unused)
    bounds = SearchBounds(2, 2, 1)
    for system, cls, models, instances in SUITE_COUNTS:
        report = soundness_suite(system, cls, bounds, 1)
        assert (report.violations, report.models_visited, report.instances_checked) == (
            [],
            models,
            instances,
        )
    monkeypatch.setitem(search.SYSTEM_CLASS, System.LOC_KD45, "H_su")
    report = soundness_suite(System.LOC_KD45, "H_su", bounds, 1)
    digest = hashlib.sha256(json.dumps(report.violations).encode()).hexdigest()
    assert (len(report.violations), digest) == FORCED_VIOLATIONS


@pytest.mark.parametrize("packed", [1, 100], ids=["one_tuple", "few_tuples"])
def test_forced_violations_hold_across_tuple_windows(monkeypatch, packed):
    # with windows of one tuple, or of a few, the suite decodes each
    # failing copy at its window's offset into the same violations, in the
    # same order, as with whole patterns in one run
    monkeypatch.setattr(search, "_PACKED", packed)
    monkeypatch.setitem(search.SYSTEM_CLASS, System.LOC_KD45, "H_su")
    report = soundness_suite(System.LOC_KD45, "H_su", SearchBounds(2, 2, 1), 1)
    digest = hashlib.sha256(json.dumps(report.violations).encode()).hexdigest()
    assert (len(report.violations), digest) == FORCED_VIOLATIONS


@pytest.mark.parametrize(
    "system,depth,size",
    [(System.LOC_K45, 1, 3), (System.LOC_KD45, 1, 3), (System.EDL, 1, 3), (System.EDL, 2, 3)],
)
def test_emitted_instances_match_naive_instances(system, depth, size):
    # the suite's instances against Formula trees built by
    # instantiate_scheme: each copy of each packed run _instance_masks
    # yields, expanded over its tuple's index lists and sorted by
    # (pattern, values), gives the naive instances in order, each rebuilt
    # with its ~~ shapes intact and with its mask on every frame the suite
    # reads
    bounds = SearchBounds(2, 2, 1)
    ws = bounds.workspace()
    formulas = FormulaSlots(ws.all_vars(), range(ws.n_agents), depth, size)
    naive = naive_scheme_instances(system, ws, depth, size)
    expected = compile_formulas(inst for _, inst in naive)
    masks_of = formulas.program
    patterns = search._patterns(system, ws)
    for _, _, _, frame in search._lanes(search.SYSTEM_CLASS[system], bounds, 0):
        want = evaluate(expected, frame)
        letters = search._groups(evaluate(masks_of, frame))
        own = [search._groups(frame.atoms.get(p, 0) for p in ps) for ps in search._vars_of(bounds)]
        ours = sorted(
            (j, values, root >> c * frame.size & frame.full)
            for j, domains, start, count, root in search._instance_masks(
                patterns, frame, letters, own
            )
            for c in range(count)
            for values in itertools.product(*(i for _, i in search._unrank(domains, start + c)))
        )
        assert [(patterns[j][0], m) for j, _, m in ours] == [
            (scheme, w) for (scheme, _), w in zip(naive, want)
        ]
    for (j, values, _), (_, inst) in zip(ours, naive):  # the instances do not depend on the frame
        assert search.instance_formula(patterns[j], values, formulas) == inst
    phis = (formulas[values[0]] for j, values, _ in ours if patterns[j][-1][0] == "phi")
    assert any(type(f) is Not and type(f.sub) is Not for f in phis)  # phi = ~~x occurs


@pytest.mark.parametrize(
    "bounds, lanes, packed",
    [((2, 2, 1), None, None), ((2, 2, 1), 1, None), ((2, 2, 1), None, 200), ((2, 1, 3), None, 1)],
    ids=["lane_frames", "width_1", "split_windows", "sampled_one_tuple_windows"],
)
def test_packed_runs_match_per_tuple_runs_and_the_oracle(monkeypatch, bounds, lanes, packed):
    # each copy of a packed run of a pattern must be the root mask of a run
    # of the pattern on that copy's tuple alone, and, on a seeded sample of
    # copies, the oracle's truth of an instance the tuple stands for on each
    # lane's model and edge; a pattern's windows must cover its tuples once,
    # in order. Falsifiable stand-ins for four schemes, one of them with
    # all three metavariables, keep the roots from being full everywhere.
    # A contradiction among the formulas gives a letter whose mask is 0,
    # and each frame runs again with its first letter alone, so that every
    # domain has one key and every pattern one tuple
    meta = Workspace(("a",), (("phi", "psi", "p"),))
    for scheme, text in (
        (SchemeId.K_B, "B{a}phi -> psi"),
        (SchemeId.K_K, "K{a}(phi & ~psi) | B{a}psi"),
        (SchemeId.LOC, "B{a}p -> phi"),
        (SchemeId.SPI, "B{a}(phi -> p) -> K{a}psi"),
    ):
        monkeypatch.setitem(SCHEMES, scheme, parse_formula(text, meta))
    if lanes is not None:
        monkeypatch.setattr(search, "_LANES", lanes)
    if packed is not None:
        monkeypatch.setattr(search, "_PACKED", packed)
    rng = random.Random(20261021)
    bounds = SearchBounds(*bounds)
    ws = bounds.workspace()
    slots = FormulaSlots(ws.all_vars(), range(ws.n_agents), 1, 2)
    p = Atom(ws.all_vars()[0])
    formulas = [slots[i] for i in range(len(slots))] + [And(p, Not(p))]
    prog = compile_formulas(formulas)
    patterns = search._patterns(System.EDL, ws)
    vars_of = search._vars_of(bounds)
    models = enumerate_models("all", bounds)
    widest = split = sampled = 0
    for *_, frame in search._lanes("all", bounds, 0):
        window = [next(models) for _ in range(frame.width)]
        edges = range(frame.size // frame.width)
        letters = search._groups(evaluate(prog, frame))
        assert any(mask == 0 for mask, _ in letters)
        own = [search._groups(frame.atoms.get(v, 0) for v in vs) for vs in vars_of]
        for domain in (letters, letters[:1]):
            ends = {}
            runs = search._instance_masks(patterns, frame, domain, own)
            for j, domains, start, count, root in runs:
                _, agent, steps, kinds, names = patterns[j]
                assert start == ends.get(j, 0) and count > 0
                ends[j] = start + count
                widest, split = max(widest, count), split or start > 0
                if packed is not None:
                    assert count * frame.size <= max(packed, frame.size)
                boxes = [frame.box((agent, kind)) for kind in kinds]
                for c in range(count):
                    tup = search._unrank(domains, start + c)
                    mask = root >> c * frame.size & frame.full
                    assert mask == run(steps, [m for m, _ in tup], boxes, frame.full)[-1]
                    if rng.random() < 0.05:
                        sampled += 1
                        values = tuple(rng.choice(indices) for _, indices in tup)
                        inst = search.instance_formula(patterns[j], values, formulas)
                        for k, model in enumerate(window):
                            assert [mask >> e * frame.width + k & 1 == 1 for e in edges] == [
                                naive_satisfies_h(model, e, inst) for e in edges
                            ]
            assert ends == {
                j: math.prod(len(own[agent]) if name == "p" else len(domain) for name in names)
                for j, (_, agent, _, _, names) in enumerate(patterns)
            }
            if len(domain) == 1 and bounds.vars_per_agent == 1:
                assert set(ends.values()) == {1}
    assert next(models, None) is None and sampled > 0
    assert widest > 1 if packed is None else split


def test_suite_reports_its_own_running_time():
    # elapsed runs from the suite's own start, whatever its loops name
    clock = time.perf_counter()
    report = soundness_suite(System.LOC_K45, "H_su", SearchBounds(2, 1, 1), 1)
    assert 0 < report.elapsed <= time.perf_counter() - clock
