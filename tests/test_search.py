import hashlib
import itertools
import json
import random
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
from hyperdox.formula import Not, render_formula
from hyperdox.hypergraph import frame_h
from hyperdox.kernel import AND, BOX, NOT, Frame, compile_formulas, evaluate, fragment_check, union
from hyperdox.modelio import hypergraph_to_json
from hyperdox.proofcheck import ADMITTED, SCHEMES, SchemeId
from hyperdox.workspace import Workspace
from randgen import random_formula
from oracles import count_structures_naive, naive_satisfies_h, naive_scheme_instances, naive_structures


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
    # tail), so the suite reports violations from many union frames;
    # they must be exactly those of evaluating one model at a time
    monkeypatch.setitem(search.SYSTEM_CLASS, System.LOC_KD45, "H_su")
    bounds = SearchBounds(2, 2, 1)
    ws = bounds.workspace()
    report = soundness_suite(System.LOC_KD45, "H_su", bounds, 1)
    instances, models, expected = _per_model_violations(System.LOC_KD45, "H_su", bounds, 1)
    assert report.models_visited == len(models) > search._CHUNK
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
    # EDL over every hypergraph: some instance of the first union frame
    # fails at its state 0 and nowhere else, so a suite that skipped a
    # root by a wrong test on its mask would miss that violation
    monkeypatch.setitem(search.SYSTEM_CLASS, System.EDL, "all")
    bounds = SearchBounds(2, 1, 1)
    report = soundness_suite(System.EDL, "all", bounds, 1, 2)
    _, _, expected = _per_model_violations(System.EDL, "all", bounds, 1, 2)
    assert report.violations == expected and len(expected) == 370
    # every model has one edge, so each violation is one state of its frame
    in_first = Counter(v["instance"] for v in expected if v["model_index"] <= search._CHUNK)
    assert any(in_first[v["instance"]] == 1 for v in expected if v["model_index"] == 1)


def test_letter_suite_matches_per_model_evaluation(monkeypatch):
    # the suite checks each scheme once per tuple of letters, the distinct
    # formula masks on a union frame; its violations must be those of
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
        prog = formulas.builder.program(formulas.slots)
        chunks = range(0, len(models), search._CHUNK)
        frames = (union(frame_h(m) for m in models[c : c + search._CHUNK]) for c in chunks)
        masks = [evaluate(prog, frame) for frame in frames]
        # over one letter per formula, the instances are every
        # (scheme, agent, phi, psi)
        letters = [0] * len(formulas)
        yielded = search._instance_masks(search._patterns(system), ws, Frame(1), letters)
        origins = (i[:4] for i in yielded)
        origin_of = {
            (o[0].value, render_formula(search.instance_formula(o, formulas), ws)): o
            for o in origins
        }
        for v in expected:
            _, _, phi, psi = origin_of[v["scheme"], v["instance"]]
            chunk = masks[(v["model_index"] - 1) // search._CHUNK]
            shared |= any(type(x) is int and chunk.count(chunk[x]) > 1 for x in (phi, psi))
    assert shared


@pytest.mark.parametrize("bounds", [(2, 1, 2), (2, 1, 3)], ids=["vars2", "vars3"])
def test_letter_suite_expands_two_letter_and_loc_roots(monkeypatch, bounds):
    # K_B, K_K and Loc hold on every model of every class, so no suite
    # fails a tuple of two letters or one of Loc's; falsifiable stand-ins
    # with the same metavariables check that such tuples expand in
    # instance order, with Loc's p at its position among the agent's
    # variables; three variables per agent take the sampled placements
    meta = Workspace(("a",), (("phi", "psi", "p"),))
    monkeypatch.setitem(SCHEMES, SchemeId.K_B, parse_formula("B{a}phi -> psi", meta))
    monkeypatch.setitem(SCHEMES, SchemeId.LOC, parse_formula("B{a}p", meta))
    bounds = SearchBounds(*bounds)
    report = soundness_suite(System.LOC_K45, "H_su", bounds, 1, 2)
    instances, _, expected = _per_model_violations(System.LOC_K45, "H_su", bounds, 1, 2)
    assert report.violations == expected and report.instances_checked == len(instances)
    assert {"K_B", "Loc"} <= {v["scheme"] for v in expected}


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
    # later one
    steps = {scheme: steps for scheme, steps, _ in search._patterns(System.EDL)}
    assert len(steps) == len(SchemeId) and len(steps[SchemeId.K_B]) == 12
    for pattern in steps.values():
        read = {a for op, a, _ in pattern if op in (NOT, AND)}
        read |= {b for op, _, b in pattern if op in (AND, BOX)}
        assert read == set(range(len(pattern) - 1))


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
}


@pytest.mark.parametrize("bounds,cls", list(PINNED_STREAMS))
def test_orderly_stream_pinned_at_larger_bounds(bounds, cls):
    stream = list(search._structures(SearchBounds(*bounds), cls))
    assert all(type(s) is tuple and all(type(e) is tuple for e in s) for s in stream)
    digest = hashlib.sha256(repr(stream).encode()).hexdigest()
    assert (len(stream), digest) == PINNED_STREAMS[bounds, cls]


def _assert_same_frame(frame, expected):
    assert frame.atoms == expected.atoms
    assert (frame.size, frame.parts) == (expected.size, expected.parts)
    assert {k: sorted(v) for k, v in frame.blocks.items()} == {
        k: sorted(v) for k, v in expected.blocks.items()
    }


@pytest.mark.parametrize("cls", search.CLASSES)
def test_structure_frames_equal_model_frames(cls):
    # the frame countermodel builds per structure, with a placement's atom
    # masks set, is the frame of the model enumerate_models builds there
    bounds = SearchBounds(2, 3, 1)
    frames = search._frames(search._stream(cls, bounds, 0))
    models = enumerate_models(cls, bounds)
    for (_, _, frame), model in zip(frames, models, strict=True):
        _assert_same_frame(frame, frame_h(model))
    # and soundness_suite's union of each chunk of the reused per-structure
    # frames is the union of the chunk's model frames
    frames = search._frames(search._stream(cls, bounds, 0))
    models = enumerate_models(cls, bounds)
    chunks = 0
    while True:
        frame = union(f for _, _, f in itertools.islice(frames, search._CHUNK))
        expected = union(frame_h(m) for m in itertools.islice(models, search._CHUNK))
        _assert_same_frame(frame, expected)
        if not frame.parts:
            break
        chunks += 1
    assert chunks > 1


@pytest.mark.parametrize("cls", ["H_su", "H_sut"])
def test_countermodel_frames_match_naive_walk(cls):
    # per-structure frames against a walk of enumerate_models on the oracle
    bounds = SearchBounds(2, 3, 1)
    ws = bounds.workspace()
    rng = random.Random(f"frames-{cls}")
    formulas = [parse_formula("B{a}p_a_1 -> B{a}B{a}p_a_1", ws)]
    while len(formulas) < 30:
        f = random_formula(rng, ws.all_vars(), [0, 1], 2, 7)
        if cls == "H_sut" or fragment_check(f).in_doxastic_fragment:
            formulas.append(f)
    models = list(enumerate_models(cls, bounds))
    outcomes = set()
    for f in formulas:
        result = countermodel(cls, f, bounds)
        expected = ("exhausted", len(models), None, None)
        for index, model in enumerate(models, 1):
            bad = [i for i in range(model.n_edges) if not naive_satisfies_h(model, i, f)]
            if bad:
                witness = hypergraph_to_json(model)
                expected = ("countermodel", index, model.edges[bad[0]].name, witness)
                break
        witness = None if result.model is None else hypergraph_to_json(result.model)
        assert (result.outcome, result.models_visited, result.edge, witness) == expected
        again = countermodel(cls, f, bounds)
        assert again.model is result.model
        outcomes.add(result.outcome)
    assert outcomes == {"countermodel", "exhausted"}


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


def test_suite_counts_and_forced_violations_pinned(monkeypatch):
    # the suite frames the stream from per-structure blocks, with no model
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


@pytest.mark.parametrize(
    "system,depth,size",
    [(System.LOC_K45, 1, 3), (System.LOC_KD45, 1, 3), (System.EDL, 1, 3), (System.EDL, 2, 3)],
)
def test_emitted_instances_match_naive_instances(system, depth, size):
    # the suite's instances over one letter per formula against Formula
    # trees built by instantiate_scheme: the j-th instance _instance_masks
    # yields is the j-th naive one, rebuilt with its ~~ shapes intact, and
    # has its mask on every union frame of the class
    bounds = SearchBounds(2, 2, 1)
    ws = bounds.workspace()
    formulas = FormulaSlots(ws.all_vars(), range(ws.n_agents), depth, size)
    naive = naive_scheme_instances(system, ws, depth, size)
    expected = compile_formulas(inst for _, inst in naive)
    masks_of = formulas.builder.program(formulas.slots)
    patterns = search._patterns(system)
    models = list(enumerate_models(search.SYSTEM_CLASS[system], bounds))
    for start in range(0, len(models), search._CHUNK):
        frame = union(frame_h(m) for m in models[start : start + search._CHUNK])
        want = evaluate(expected, frame)
        ours = list(search._instance_masks(patterns, ws, frame, evaluate(masks_of, frame)))
        assert [(o[0], o[4]) for o in ours] == [(scheme, w) for (scheme, _), w in zip(naive, want)]
    for origin, (_, inst) in zip(ours, naive):  # the instances do not depend on the frame
        assert search.instance_formula(origin[:4], formulas) == inst
    phis = (formulas[o[2]] for o in ours if type(o[2]) is int)
    assert any(type(f) is Not and type(f.sub) is Not for f in phis)  # phi = ~~x occurs
