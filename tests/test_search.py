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
from hyperdox import search
from hyperdox.formula import render_formula
from hyperdox.hypergraph import frame_h
from hyperdox.kernel import compile_formulas, evaluate
from hyperdox.modelio import hypergraph_to_json
from oracles import count_structures_naive, naive_satisfies_h


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
    a_vertex = witness.color_vertex(idx, 0)
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
    with pytest.raises(FragmentError):
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


def test_unknown_class_rejected():
    bounds = SearchBounds(1, 1, 0)
    with pytest.raises(PreconditionError):
        list(enumerate_models("H_xyz", bounds))


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
    assert set(data) == {"system", "violations", "models_visited", "elapsed_ms"}
    assert data["system"] == "LocK45"


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


def test_chunked_suite_matches_per_model_evaluation(monkeypatch):
    # LocKD45 over H_su is unsound (D_B fails where a vertex lies in no
    # tail), so the suite reports violations from many union frames;
    # they must be exactly those of evaluating one model at a time
    monkeypatch.setitem(search.SYSTEM_CLASS, System.LOC_KD45, "H_su")
    bounds = SearchBounds(2, 2, 1)
    ws = bounds.workspace()
    report = soundness_suite(System.LOC_KD45, "H_su", bounds, 1)
    instances = search.scheme_instances(System.LOC_KD45, ws, 1)
    prog = compile_formulas(inst for _, inst in instances)
    expected = []
    models = list(enumerate_models("H_su", bounds))
    for index, model in enumerate(models, 1):
        frame = frame_h([model])
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
