import pytest

from hyperdox import InputError, ValidationError, load_model
from hyperdox.modelio import (
    hypergraph_to_json,
    kripke_to_json,
    model_from_json,
    proof_from_json,
)
from conftest import fixture_json


def _kripke_data():
    return fixture_json("five_worlds_k.json")


def _hyper_data():
    return fixture_json("chain4_h.json")


def test_fixtures_round_trip():
    for name in ("five_worlds_k.json", "chain4_h.json", "pair2_h.json", "five_worlds_h.json"):
        data = fixture_json(name)
        model = model_from_json(data)
        dumped = kripke_to_json(model) if data["kind"] == "kripke" else hypergraph_to_json(model)
        assert model_from_json(dumped) is not None


def test_dangling_world_in_relation():
    data = _kripke_data()
    data["belief"]["a"].append(["1", "9"])
    with pytest.raises(InputError, match="unknown world"):
        model_from_json(data)


def test_unknown_agent_in_belief():
    data = _kripke_data()
    data["belief"]["z"] = []
    with pytest.raises(InputError, match="undeclared agents"):
        model_from_json(data)


def test_unknown_atom_in_valuation():
    data = _kripke_data()
    data["valuation"] = {"1": ["nope"]}
    with pytest.raises(InputError, match="undeclared atom"):
        model_from_json(data)


def test_valuation_for_unknown_world():
    data = _kripke_data()
    data["valuation"] = {"9": []}
    with pytest.raises(InputError, match="unknown worlds"):
        model_from_json(data)


def test_duplicate_vertex_id():
    data = _hyper_data()
    data["vertices"].append({"id": "a1", "color": "a", "atoms": []})
    with pytest.raises(InputError, match="duplicate vertex id"):
        model_from_json(data)


def test_vertex_color_must_be_declared():
    data = _hyper_data()
    data["vertices"][0]["color"] = "z"
    with pytest.raises(InputError, match="undeclared agent"):
        model_from_json(data)


def test_semantic_violations_reported_with_names():
    data = _hyper_data()
    data["edges"][0]["head"].append("a1")
    with pytest.raises(ValidationError) as exc:
        model_from_json(data)
    assert any("e1" in v for v in exc.value.violations)


def test_unknown_vertex_key_rejected():
    data = _hyper_data()
    data["vertices"][0]["extra"] = 1
    with pytest.raises(InputError, match="unknown keys"):
        model_from_json(data)


def test_missing_kind():
    with pytest.raises(InputError, match="kind"):
        model_from_json({"agents": ["a"], "vars": {"a": []}})


def test_proof_requires_known_scheme():
    data = fixture_json("proof_edl_ok.json")
    data["steps"][0]["by"] = {"axiom": "T_B"}
    with pytest.raises(InputError, match="unknown scheme"):
        proof_from_json(data)


def test_proof_justification_single_key():
    data = fixture_json("proof_edl_ok.json")
    data["steps"][0]["by"] = {"axiom": "K_IB", "mp": [1, 2]}
    with pytest.raises(InputError, match="exactly one"):
        proof_from_json(data)


@pytest.mark.parametrize(
    "by",
    [{"mp": [True, 1]}, {"nec_k": {"agent": "a", "from": True}}, {"nec_b": {"agent": "a", "from": True}}],
    ids=["mp", "nec_k", "nec_b"],
)
def test_proof_step_numbers_are_not_booleans(by):
    data = fixture_json("proof_edl_ok.json")
    data["steps"][-1]["by"] = by
    with pytest.raises(InputError, match="step number"):
        proof_from_json(data)


def test_proof_formula_parse_error_surfaces():
    data = fixture_json("proof_edl_ok.json")
    data["steps"][0]["formula"] = "B{a} ("
    from hyperdox import ParseError

    with pytest.raises(ParseError):
        proof_from_json(data)


def test_load_model_reports_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InputError, match="malformed JSON"):
        load_model(str(path))
