import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hyperdox import (
    Believes,
    Not,
    Workspace,
    fragment_check,
    graph_metrics,
    load_model,
    modal_depth,
    model_properties,
    parse_formula,
    render_formula,
    satisfies_h,
)
from hyperdox import cli, search
from hyperdox.cli import main
from hyperdox.proofcheck import System
from conftest import fixture_json, fixture_path
from oracles import naive_fragment_check, naive_modal_depth


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_hypergraph_fixture(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("five_worlds_h.json"))
    assert code == 0
    assert "tail_complete: true" in out
    assert "n_uniform: true" in out


def test_validate_kripke_fixture_json(capsys):
    code, out, _ = run(capsys, "--json", "validate", fixture_path("five_worlds_k.json"))
    assert code == 0
    data = json.loads(out)
    assert data["in_K_ste"] is True
    assert data == model_properties(load_model(fixture_path("five_worlds_k.json"))).to_json()


def test_validate_rejects_bad_model(tmp_path, capsys):
    bad = fixture_json("pair2_h.json")
    bad["edges"][0]["head"].append("c1")  # overlaps its own tail
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "--json", "validate", str(path))
    assert code == 2
    data = json.loads(out)
    assert data["error"]["type"] == "ValidationError"
    assert any("overlap" in v for v in data["error"]["violations"])


@pytest.mark.parametrize("name", ["true", "p-q"])
def test_validate_rejects_a_variable_name_the_grammar_cannot_read(tmp_path, capsys, name):
    bad = fixture_json("pair2_h.json")
    bad["vars"]["a"] = [name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "--json", "validate", str(path))
    assert code == 2
    error = json.loads(out)["error"]  # the loader reports a WorkspaceError as bad input
    assert error["type"] == "InputError" and repr(name) in error["message"]


def test_validate_rejects_unknown_key(tmp_path, capsys):
    bad = fixture_json("pair2_h.json")
    bad["mystery"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "unknown keys" in err


def test_validate_rejects_unknown_kind(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "petri"}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "unknown model kind" in err


def test_eval_true_exit_zero(capsys):
    code, out, _ = run(
        capsys, "eval", fixture_path("chain4_h.json"), "e2", "B{a} p_c_1"
    )
    assert code == 0 and out.strip() == "true"


def test_eval_false_exit_one(capsys):
    code, out, _ = run(
        capsys, "eval", fixture_path("chain4_h.json"), "e2", "B{a} false"
    )
    assert code == 1 and out.strip() == "false"


def test_eval_matches_library(capsys):
    model = load_model(fixture_path("chain4_h.json"))
    from hyperdox import parse_formula

    f = parse_formula("p_c_1 & ~B{a} false", model.workspace)
    code, out, _ = run(
        capsys, "eval", fixture_path("chain4_h.json"), "e2", "p_c_1 & ~B{a} false"
    )
    assert (code == 0) == satisfies_h(model, "e2", f)


def test_eval_kripke_model(capsys):
    code, out, _ = run(
        capsys, "eval", fixture_path("five_worlds_k.json"), "1", "B{b} ~B{a} false"
    )
    assert code in (0, 1)
    model = load_model(fixture_path("five_worlds_k.json"))
    from hyperdox import parse_formula, satisfies_k

    expected = satisfies_k(model, "1", parse_formula("B{b} ~B{a} false", model.workspace))
    assert (code == 0) == expected


def test_convert_k2h_and_equiv(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, _, _ = run(
        capsys, "convert", "k2h", fixture_path("five_worlds_k.json"), str(out_path)
    )
    assert code == 0
    converted = load_model(str(out_path))
    assert graph_metrics(converted).in_h_sut
    cert_path = tmp_path / "out.cert.json"
    assert cert_path.exists()
    code, out, _ = run(
        capsys,
        "equiv",
        fixture_path("five_worlds_k.json"),
        str(out_path),
        str(cert_path),
        "--depth",
        "1",
        "--size",
        "3",
    )
    assert code == 0
    assert "all agree" in out


def test_equiv_against_transcribed_fixture(capsys):
    code, out, _ = run(
        capsys,
        "equiv",
        fixture_path("five_worlds_k.json"),
        fixture_path("five_worlds_h.json"),
        fixture_path("five_worlds_cert.json"),
        "--depth",
        "2",
        "--size",
        "4",
    )
    assert code == 0 and "all agree" in out


def test_equiv_keys_recorded_with_formula_trees(tmp_path, capsys):
    # (exit code, checked, formulas, sha256 of the whole payload), recorded
    # when equiv built every enumerated formula as a Formula tree
    fixtures = [fixture_path(f"five_worlds_{x}.json") for x in ("k", "h", "cert")]
    with open(fixtures[0], encoding="utf-8") as fh:
        data = json.load(fh)
    data["valuation"] = {w: ["p_b_1"] for w in ("2", "3", "5")}
    swapped = [tmp_path / "k.json", tmp_path / "h.json", tmp_path / "cert.json"]
    swapped[0].write_text(json.dumps(data))
    run(capsys, "convert", "k2h", str(swapped[0]), str(swapped[1]))
    cert = json.loads((tmp_path / "h.cert.json").read_text())
    cert["map"]["1"], cert["map"]["2"] = cert["map"]["2"], cert["map"]["1"]
    swapped[2].write_text(json.dumps(cert))
    pinned = [
        (fixtures, 0, "32da2e14ef8ed93f3b67eaffdfbb69294c88de8c6aa2494895d13e8363671e25"),
        (swapped, 1, "433b474cc12cb25d0ded85691edcfdaaf55cfea34ef6905d0e23ccad4d436a10"),
    ]
    for files, want_code, want_digest in pinned:
        argv = ["--json", "equiv", *map(str, files), "--depth", "2", "--size", "4"]
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
        assert (code, payload["checked"], payload["formulas"], digest) == (
            want_code,
            5 * 750,
            750,
            want_digest,
        )


def test_equiv_workspace_mismatch(tmp_path, capsys):
    other = fixture_json("five_worlds_h.json")
    other["vars"]["a"] = ["p_a_1", "p_a_2"]
    path = tmp_path / "other.json"
    path.write_text(json.dumps(other))
    code, _, err = run(
        capsys,
        "equiv",
        fixture_path("five_worlds_k.json"),
        str(path),
        fixture_path("five_worlds_cert.json"),
    )
    assert code == 2
    assert "workspace mismatch" in err


def test_convert_h2k(tmp_path, capsys):
    out_path = tmp_path / "k.json"
    code, _, _ = run(
        capsys, "convert", "h2k", fixture_path("chain4_h.json"), str(out_path)
    )
    assert code == 0
    model = load_model(str(out_path))
    assert model.worlds == ("e1", "e2", "e3", "e4")


def test_prove_ok(capsys):
    code, out, _ = run(capsys, "prove", fixture_path("proof_edl_ok.json"))
    assert code == 0 and out.strip() == "ok"


def test_prove_swapped_mp(tmp_path, capsys):
    data = fixture_json("proof_edl_ok.json")
    data["steps"][2]["by"] = {"mp": [2, 1]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "--json", "prove", str(path))
    assert code == 1
    result = json.loads(out)
    assert result["ok"] is False and result["step"] == 3


def test_complex_lists_facets(capsys):
    code, out, _ = run(capsys, "complex", fixture_path("pair2_h.json"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["{a2,b2,c1}", "{a2,b2,c2}"]


def test_complex_rejects_kripke(capsys):
    code, _, err = run(capsys, "complex", fixture_path("five_worlds_k.json"))
    assert code == 2


def test_search_countermodel_found(capsys):
    code, out, _ = run(
        capsys,
        "--json",
        "search",
        "countermodel",
        "H_su",
        "~B{a} false",
        "--bounds",
        "agents=1,edges=2,vars=1",
    )
    assert code == 1
    data = json.loads(out)
    assert data["outcome"] == "countermodel"
    assert data["model"]["kind"] == "hypergraph"


def test_search_countermodel_rejects_workers_below_one(capsys):
    argv = ["--json", "search", "countermodel", "H_su", "p_a_1", "--bounds"]
    code, out, _ = run(capsys, *argv, "agents=1,edges=2,vars=1", "--workers", "-3")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "PreconditionError"
    code, out, _ = run(capsys, *argv, "agents=1,edges=2,vars=1", "--workers", "1")
    assert code == 1
    assert list(json.loads(out)) == ["outcome", "models_visited", "elapsed_ms", "model", "edge"]


def test_search_countermodel_exhausted(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "countermodel",
        "H_sut",
        "~B{a} false",
        "--bounds",
        "agents=1,edges=2,vars=1",
    )
    assert code == 0
    assert "no countermodel within bounds" in out


def test_search_soundness_cli(capsys):
    code, out, _ = run(
        capsys,
        "--json",
        "search",
        "soundness",
        "LocK45",
        "--bounds",
        "agents=1,edges=2,vars=1",
        "--depth",
        "1",
        "--size",
        "2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == [] and data["system"] == "LocK45"


@pytest.mark.parametrize(
    "argv",
    [
        ["LocK45", "--bounds", "agents=1,edges=2,vars=1", "--depth", "1", "--size", "2"],
        ["LocKD45", "--class", "H_su", "--bounds", "agents=1,edges=2,vars=1", "--depth", "1"],
    ],
)
def test_search_soundness_json_agrees_with_human_line(capsys, argv, monkeypatch):
    # the second run forces LocKD45 onto H_su, where D_B has violations
    monkeypatch.setitem(search.SYSTEM_CLASS, System.LOC_KD45, "H_su")
    code, out, _ = run(capsys, "search", "soundness", *argv)
    json_code, json_out, _ = run(capsys, "--json", "search", "soundness", *argv)
    data = json.loads(json_out)
    assert list(data) == [
        "system", "violations", "models_visited", "elapsed_ms", "class", "instances_checked"
    ]
    assert out == (
        f"{data['system']} over {data['class']}: {len(data['violations'])} violations, "
        f"{data['instances_checked']} instances on {data['models_visited']} models\n"
    )
    assert code == json_code == (1 if data["violations"] else 0)


@pytest.mark.parametrize("depth, size, instances", [("1", "0", 2), ("0", "1", 18)])
def test_search_soundness_at_degenerate_instantiation_bounds(capsys, depth, size, instances):
    # no formula is enumerated at size 0, but Loc's instances still are
    bounds = "agents=2,edges=2,vars=1"
    argv = ["LocK45", "--bounds", bounds, "--depth", depth, "--size", size]
    code, out, _ = run(capsys, "--json", "search", "soundness", *argv)
    data = json.loads(out)
    assert code == 0 and type(data.pop("elapsed_ms")) is float
    assert list(data.items()) == [
        ("system", "LocK45"),
        ("violations", []),
        ("models_visited", 336),
        ("class", "H_su"),
        ("instances_checked", instances),
    ]


def test_search_soundness_class_mismatch(capsys):
    code, _, err = run(
        capsys,
        "search",
        "soundness",
        "LocKD45",
        "--class",
        "H_su",
        "--bounds",
        "agents=1,edges=1,vars=1",
    )
    assert code == 2


def test_bad_bounds_rejected(capsys):
    code, _, err = run(
        capsys, "search", "countermodel", "all", "true", "--bounds", "edges=2"
    )
    assert code == 2
    assert "bounds" in err


@pytest.mark.parametrize(
    "bounds",
    [
        "agents=2,edges=2,vars=1,agents=3",
        "agents=2,edges=2,vars",
        "agents=2,edges=two",
        "agents=2,edges=2,depth=1",
        "edges=2,vars=1",
    ],
    ids=["repeated_key", "no_equals", "non_integer", "unknown_key", "no_agents"],
)
def test_malformed_bounds_are_input_errors(capsys, bounds):
    code, out, _ = run(capsys, "--json", "search", "soundness", "EDL", "--bounds", bounds)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InputError"


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "validate", "no_such_file.json")
    assert code == 2


def test_deterministic_output_bytes(tmp_path, capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--json", "validate", fixture_path("chain4_h.json"))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        code, out, _ = run(capsys, "complex", fixture_path("five_worlds_h.json"))
        outputs.append(out)
    assert outputs[2] == outputs[3]
    paths = []
    for k in range(2):
        out_path = tmp_path / f"conv{k}.json"
        run(capsys, "convert", "k2h", fixture_path("five_worlds_k.json"), str(out_path))
        paths.append(out_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_parser_keeps_no_state_between_calls(capsys):
    """One parser serves every call in a process, and no parsed value, usage
    error or output mode of one call shows in the next."""
    model = fixture_path("chain4_h.json")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    fresh = subprocess.run(
        [sys.executable, "-m", "hyperdox.cli", "--json", "validate", model],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), text=True, timeout=60,
    )
    parser = cli._parser()

    for usage_error in (["frobnicate"], ["search", "countermodel", "H_nope", "p_a_1"]):
        code, out, _ = run(capsys, "--json", *usage_error, "--bounds", "agents=1,edges=2,vars=1")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InputError"
        code, out, _ = run(capsys, "--json", "validate", model)
        assert (code, out) == (fresh.returncode, fresh.stdout)

    soundness = ["search", "soundness", "LocKD45", "--bounds", "agents=1,edges=1,vars=1"]
    code, _, err = run(capsys, *soundness, "--class", "H_su")
    assert code == 2 and "not H_su" in err
    code, out, _ = run(capsys, *soundness, "--size", "2")
    assert code == 0
    assert out.startswith(f"LocKD45 over {search.SYSTEM_CLASS[System.LOC_KD45]}: 0 violations")

    code, out, _ = run(capsys, "--json", "validate", model)
    human = "".join(f"{key}: {json.dumps(value)}\n" for key, value in json.loads(out).items())
    assert run(capsys, "validate", model) == (0, human, "")

    countermodel = ["search", "countermodel", "H_su", "p_a_1", "--bounds", "agents=1,edges=2,vars=1"]
    code, _, err = run(capsys, *countermodel, "--workers", "0")
    assert code == 2 and "workers" in err
    code, out, _ = run(capsys, *countermodel, "--workers", "1")
    assert code == 1 and out.startswith("countermodel at edge")

    assert cli._parser() is parser


def test_deeply_nested_formula_evaluates(capsys, chain4):
    """The parser keeps no depth limit: 3,000 negations and 1,000 nested
    beliefs evaluate, to the value of their shallow equivalents."""
    model = fixture_path("chain4_h.json")
    p = parse_formula("p_a_1", chain4.workspace)
    boxed = p
    for _ in range(1000):
        boxed = Believes(0, boxed)
    cases = [
        ("~" * 3000 + "p_a_1", satisfies_h(chain4, "e1", p)),
        ("B{a}" * 1000 + "p_a_1", satisfies_h(chain4, "e1", boxed)),
    ]
    for formula, expected in cases:
        code, out, _ = run(capsys, "--json", "eval", model, "e1", formula)
        payload = json.loads(out)
        assert code in (0, 1) and "error" not in payload
        assert payload["value"] is expected and code == (0 if expected else 1)


_CHAIN = " & ".join(["p_a_1"] * 3000)
_FOUR_B = f"B{{a}}({_CHAIN}) -> B{{a}}B{{a}}({_CHAIN})"


@pytest.mark.parametrize(
    "steps",
    [
        [{"formula": _FOUR_B, "by": {"axiom": "4_B"}}],
        [
            {"formula": _FOUR_B, "by": {"axiom": "4_B"}},
            {"formula": f"B{{a}}({_FOUR_B})", "by": {"nec_b": {"agent": "a", "from": 1}}},
        ],
        [{"formula": f"({_CHAIN}) -> p_a_1", "by": {"tautology": True}}],
    ],
    ids=["4_B", "nec_b", "tautology"],
)
def test_prove_deep_conjunction_chain(tmp_path, capsys, steps):
    proof = {"system": "LocKD45", "agents": ["a"], "vars": {"a": ["p_a_1"]}, "steps": steps}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(proof))
    code, out, _ = run(capsys, "--json", "prove", str(path))
    assert code == 0
    assert json.loads(out) == {"ok": True}


def test_render_and_depth_of_deep_conjunction_chain():
    ws = Workspace(("a",), (("p_a_1",),))
    chain = parse_formula(_CHAIN, ws)
    assert parse_formula(_CHAIN, ws) is chain
    assert render_formula(chain, ws) == _CHAIN
    assert modal_depth(chain) == 0
    assert modal_depth(Believes(0, Not(chain))) == 1
    for f in (chain, Believes(0, Not(chain))):
        assert modal_depth(f) == naive_modal_depth(f)
        assert fragment_check(f) == naive_fragment_check(f)


def test_directory_as_model_file_exit_two(tmp_path, capsys):
    code, out, _ = run(capsys, "--json", "validate", str(tmp_path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "IsADirectoryError"


_TOKENS = list("~&|()->{}BK ab_1") + ["p_a_1", "p_b_1", "p_z_9", "true", "false"]
_deep = st.integers(0, 4000)
_formula_text = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join),
    st.text(max_size=20),
    _deep.map(lambda n: "~" * n + "p_a_1"),
    _deep.map(lambda n: "(" * n + "p_a_1" + ")" * n),
    _deep.map(lambda n: "(" * n + "p_a_1"),
    st.tuples(st.integers(1, 3000), st.sampled_from([" & ", " | ", " -> "])).map(
        lambda t: t[1].join(["p_a_1"] * t[0])
    ),
)
_json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "steps", "id", "tail", "by"]), kids, max_size=3),
    max_leaves=8,
)


@st.composite
def _mutated_fixture(draw):
    """A valid fixture file with one nested value replaced by an arbitrary one."""
    name = draw(st.sampled_from(["chain4_h.json", "five_worlds_k.json", "proof_edl_ok.json"]))
    with open(fixture_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
        else:
            node[key] = draw(_json_value)
            return json.dumps(doc)


_file_text = st.one_of(
    st.text(max_size=60),
    _json_value.map(json.dumps),
    _mutated_fixture(),
    st.integers(1, 100000).map(lambda n: "[" * n),
    st.sampled_from(["<missing>", "<directory>", "<not utf-8>"]),
)
_justification = st.sampled_from(
    [
        {"tautology": True},
        {"axiom": "4_B"},
        {"mp": [1, 1]},
        {"nec_k": 1},
        {"nec_b": {"agent": ["a"], "from": 1}},
        [],
        "x",
    ]
)


def _proof_with(formula, by):
    proof = {"system": "EDL", "agents": ["a"], "vars": {"a": ["p_a_1"]}}
    proof["steps"] = [{"formula": formula, "by": by}]
    return json.dumps(proof)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    st.one_of(
        st.tuples(st.just("eval"), st.none(), _formula_text),
        st.tuples(
            st.just("prove"), st.builds(_proof_with, _formula_text, _justification), st.none()
        ),
        st.tuples(st.sampled_from(["validate", "eval", "prove"]), _file_text, st.just("p_a_1")),
    )
)
@example(("eval", None, "-p_a_1"))
@example(("validate", "<not utf-8>", "p_a_1"))
@example(("prove", "[" * 100000, "p_a_1"))
@example(("prove", '{"system": "EDL", "agents": ["a"], "vars": {}, "steps": [5]}', None))
@example(("prove", _proof_with("p_a_1", {"nec_b": {"agent": ["a"], "from": 1}}), None))
@example(("validate", '{"kind": "kripke", "agents": ["a"], "vars": {}, "belief": {"a": 0}}', None))
@example(("validate", '{"kind": "hypergraph", "agents": ["a"], "vars": {}, "vertices": [0]}', None))
def test_cli_exit_code_contract(tmp_path_factory, case):
    """Any input ends in exit code 0, 1 or 2 with JSON on stdout, never a traceback."""
    command, content, formula = case
    path = tmp_path_factory.mktemp("contract")
    target = str(path / "input.json")
    if content is None:
        target = fixture_path("chain4_h.json")
    elif content == "<directory>":
        target = str(path)
    elif content == "<not utf-8>":
        (path / "input.json").write_bytes(b"\xff\xfe{")
    elif content != "<missing>":
        (path / "input.json").write_text(content, encoding="utf-8")
    argv = ["--json", command, target] + (["e1", formula] if command == "eval" else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    json.loads(out.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "plain"])
def test_closed_stdout_ends_quietly(flags, unbuffered):
    """A reader that is gone before the first write (as after `| head -1`)
    ends the run with a normal exit code and no traceback."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    argv = [*flags, "validate", fixture_path("five_worlds_k.json")]
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "hyperdox.cli", *argv],
            stdout=w, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(w)
    assert done.returncode in (0, 1, 2)
    assert done.stderr == ""  # no traceback, and no error line after the reader left
