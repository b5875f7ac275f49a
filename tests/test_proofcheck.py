import random

import pytest

from hyperdox import (
    And,
    Atom,
    Believes,
    Knows,
    MP,
    Not,
    ProofStep,
    SchemeId,
    System,
    Tautology,
    Workspace,
    check_proof,
    f_imp,
    f_or,
    instantiate_scheme,
    is_tautology_instance,
    match_scheme,
    parse_formula,
    render_formula,
)
from hyperdox.modelio import load_proof, proof_from_json
from hyperdox.proofcheck import SCHEME_ARITY, Axiom, NecB, NecK, ProofResult, TautologyTooLarge
from randgen import random_formula
from conftest import fixture_json, fixture_path
from oracles import naive_is_tautology


@pytest.fixture
def ws():
    return Workspace(("a", "b"), (("p_a_1",), ("p_b_1",)))


def test_match_four_b(ws):
    f = parse_formula("B{a} p_a_1 -> B{a} B{a} p_a_1", ws)
    binding = match_scheme(f, SchemeId.FOUR_B)
    assert binding is not None
    assert binding["a"] == 0 and binding["phi"] == Atom(ws.var_by_name("p_a_1"))


def test_match_loc(ws):
    f = parse_formula("(p_a_1 -> B{a} p_a_1) & (~p_a_1 -> B{a} ~p_a_1)", ws)
    binding = match_scheme(f, SchemeId.LOC)
    assert binding is not None and binding["p"] == ws.var_by_name("p_a_1")


def test_loc_rejects_foreign_variable(ws):
    f = parse_formula("(p_b_1 -> B{a} p_b_1) & (~p_b_1 -> B{a} ~p_b_1)", ws)
    assert match_scheme(f, SchemeId.LOC) is None


def test_agent_metavariable_must_be_uniform(ws):
    f = parse_formula("K{a} p_a_1 -> B{b} p_a_1", ws)
    assert match_scheme(f, SchemeId.K_IB) is None
    assert match_scheme(parse_formula("K{a} p_a_1 -> B{a} p_a_1", ws), SchemeId.K_IB)


def test_repeated_metavariable_must_agree(ws):
    f = parse_formula("B{a} p_a_1 -> B{a} B{a} p_b_1", ws)
    assert match_scheme(f, SchemeId.FOUR_B) is None


def test_d_b_matches_compound_contradiction(ws):
    f = parse_formula("~B{a}(K{a} p_b_1 & ~K{a} p_b_1)", ws)
    binding = match_scheme(f, SchemeId.D_B)
    assert binding is not None
    assert binding["phi"] == Knows(0, Atom(ws.var_by_name("p_b_1")))


def test_instantiate_matches_own_scheme(ws):
    rng = random.Random(1)
    vars_ = ws.all_vars()
    for scheme in SchemeId:
        for _ in range(20):
            a = rng.randrange(2)
            arity = SCHEME_ARITY[scheme]
            if arity == "atom":
                inst = instantiate_scheme(scheme, a, p=ws.vars_of(a)[0])
            elif arity == "two":
                inst = instantiate_scheme(
                    scheme,
                    a,
                    phi=random_formula(rng, vars_, range(2), 2, 5),
                    psi=random_formula(rng, vars_, range(2), 2, 5),
                )
            else:
                inst = instantiate_scheme(
                    scheme, a, phi=random_formula(rng, vars_, range(2), 2, 5)
                )
            assert match_scheme(inst, scheme) is not None


def test_instances_pinned_for_every_scheme(ws):
    p = ws.var_by_name("p_b_1")
    P = Atom(p)
    x = And(Atom(ws.var_by_name("p_a_1")), Knows(0, P))
    y = Not(Believes(1, P))

    def B(f):
        return Believes(1, f)

    def K(f):
        return Knows(1, f)

    expected = {
        SchemeId.K_B: f_imp(B(f_imp(x, y)), f_imp(B(x), B(y))),
        SchemeId.K_K: f_imp(K(f_imp(x, y)), f_imp(K(x), K(y))),
        SchemeId.D_B: Not(B(And(x, Not(x)))),
        SchemeId.FOUR_B: f_imp(B(x), B(B(x))),
        SchemeId.FIVE_B: f_imp(Not(B(x)), B(Not(B(x)))),
        SchemeId.T_K: f_imp(K(x), x),
        SchemeId.FOUR_K: f_imp(K(x), K(K(x))),
        SchemeId.FIVE_K: f_imp(Not(K(x)), K(Not(K(x)))),
        SchemeId.SPI: f_imp(B(x), K(B(x))),
        SchemeId.SNI: f_imp(Not(B(x)), K(Not(B(x)))),
        SchemeId.K_IB: f_imp(K(x), B(x)),
        SchemeId.LOC: And(f_imp(P, B(P)), f_imp(Not(P), B(Not(P)))),
    }
    assert set(expected) == set(SchemeId)
    for scheme, want in expected.items():
        assert instantiate_scheme(scheme, 1, phi=x, psi=y, p=p) == want
    with pytest.raises(ValueError, match="psi"):
        instantiate_scheme(SchemeId.K_B, 1, phi=x)
    with pytest.raises(ValueError, match="metavariable p "):
        instantiate_scheme(SchemeId.LOC, 1, phi=x)


def test_tautology_examples(ws):
    assert is_tautology_instance(parse_formula("B{a} p_a_1 -> B{a} p_a_1", ws))
    assert not is_tautology_instance(parse_formula("B{a} p_a_1 -> p_a_1", ws))
    assert is_tautology_instance(
        parse_formula("(B{a} p_a_1 & (B{a} p_a_1 -> K{b} p_b_1)) -> K{b} p_b_1", ws)
    )


def test_tautology_distinguishes_modal_letters(ws):
    assert not is_tautology_instance(parse_formula("B{a} p_a_1 -> B{b} p_a_1", ws))
    assert not is_tautology_instance(parse_formula("B{a} p_a_1 -> K{a} p_a_1", ws))


def test_tautology_size_cap():
    names = tuple(f"q{i}" for i in range(25))
    ws = Workspace(("a",), (names,))
    big = " | ".join(names)
    with pytest.raises(TautologyTooLarge):
        is_tautology_instance(parse_formula(big, ws))
    at_cap = " | ".join(names[:20]) + " | ~q19"
    assert is_tautology_instance(parse_formula(at_cap, ws))


def _propositional_over_modal(rng, ws):
    """A boolean combination of atoms and a few modal subformulas. The
    modal ones recur, also as equal but distinct objects, and some occur
    both alone and inside another modal subformula."""
    vars_, atoms = ws.all_vars(), [Atom(v) for v in ws.all_vars()]
    pool = [
        rng.choice((Believes, Knows))(rng.randrange(2), random_formula(rng, vars_, range(2), 2, 4))
        for _ in range(rng.randint(1, 3))
    ]
    pool += [m.sub for m in pool if isinstance(m.sub, (Believes, Knows))]
    pool += [parse_formula(render_formula(m, ws), ws) for m in pool]
    leaves = atoms + pool

    def build(size):
        if size <= 1:
            return rng.choice(leaves)
        if rng.random() < 0.3:
            return Not(build(size - 1))
        left = rng.randint(1, size - 1)
        return And(build(left), build(size - left))

    f = build(rng.randint(1, 10))
    shape = rng.randrange(3)
    if shape == 1:  # excluded middle
        return f_or(f, Not(parse_formula(render_formula(f, ws), ws)))
    if shape == 2:  # weakening
        return f_imp(And(f, rng.choice(leaves)), f)
    return f


def test_tautology_agrees_with_truth_table_oracle(ws):
    rng = random.Random(5)
    verdicts = set()
    for _ in range(1000):
        f = _propositional_over_modal(rng, ws)
        verdict = is_tautology_instance(f)
        assert verdict == naive_is_tautology(f)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _base_proof(ws):
    p = Atom(ws.var_by_name("p_a_1"))
    s1 = f_imp(Knows(0, p), Believes(0, p))
    s3 = f_imp(Not(Believes(0, p)), Not(Knows(0, p)))
    s2 = f_imp(s1, s3)
    return [
        ProofStep(s1, Axiom(SchemeId.K_IB)),
        ProofStep(s2, Tautology()),
        ProofStep(s3, MP(1, 2)),
    ]


def test_three_step_proof_accepted(ws):
    result = check_proof(System.EDL, _base_proof(ws))
    assert result.ok


def test_prefixes_of_accepted_proof_accepted(ws):
    steps = _base_proof(ws)
    for k in range(1, len(steps) + 1):
        assert check_proof(System.EDL, steps[:k]).ok


def test_checker_deterministic(ws):
    steps = _base_proof(ws)
    assert check_proof(System.EDL, steps) == check_proof(System.EDL, steps)


def test_mutation_wrong_scheme(ws):
    steps = _base_proof(ws)
    steps[0] = ProofStep(steps[0].formula, Axiom(SchemeId.FOUR_B))
    result = check_proof(System.EDL, steps)
    assert not result.ok and result.step == 1 and "no match" in result.reason


def test_mutation_swapped_mp(ws):
    steps = _base_proof(ws)
    steps[2] = ProofStep(steps[2].formula, MP(2, 1))
    result = check_proof(System.EDL, steps)
    assert not result.ok and result.step == 3


def test_mutation_altered_formula(ws):
    steps = _base_proof(ws)
    q = Atom(ws.var_by_name("p_b_1"))
    steps[2] = ProofStep(f_imp(Not(Believes(0, q)), Not(Knows(0, q))), MP(1, 2))
    result = check_proof(System.EDL, steps)
    assert not result.ok and result.step == 3


def test_mutation_nec_b_in_edl(ws):
    steps = _base_proof(ws)
    steps.append(ProofStep(Believes(0, steps[0].formula), NecB(0, 1)))
    result = check_proof(System.EDL, steps)
    assert not result.ok and result.step == 4
    assert "not a rule of EDL" in result.reason


def test_mutation_out_of_range_reference(ws):
    steps = _base_proof(ws)
    steps[2] = ProofStep(steps[2].formula, MP(1, 5))
    result = check_proof(System.EDL, steps)
    assert not result.ok and result.step == 3 and "out of range" in result.reason


def test_mutation_fragment_breach_in_lockd45(ws):
    result = check_proof(System.LOC_KD45, _base_proof(ws))
    assert not result.ok and result.step == 1 and "fragment" in result.reason


def test_fragment_checked_before_justifications(ws):
    # step 2 is bogus, but the step-1 fragment breach must win
    p = Atom(ws.var_by_name("p_a_1"))
    steps = [
        ProofStep(Knows(0, p), Tautology()),
        ProofStep(p, MP(7, 9)),
    ]
    result = check_proof(System.LOC_KD45, steps)
    assert not result.ok and result.step == 1 and "fragment" in result.reason


def test_nec_k_in_edl(ws):
    p = Atom(ws.var_by_name("p_a_1"))
    steps = [
        ProofStep(f_imp(p, p), Tautology()),
        ProofStep(Knows(0, f_imp(p, p)), NecK(0, 1)),
    ]
    assert check_proof(System.EDL, steps).ok


def test_nec_b_in_belief_systems(ws):
    p = Atom(ws.var_by_name("p_a_1"))
    steps = [
        ProofStep(f_imp(p, p), Tautology()),
        ProofStep(Believes(1, f_imp(p, p)), NecB(1, 1)),
    ]
    assert check_proof(System.LOC_KD45, steps).ok
    assert check_proof(System.LOC_K45, steps).ok
    for system in (System.LOC_KD45, System.LOC_K45):
        bad = [steps[0], ProofStep(Knows(1, f_imp(p, p)), NecK(1, 1))]
        result = check_proof(system, bad)
        assert not result.ok and result.step == 2


def _rejected_steps(case, p):
    taut = ProofStep(f_imp(p, p), Tautology())
    if case == "not_a_tautology":
        return System.EDL, [ProofStep(p, Tautology())]
    if case == "too_many_letters":
        boxes, f = [], p  # B{a}p, B{a}B{a}p, ...: 21 distinct letters
        for _ in range(21):
            f = Believes(0, f)
            boxes.append(f)
        tautology = f_or(boxes[0], Not(boxes[0]))
        for box in boxes[1:]:
            tautology = f_or(tautology, box)
        return System.EDL, [ProofStep(tautology, Tautology())]
    if case == "nec_k_out_of_range":
        return System.EDL, [taut, ProofStep(Knows(0, taut.formula), NecK(0, 2))]
    if case == "nec_b_out_of_range":
        return System.LOC_KD45, [taut, ProofStep(Believes(0, taut.formula), NecB(0, 0))]
    if case == "nec_k_not_box":
        return System.EDL, [taut, ProofStep(Knows(1, taut.formula), NecK(0, 1))]
    if case == "nec_b_not_box":
        return System.LOC_K45, [taut, ProofStep(Believes(0, p), NecB(0, 1))]
    return System.EDL, [taut, ProofStep(p, "hearsay")]


@pytest.mark.parametrize(
    "case, step, reason",
    [
        ("not_a_tautology", 1, "not an instance of a classical tautology"),
        ("too_many_letters", 1, "tautology check abstracts 21 letters, more than the supported 20"),
        ("nec_k_out_of_range", 2, "reference to step 2 is out of range (must be 1..1)"),
        ("nec_b_out_of_range", 2, "reference to step 0 is out of range (must be 1..1)"),
        ("nec_k_not_box", 2, "formula is not K applied to step 1"),
        ("nec_b_not_box", 2, "formula is not B applied to step 1"),
        ("unknown_justification", 2, "unknown justification 'hearsay'"),
    ],
)
def test_rejection_reasons(ws, case, step, reason):
    system, steps = _rejected_steps(case, Atom(ws.var_by_name("p_a_1")))
    assert check_proof(system, steps) == ProofResult(False, step, reason)


def test_d_b_not_in_lock45(ws):
    f = parse_formula("~B{a}(p_a_1 & ~p_a_1)", ws)
    steps = [ProofStep(f, Axiom(SchemeId.D_B))]
    assert check_proof(System.LOC_KD45, steps).ok
    result = check_proof(System.LOC_K45, steps)
    assert not result.ok and result.step == 1 and "not part of" in result.reason


def test_proof_fixture_loads_and_checks():
    system, steps, _ = load_proof(fixture_path("proof_edl_ok.json"))
    assert system is System.EDL
    assert check_proof(system, steps).ok


def test_proof_json_roundtrip_of_justifications():
    data = fixture_json("proof_edl_ok.json")
    data["steps"].append(
        {"formula": "K{a}(K{a} p_a_1 -> B{a} p_a_1)", "by": {"nec_k": {"agent": "a", "from": 1}}}
    )
    system, steps, _ = proof_from_json(data)
    assert check_proof(system, steps).ok
