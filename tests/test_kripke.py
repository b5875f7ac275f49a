import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdox import (
    Believes,
    FragmentError,
    Knows,
    KripkeModel,
    PreconditionError,
    Relation,
    Workspace,
    check_local_veracity,
    f_imp,
    generated_equivalence,
    model_properties,
    parse_formula,
    relation_properties,
    satisfies_k,
)
from hyperdox.kripke import equivalence_classes
from hyperdox.proofcheck import SchemeId, instantiate_scheme
from randgen import random_formula, random_local_kripke
from oracles import (
    SCHEME_ARITY,
    naive_equivalence_classes,
    naive_relation_properties,
    naive_satisfies_k,
    reflexive_transitive_closure,
    symmetric_closure,
    warshall_equivalence,
)


def rel(size, pairs):
    return Relation.from_pairs(size, pairs)


def test_generated_equivalence_empty_is_identity():
    out = generated_equivalence(rel(3, []))
    assert out.pairs == {(0, 0), (1, 1), (2, 2)}


def test_generated_equivalence_chain_connects_all():
    out = generated_equivalence(rel(3, [(0, 1), (1, 2)]))
    assert out.pairs == {(u, v) for u in range(3) for v in range(3)}


@settings(max_examples=400, deadline=None)
@given(
    size=st.integers(1, 6),
    data=st.data(),
)
def test_generated_equivalence_matches_warshall(size, data):
    pairs = data.draw(
        st.sets(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)))
    )
    assert generated_equivalence(rel(size, pairs)).pairs == warshall_equivalence(size, pairs)


def test_closure_contains_and_is_equivalence():
    rng = random.Random(3)
    for _ in range(200):
        size = rng.randint(1, 6)
        pairs = {
            (rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(0, 8))
        }
        out = generated_equivalence(rel(size, pairs))
        props = relation_properties(out)
        assert props.reflexive and props.symmetric and props.transitive
        assert pairs <= out.pairs
        assert out.pairs == reflexive_transitive_closure(size, symmetric_closure(pairs))


@settings(max_examples=400, deadline=None)
@given(size=st.integers(1, 4), data=st.data())
def test_relation_properties_match_definitions(size, data):
    pairs = data.draw(
        st.sets(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)))
    )
    r = rel(size, pairs)
    assert relation_properties(r).to_json() == naive_relation_properties(size, pairs)
    assert equivalence_classes(r) == naive_equivalence_classes(size, pairs)


def test_relation_properties_identity():
    props = relation_properties(rel(3, [(i, i) for i in range(3)]))
    assert props == relation_properties(rel(3, [(i, i) for i in range(3)]))
    assert props.serial and props.transitive and props.euclidean
    assert props.reflexive and props.symmetric


def test_relation_properties_single_arrow():
    props = relation_properties(rel(2, [(0, 1)]))
    assert not props.serial  # world 1 has no successor
    assert props.transitive  # vacuously
    # not Euclidean: (0,1) and (0,1) force (1,1)
    assert not props.euclidean
    assert relation_properties(rel(2, [(0, 1), (1, 1)])).euclidean


def test_five_worlds_agent_a_is_ste(five_worlds_k):
    props = relation_properties(five_worlds_k.belief[0])
    assert props.serial and props.transitive and props.euclidean


def test_five_worlds_classification(five_worlds_k):
    report = model_properties(five_worlds_k)
    assert report.local and report.proper
    assert report.in_k_te and report.in_k_ste


def test_five_worlds_equivalence_classes(five_worlds_k):
    names = five_worlds_k.worlds
    classes = {
        agent: sorted(tuple(names[u] for u in group) for group in
                      equivalence_classes(five_worlds_k.belief[agent]))
        for agent in range(3)
    }
    assert classes[0] == [("1", "3", "4"), ("2",), ("5",)]
    assert classes[1] == [("1",), ("2", "3", "5"), ("4",)]
    assert classes[2] == [("1", "2", "3"), ("4", "5")]


def test_single_world_identity_in_ste(ws3):
    m = KripkeModel(
        ws3, ["w"], {a: rel(1, [(0, 0)]) for a in range(3)}, [{ws3.var_by_name("p_a_1")}]
    )
    report = model_properties(m)
    assert report.local and report.proper and report.in_k_ste


def test_indistinguishable_worlds_improper(ws3):
    total = rel(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    m = KripkeModel(ws3, ["u", "v"], {a: total for a in range(3)}, [set(), set()])
    report = model_properties(m)
    assert not report.proper
    assert "proper" in report.witnesses


def test_satisfies_negated_atom(ws3):
    m = KripkeModel(ws3, ["w"], {}, [set()])
    assert satisfies_k(m, 0, parse_formula("~p_a_1", ws3))


def test_belief_vacuous_without_successors(ws3):
    m = KripkeModel(ws3, ["w"], {}, [set()])
    assert satisfies_k(m, 0, parse_formula("B{a} false", ws3))


def test_satisfaction_matches_naive_oracle(ws3):
    rng = random.Random(11)
    vars_ = ws3.all_vars()
    agents = list(range(3))
    for _ in range(150):
        size = rng.randint(1, 5)
        belief = {
            a: rel(
                size,
                {
                    (rng.randrange(size), rng.randrange(size))
                    for _ in range(rng.randint(0, 10))
                },
            )
            for a in agents
        }
        valuation = [
            {v for v in vars_ if rng.random() < 0.4} for _ in range(size)
        ]
        m = KripkeModel(ws3, [f"w{i}" for i in range(size)], belief, valuation)
        for _ in range(6):
            f = random_formula(rng, vars_, agents, max_depth=3, max_size=8)
            w = rng.randrange(size)
            assert satisfies_k(m, w, f) == naive_satisfies_k(m, w, f)


def test_knowledge_quantifies_over_class(ws3):
    rng = random.Random(5)
    vars_ = ws3.all_vars()
    for _ in range(100):
        size = rng.randint(1, 5)
        belief = {
            a: rel(
                size,
                {
                    (rng.randrange(size), rng.randrange(size))
                    for _ in range(rng.randint(0, 8))
                },
            )
            for a in range(3)
        }
        valuation = [{v for v in vars_ if rng.random() < 0.4} for _ in range(size)]
        m = KripkeModel(ws3, [f"w{i}" for i in range(size)], belief, valuation)
        f = random_formula(rng, vars_, range(3), max_depth=2, max_size=5)
        a = rng.randrange(3)
        w = rng.randrange(size)
        group = next(g for g in equivalence_classes(m.belief[a]) if w in g)
        assert satisfies_k(m, w, Knows(a, f)) == all(satisfies_k(m, u, f) for u in group)


def test_local_veracity_on_atom(five_worlds_k):
    f = parse_formula("p_a_1", five_worlds_k.workspace)
    assert check_local_veracity(five_worlds_k, 0, f)


def test_local_veracity_random_ste(ws3):
    from randgen import random_a_formula

    rng = random.Random(23)
    for _ in range(60):
        m = random_local_kripke(ws3, rng, max_worlds=4, serial=True, proper=True)
        a = rng.randrange(3)
        f = random_a_formula(ws3, a, rng, max_depth=2)
        assert check_local_veracity(m, a, f)


def test_local_veracity_rejects_non_local(ws3):
    p = ws3.var_by_name("p_a_1")
    m = KripkeModel(
        ws3, ["u", "v"], {0: rel(2, [(0, 1), (1, 1)])}, [{p}, set()]
    )
    with pytest.raises(PreconditionError, match="local"):
        check_local_veracity(m, 0, parse_formula("p_a_1", ws3))


def test_local_veracity_rejects_wrong_fragment(five_worlds_k):
    f = parse_formula("p_b_1", five_worlds_k.workspace)
    with pytest.raises(FragmentError):
        check_local_veracity(five_worlds_k, 0, f)


def test_axioms_valid_on_random_ste_models(ws3):
    rng = random.Random(41)
    vars_ = ws3.all_vars()
    agents = list(range(3))
    for _ in range(40):
        m = random_local_kripke(ws3, rng, max_worlds=4, serial=True, proper=True)
        for scheme in SchemeId:
            a = rng.randrange(3)
            arity = SCHEME_ARITY[scheme]
            if arity == "atom":
                inst = instantiate_scheme(scheme, a, p=ws3.vars_of(a)[0])
            elif arity == "two":
                inst = instantiate_scheme(
                    scheme,
                    a,
                    phi=random_formula(rng, vars_, agents, 2, 5),
                    psi=random_formula(rng, vars_, agents, 2, 5),
                )
            else:
                inst = instantiate_scheme(
                    scheme, a, phi=random_formula(rng, vars_, agents, 2, 5)
                )
            assert all(satisfies_k(m, w, inst) for w in range(m.n_worlds)), scheme


def test_class_monotonicity(ws3):
    rng = random.Random(17)
    for _ in range(50):
        m = random_local_kripke(ws3, rng, max_worlds=4, serial=rng.random() < 0.5)
        report = model_properties(m)
        if report.in_k_ste:
            assert report.in_k_te
