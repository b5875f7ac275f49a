"""Acceptance suite: one timed criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import time

from hyperdox import (
    Atom,
    Believes,
    MP,
    ProofStep,
    SchemeId,
    SearchBounds,
    System,
    Tautology,
    Workspace,
    accessibility,
    check_local_veracity,
    check_modal_equivalence,
    check_proof,
    countermodel,
    f_imp,
    generated_equivalence,
    graph_metrics,
    hypergraph_to_kripke,
    kripke_to_hypergraph,
    parse_formula,
    relation_properties,
    satisfies_h,
    satisfies_k,
    soundness_suite,
)
from hyperdox.formula import Knows, Not
from hyperdox.kripke import Relation
from hyperdox.proofcheck import Axiom, NecB
from randgen import random_a_formula, random_local_kripke, random_uniform_model
from conftest import fixture_path
from oracles import warshall_equivalence

WS1 = Workspace(("a",), (("p_a_1",),))
WS2 = Workspace(("a", "b"), (("p_a_1",), ("p_b_1",)))
WS3 = Workspace(("a", "b", "c"), (("p_a_1",), ("p_b_1",), ("p_c_1",)))


def report(number, description, ok, elapsed, budget):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description} ({elapsed:.2f}s, budget {budget}s)"
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget: {elapsed:.2f}s"


def test_criterion_1_chain_accessibility(chain4):
    start = time.perf_counter()
    rel = accessibility(chain4, 0, "doxastic")
    i = chain4.edge_index
    ok = (
        (i("e2"), i("e3")) in rel.pairs
        and (i("e3"), i("e3")) in rel.pairs
        and (i("e2"), i("e2")) not in rel.pairs
        and (i("e3"), i("e2")) not in rel.pairs
    )
    report(1, "doxastic accessibility on the 4-edge chain fixture", ok, time.perf_counter() - start, 1)


def test_criterion_2_pair_accessibility(pair2):
    start = time.perf_counter()
    rel_a = accessibility(pair2, 0, "doxastic")
    rel_c = accessibility(pair2, 2, "doxastic")
    i = pair2.edge_index
    ok = (
        (i("e1"), i("e1")) in rel_c.pairs
        and (i("e1"), i("e2")) in rel_a.pairs
        and (i("e1"), i("e1")) not in rel_a.pairs
        and (i("e2"), i("e1")) not in rel_a.pairs
    )
    report(2, "doxastic accessibility on the 2-edge pair fixture", ok, time.perf_counter() - start, 1)


def test_criterion_3_five_world_conversion(five_worlds_k):
    start = time.perf_counter()
    mh, cert = kripke_to_hypergraph(five_worlds_k)
    expected = {
        "e1": (frozenset({"b:{1}"}), frozenset({"a:{1,3,4}", "c:{1,2,3}"})),
        "e2": (frozenset({"a:{2}", "b:{2,3,5}", "c:{1,2,3}"}), frozenset()),
        "e3": (frozenset({"b:{2,3,5}", "c:{1,2,3}"}), frozenset({"a:{1,3,4}"})),
        "e4": (frozenset({"a:{1,3,4}", "b:{4}", "c:{4,5}"}), frozenset()),
        "e5": (frozenset({"a:{5}"}), frozenset({"b:{2,3,5}", "c:{4,5}"})),
    }
    metrics = graph_metrics(mh)
    ok = (
        len(mh.vertices) == 8
        and mh.n_edges == 5
        and all(expected[e.name] == (e.tail, e.head) for e in mh.edges)
        and cert.injective
        and metrics.simple
        and metrics.n_uniform
        and metrics.tail_complete
    )
    report(3, "5-world frame converts to the 8-vertex 5-edge hypergraph", ok, time.perf_counter() - start, 1)


def test_criterion_4_accessibility_property_suite():
    start = time.perf_counter()
    rng = random.Random(20260811)
    ws_by_n = {1: WS1, 2: WS2, 3: WS3}
    checked = 0
    violations = 0
    for _ in range(1000):
        n = rng.choice([1, 2, 3])
        m = random_uniform_model(ws_by_n[n], rng, max_edges=5)
        tail_complete = graph_metrics(m).tail_complete
        for a in range(n):
            dox = relation_properties(accessibility(m, a, "doxastic"))
            if not (dox.transitive and dox.euclidean):
                violations += 1
            if tail_complete and not dox.serial:
                violations += 1
            epi = relation_properties(accessibility(m, a, "epistemic"))
            if not (epi.reflexive and epi.symmetric and epi.transitive):
                violations += 1
        checked += 1
    ok = checked >= 1000 and violations == 0
    report(
        4,
        "1000 uniform models: belief transitive+euclidean (serial when tail-complete), knowledge an equivalence",
        ok,
        time.perf_counter() - start,
        30,
    )


def test_criterion_5_soundness_suites():
    start = time.perf_counter()
    bounds = SearchBounds(2, 2, 1)
    total_violations = 0
    for system, cls in [
        (System.LOC_K45, "H_su"),
        (System.LOC_KD45, "H_sut"),
        (System.EDL, "H_sut"),
    ]:
        rep = soundness_suite(system, cls, bounds, instantiation_depth=1)
        total_violations += len(rep.violations)
    report(
        5,
        "soundness suites for all three systems at depth 1 report zero violations",
        total_violations == 0,
        time.perf_counter() - start,
        300,
    )


def test_criterion_6_separation_witness():
    start = time.perf_counter()
    bounds = SearchBounds(1, 2, 1)
    f = parse_formula("~B{a}(p_a_1 & ~p_a_1)", bounds.workspace())
    found = countermodel("H_su", f, bounds)
    exhausted = countermodel("H_sut", f, bounds)
    ok = found.outcome == "countermodel" and exhausted.outcome == "exhausted"
    report(
        6,
        "belief consistency separates the two classes (countermodel without tail-completeness only)",
        ok,
        time.perf_counter() - start,
        60,
    )


def test_criterion_7_modal_equivalence_suite():
    # exhaustive by depth needs a size cap to be finite: all 248 formulas
    # of depth <= 2 and at most 4 nodes over the 2-atom workspace
    start = time.perf_counter()
    from hyperdox import enumerate_formulas

    formulas = list(enumerate_formulas(WS2.all_vars(), range(2), 2, 4))
    rng = random.Random(7117)
    disagreements = 0
    for _ in range(100):
        mk = random_local_kripke(WS2, rng, max_worlds=4, serial=True, proper=True)
        mh, cert = kripke_to_hypergraph(mk)
        rep = check_modal_equivalence(mk, mh, cert.mapping, formulas)
        disagreements += len(rep.disagreements)
    for _ in range(100):
        mh = random_uniform_model(WS2, rng, max_edges=4, tail_bias=0.7, require="H_sut")
        mk, cert = hypergraph_to_kripke(mh)
        rep = check_modal_equivalence(mk, mh, cert.mapping, formulas)
        disagreements += len(rep.disagreements)
    report(
        7,
        "both conversions preserve satisfaction on all (state, formula) pairs (248 formulas x 200 models)",
        disagreements == 0,
        time.perf_counter() - start,
        300,
    )


def test_criterion_8_local_veracity_suite():
    start = time.perf_counter()
    rng = random.Random(8088)
    violations = 0
    for _ in range(500):
        m = random_local_kripke(WS3, rng, max_worlds=4, serial=True, proper=True)
        a = rng.randrange(3)
        f = random_a_formula(WS3, a, rng, max_depth=2)
        if not check_local_veracity(m, a, f):
            violations += 1
    for _ in range(500):
        m = random_local_kripke(WS3, rng, max_worlds=4, serial=False, proper=True)
        a = rng.randrange(3)
        f = random_a_formula(WS3, a, rng, max_depth=2)
        if not check_local_veracity(m, a, f):
            violations += 1
    report(
        8,
        "local veracity holds on 500 serial and 500 non-serial local models",
        violations == 0,
        time.perf_counter() - start,
        120,
    )


def test_criterion_9_closure_oracle():
    start = time.perf_counter()
    rng = random.Random(9009)
    disagreements = 0
    for _ in range(10000):
        size = rng.randint(1, 6)
        pairs = {
            (rng.randrange(size), rng.randrange(size))
            for _ in range(rng.randint(0, 10))
        }
        ours = generated_equivalence(Relation.from_pairs(size, pairs)).pairs
        if ours != warshall_equivalence(size, pairs):
            disagreements += 1
    report(
        9,
        "union-find equivalence closure agrees with Warshall on 10000 relations",
        disagreements == 0,
        time.perf_counter() - start,
        10,
    )


def test_criterion_10_proof_checker():
    start = time.perf_counter()
    p = Atom(WS2.var_by_name("p_a_1"))
    q = Atom(WS2.var_by_name("p_b_1"))
    s1 = f_imp(Knows(0, p), Believes(0, p))
    s3 = f_imp(Not(Believes(0, p)), Not(Knows(0, p)))
    s2 = f_imp(s1, s3)
    base = [
        ProofStep(s1, Axiom(SchemeId.K_IB)),
        ProofStep(s2, Tautology()),
        ProofStep(s3, MP(1, 2)),
    ]
    ok = check_proof(System.EDL, base).ok

    mutations = []
    wrong_scheme = [ProofStep(s1, Axiom(SchemeId.FOUR_B))] + base[1:]
    mutations.append((wrong_scheme, System.EDL, 1))
    swapped_mp = base[:2] + [ProofStep(s3, MP(2, 1))]
    mutations.append((swapped_mp, System.EDL, 3))
    altered = base[:2] + [ProofStep(f_imp(Not(Believes(0, q)), Not(Knows(0, q))), MP(1, 2))]
    mutations.append((altered, System.EDL, 3))
    nec_b = base + [ProofStep(Believes(0, s3), NecB(0, 3))]
    mutations.append((nec_b, System.EDL, 4))
    out_of_range = base[:2] + [ProofStep(s3, MP(1, 5))]
    mutations.append((out_of_range, System.EDL, 3))
    mutations.append((base, System.LOC_KD45, 1))  # fragment breach

    for steps, system, expected_step in mutations:
        result = check_proof(system, steps)
        if result.ok or result.step != expected_step:
            ok = False
    report(
        10,
        "3-step derivation accepted; all 6 mutations rejected at the right step",
        ok,
        time.perf_counter() - start,
        1,
    )


def test_completeness_spot_checks():
    # not a numbered criterion: curated non-theorems found falsifiable
    start = time.perf_counter()
    b2 = SearchBounds(2, 2, 1)
    ws2 = b2.workspace()
    non_theorems = [
        parse_formula("B{a} p_b_1 -> p_b_1", ws2),
        parse_formula("p_b_1 -> B{a} p_b_1", ws2),
        parse_formula("~B{a} p_a_1", ws2),
        parse_formula("K{a} p_b_1", ws2),
    ]
    ok = all(countermodel("H_sut", f, b2).outcome == "countermodel" for f in non_theorems)
    print(f"[{'PASS' if ok else 'FAIL'}] spot checks: curated non-theorems all falsified "
          f"({time.perf_counter() - start:.2f}s)")
    assert ok
