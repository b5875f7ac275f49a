import hashlib
import itertools
import json
import random

import pytest

from hyperdox import search
from hyperdox.convert import FormulaSlots
from hyperdox.formula import And, Atom, Believes, Knows, Not
from hyperdox.hypergraph import frame_h
from hyperdox.kernel import AND, ATOM, BOX, NOT, Builder, Frame, compile_formulas, evaluate, union
from hyperdox.proofcheck import System
from hyperdox.search import SearchBounds, scheme_instances
from hyperdox.workspace import Workspace
from randgen import random_formula
from oracles import naive_satisfies_h

WS = Workspace(("a", "b"), (("p_a_1",), ("p_b_1",)))
P, Q = (Atom(v) for v in WS.all_vars())


def test_equal_triples_share_a_slot():
    b = Builder()
    p, q = b.atom(P.var), b.atom(Q.var)
    assert (p, q) == (b.atom(P.var), b.atom(Q.var)) and p != q
    conj = b.node(AND, p, q)
    assert b.node(AND, p, q) == conj
    assert b.node(AND, q, p) != conj  # argument order is part of the triple
    box = b.node(BOX, b.modal(0, "B"), conj)
    assert b.node(BOX, b.modal(0, "B"), conj) == box
    assert b.node(BOX, b.modal(0, "K"), conj) != box
    assert b.node(BOX, b.modal(1, "B"), conj) != box
    assert len(b.prog.op) == 7  # p, q, p & q, q & p and three boxes
    prog = b.program([box, conj])
    assert list(prog.roots) == [box, conj]
    assert prog.atoms == [P.var, Q.var]
    assert prog.modals == [(0, "B"), (0, "K"), (1, "B")]


def test_double_negation_folds():
    b = Builder()
    p = b.atom(P.var)
    not_p = b.node(NOT, p)
    assert not_p != p and b.node(NOT, not_p) == p
    assert b.node(NOT, b.node(NOT, not_p)) == not_p
    assert b.emit(Not(Not(P))) == p
    assert b.emit(Not(Not(Not(P)))) == not_p
    assert list(b.prog.op) == [ATOM, NOT]


def test_conjunction_with_double_negation_shares_the_plain_slot():
    b = Builder()
    plain = b.emit(And(P, Q))
    assert b.emit(And(Not(Not(P)), Q)) == plain
    assert b.emit(And(P, Not(Not(Q)))) == plain
    assert b.emit(Believes(0, And(Not(Not(P)), Q))) == b.emit(Believes(0, And(P, Q)))
    assert b.emit(Knows(0, And(P, Q))) != b.emit(Believes(0, And(P, Q)))
    # one program over both formulas has one slot for them (the inner ~p
    # is emitted on the way to ~~p, which folds onto p)
    prog = compile_formulas([And(Not(Not(P)), Q), And(P, Q)])
    assert prog.roots[0] == prog.roots[1]
    assert list(prog.op) == [ATOM, NOT, ATOM, AND]


def test_emit_walks_a_shared_subtree_once():
    # each level's two conjuncts are one object, so by value the formula
    # is a tree of 2^31 - 1 nodes; emitting walks every distinct object once
    f = P
    for _ in range(30):
        f = And(f, f)
    b = Builder()
    b.emit(f)
    assert len(b.prog.op) == 31
    g = Q
    for _ in range(30):
        g = And(Not(g), g)
    assert len(compile_formulas([g]).op) == 1 + 2 * 30


def test_leaf_replaces_atoms_and_maximal_modal_subformulas():
    b = Builder()
    seen = []

    def leaf(node):
        seen.append(node)
        return b.atom(Atom(WS.all_vars()[len(seen) % 2]).var)

    f = And(Believes(0, Not(P)), Not(Q))
    b.emit(f, leaf)
    assert seen == [Believes(0, Not(P)), Q]  # left first, never below a box
    assert BOX not in b.prog.op


@pytest.mark.parametrize(
    "system, ops, digest",
    [
        (System.LOC_K45, 14894, "5e4e87588260489f22483554e23a6d626b7ba866a5c4a90c77fa0dc33d3a4045"),
        (System.LOC_KD45, 15022, "d63193a8b0be1f3977366ae682c83732b095c6ad4fcc79bc4c677823a5da9d2a"),
        (System.EDL, 28526, "968397aa408d3051db296a06c7ef165eee4c3fa3b62e469506b3d09885daf5c5"),
    ],
)
def test_suite_programs_pinned(system, ops, digest):
    # the op columns and roots of the depth-1 suite programs at (2,2,1),
    # recorded when each instance was replayed one node() call per step
    ws = SearchBounds(2, 2, 1).workspace()
    formulas = FormulaSlots(ws.all_vars(), range(ws.n_agents), 1, 3)
    prog, _ = scheme_instances(system, ws, formulas.builder, formulas.slots)
    cols = json.dumps([list(col) for col in (prog.op, prog.a, prog.b, prog.roots)])
    assert (len(prog.op), hashlib.sha256(cols.encode()).hexdigest()) == (ops, digest)


def test_box_memo_holds_on_a_reused_frame():
    # search._frames keeps one frame per structure and reassigns its atom
    # masks per placement; programs run on it in a seeded order must give
    # the masks of a fresh frame and of the oracle, and every memoised box
    # must be the box of its argument under the frame's blocks
    rng = random.Random(20261018)
    bounds = SearchBounds(2, 2, 1)
    ws = bounds.workspace()
    batches = [
        [random_formula(rng, ws.all_vars(), range(2), 3, 9) for _ in range(4)] for _ in range(3)
    ]
    progs = [compile_formulas(batch) for batch in batches]
    frames, box_runs = {}, 0
    for structure, placement, frame in search._frames(search._stream("all", bounds, 0)):
        frames[id(frame)] = frame
        model = search._build_model(ws, structure, search._slots(structure), placement)
        for k in rng.sample(range(len(progs)), len(progs)):
            masks = evaluate(progs[k], frame)
            box_runs += list(progs[k].op).count(BOX)
            assert masks == evaluate(progs[k], frame_h(model))
            for f, mask in zip(batches[k], masks):
                assert [mask >> i & 1 == 1 for i in range(model.n_edges)] == [
                    naive_satisfies_h(model, i, f) for i in range(model.n_edges)
                ]
    assert len(frames) == 96
    memoised = 0
    for frame in frames.values():
        for key, memo in frame.boxes.items():
            for arg, box in memo.items():
                bad = frame.full ^ arg
                fail = 0
                for span, reach in frame.blocks.get(key, ()):
                    fail |= span if reach & bad else 0
                assert box == frame.full ^ fail
            memoised += len(memo)
    assert 0 < memoised < box_runs


def test_root_count_evaluates_a_prefix_of_the_roots():
    # evaluate(prog, frame, k) gives the full run's first k masks on seeded
    # programs; the last one interns its later roots onto earlier slots, so
    # its ops must run up to the largest slot of the first k roots, and a
    # box past that bound must not be evaluated
    rng = random.Random(20261019)
    bounds = SearchBounds(2, 2, 1)
    ws = bounds.workspace()
    frames = (frame for _, _, frame in search._frames(search._stream("all", bounds, 0)))
    frame = union(itertools.islice(frames, search._CHUNK))
    p, q = (Atom(v) for v in ws.all_vars())
    programs = [
        compile_formulas([random_formula(rng, ws.all_vars(), range(2), 3, 9) for _ in range(n)])
        for n in (1, 5, 12)
    ]
    late = compile_formulas([And(p, q), q, Not(Not(p)), Believes(0, p)])
    assert list(late.roots) == [2, 1, 0, 4]  # slot 3 is the ~p folded away
    for prog in programs + [late]:
        full = evaluate(prog, frame)
        n = len(prog.roots)
        for k in (0, 1, n // 2, n):
            assert evaluate(prog, frame, k) == full[:k]
    fresh = Frame(frame.size, dict(frame.atoms), frame.blocks)
    assert evaluate(late, fresh, 3) == full[:3]
    assert fresh.boxes == {(0, "B"): {}}
