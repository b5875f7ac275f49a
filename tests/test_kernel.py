import random

from hyperdox import search
from hyperdox.formula import And, Atom, Believes, Knows, Not, f_iff, f_imp
from hyperdox.hypergraph import frame_h
from hyperdox.kernel import AND, ATOM, BOX, NOT, Builder, Frame, compile_formulas, evaluate, run
from hyperdox.proofcheck import SCHEMES
from hyperdox.search import SearchBounds
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
    # one program over both formulas has one slot for them, and ~~p folds
    # on the tree, so the inner ~p is never emitted
    prog = compile_formulas([And(Not(Not(P)), Q), And(P, Q)])
    assert prog.roots[0] == prog.roots[1]
    assert list(prog.op) == [ATOM, ATOM, AND]


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


def _unread_slots(prog) -> list:
    """The slots that are neither a root nor read by a later op."""
    read = set(prog.roots)
    for op, a, b in zip(prog.op, prog.a, prog.b):
        if op == NOT or op == AND:
            read.add(a)
        if op == AND or op == BOX:
            read.add(b)
    return [slot for slot in range(len(prog.op)) if slot not in read]


def test_no_compiled_program_holds_an_unread_op():
    # ~~x folds on the formula tree, so the ~x that it skips is never
    # emitted: seeded formula lists, implication and biconditional chains
    # and the scheme patterns read every op
    rng = random.Random(20261019)
    for n in (1, 5, 20):
        for _ in range(10):
            batch = [random_formula(rng, WS.all_vars(), range(2), 3, 12) for _ in range(n)]
            assert _unread_slots(compile_formulas(batch)) == []
    imp = iff = P
    for k in range(12):
        imp = f_imp(imp, Believes(k % 2, Q if k % 3 else Not(P)))
        iff = f_iff(Knows(k % 2, iff), Not(Q) if k % 2 else P)
        assert _unread_slots(compile_formulas([imp, iff, Not(imp)])) == []
    assert len(SCHEMES) == 12
    for pattern in SCHEMES.values():
        assert _unread_slots(compile_formulas([pattern])) == []


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


def test_run_computes_a_box_on_its_first_argument_only():
    # evaluate and the suite's patterns share one op loop and the frame's
    # memo per (agent, kind): a box is computed from the blocks at its
    # first argument, and later runs on that argument only read the memo
    frame = Frame(3, {P.var: 0b011}, {(0, "B"): [(0b001, 0b010), (0b110, 0b100)]})
    assert evaluate(compile_formulas([Believes(0, P)]), frame) == [0b001]
    assert frame.boxes == {(0, "B"): {0b011: 0b001}}
    frame.blocks[0, "B"] = []  # a hit must not read them
    steps = [(ATOM, 0, 0), (BOX, 0, 0), (NOT, 1, 0), (ATOM, 1, 0), (BOX, 0, 3)]
    assert run(steps, [0b011, 0b111], [frame.box((0, "B"))], frame.full) == [
        0b011, 0b001, 0b110, 0b111, 0b111
    ]
    assert frame.boxes == {(0, "B"): {0b011: 0b001, 0b111: 0b111}}
