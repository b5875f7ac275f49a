from hyperdox.formula import And, Atom, Believes, Knows, Not
from hyperdox.kernel import AND, ATOM, BOX, NOT, Builder, compile_formulas
from hyperdox.workspace import Workspace

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
