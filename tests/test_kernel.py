import random

from hyperdox import search
from hyperdox.formula import And, Atom, Believes, Knows, Not, f_iff, f_imp
from hyperdox.hypergraph import frame_h
from hyperdox.kernel import (
    AND, ATOM, BELIEF, BOX, KNOWLEDGE, NOT, Frame, compile_formulas, evaluate, fold, index_bits,
    replicate, run,
)
from hyperdox.proofcheck import SCHEMES
from hyperdox.search import SearchBounds
from hyperdox.workspace import PropVar, Workspace
from randgen import random_formula
from oracles import naive_satisfies_h

WS = Workspace(("a", "b"), (("p_a_1",), ("p_b_1",)))
P, Q = (Atom(v) for v in WS.all_vars())


def test_equal_triples_share_a_slot():
    conj = And(P, Q)
    prog = compile_formulas(
        [P, Q, conj, And(Q, P), Believes(0, conj), Knows(0, conj), Believes(1, conj)]
        + [P, Q, conj, Believes(0, conj)]
    )
    p, q, pq, qp, box, *others = prog.roots
    assert p != q and others[2:] == [p, q, pq, box]  # one slot per triple, across formulas
    assert qp != pq  # argument order is part of the triple
    assert len({box, *others[:2]}) == 3  # and the modality, agent and kind
    assert len(prog.op) == 7  # p, q, p & q, q & p and three boxes
    assert prog.atoms == [P.var, Q.var]
    assert prog.modals == [(0, "B"), (0, "K"), (1, "B")]


def test_double_negation_folds():
    prog = compile_formulas([P, Not(P), Not(Not(P)), Not(Not(Not(P)))])
    p, not_p = prog.roots[:2]
    assert not_p != p and list(prog.roots) == [p, not_p, p, not_p]
    assert list(prog.op) == [ATOM, NOT]
    assert list(compile_formulas([Not(Not(P))]).op) == [ATOM]  # ~p is never emitted


def test_conjunction_with_double_negation_shares_the_plain_slot():
    prog = compile_formulas(
        [And(P, Q), And(Not(Not(P)), Q), And(P, Not(Not(Q)))]
        + [Believes(0, And(Not(Not(P)), Q)), Believes(0, And(P, Q)), Knows(0, And(P, Q))]
    )
    plain, left, right, folded_box, box, knows = prog.roots
    assert plain == left == right
    assert folded_box == box and knows != box
    # one program over both formulas has one slot for them, and ~~p folds
    # on the tree, so the inner ~p is never emitted
    prog = compile_formulas([And(Not(Not(P)), Q), And(P, Q)])
    assert prog.roots[0] == prog.roots[1]
    assert list(prog.op) == [ATOM, ATOM, AND]


def test_compile_walks_a_shared_subtree_once():
    # each level's two conjuncts are one object, so by value the formula
    # is a tree of 2^31 - 1 nodes; compiling walks every distinct object once
    f = P
    for _ in range(30):
        f = And(f, f)
    assert len(compile_formulas([f]).op) == 31
    g = Q
    for _ in range(30):
        g = And(Not(g), g)
    assert len(compile_formulas([g]).op) == 1 + 2 * 30


def test_letter_replaces_atoms_and_maximal_modal_subformulas():
    seen = []

    def letter(sub):
        seen.append(sub)
        return WS.all_vars()[len(seen) % 2]

    f = And(Believes(0, Not(P)), Not(Q))
    prog = compile_formulas([f], letter)
    assert seen == [Believes(0, Not(P)), Q]  # left first, never below a box
    assert BOX not in prog.op and prog.modals == []
    assert prog.atoms == [Q.var, P.var]


def _walked(formulas) -> tuple:
    """(ops, roots, atoms, modals) of a recursive walk of each formula on
    its own, interning (op, a, b) triples and folding ~~x as
    compile_formulas does."""
    ops, slots, atoms, modals = [], {}, {}, {}

    def node(op, a, b=0):
        if (op, a, b) not in slots:
            slots[op, a, b] = len(ops)
            ops.append((op, a, b))
        return slots[op, a, b]

    def walk(f):
        if type(f) is And:
            a = walk(f.left)
            return node(AND, a, walk(f.right))
        if type(f) is Not and type(f.sub) is Not:
            return walk(f.sub.sub)
        if type(f) is Atom:
            return node(ATOM, atoms.setdefault(f.var, len(atoms)))
        b = walk(f.sub)
        if type(f) is Not:
            return node(NOT, b)
        key = f.agent, BELIEF if type(f) is Believes else KNOWLEDGE
        return node(BOX, modals.setdefault(key, len(modals)), b)

    roots = [walk(f) for f in formulas]
    return ops, roots, list(atoms), list(modals)


def test_a_list_walks_its_shared_subformulas_once():
    rng = random.Random(28)
    base = [random_formula(rng, WS.all_vars(), range(2), 2, 7) for _ in range(8)]
    formulas = (
        base
        + [And(f, g) for f, g in zip(base, base[1:])]
        + [Believes(1, f) for f in base]
        + [Not(Not(f)) for f in base]
    )
    prog = compile_formulas(formulas)
    ops, roots, atoms, modals = _walked(formulas)
    assert list(zip(prog.op, prog.a, prog.b)) == ops and list(prog.roots) == roots
    assert prog.atoms == atoms and prog.modals == modals
    # the letter hook meets each distinct letter once across the list,
    # though formulas compiled one at a time meet shared letters again
    seen, letters = [], {}

    def letter(sub):
        seen.append(sub)
        return PropVar(0, letters.setdefault(sub, len(letters)))

    compile_formulas(formulas, letter)
    assert len(seen) == len(set(seen)) == len(letters) > 1
    alone = []
    for f in formulas:
        compile_formulas([f], lambda sub: alone.append(sub) or PropVar(0, 0))
    assert len(alone) > len(seen) and set(alone) == set(seen)


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


def test_box_memo_holds_on_a_reused_frame(monkeypatch):
    # with four lanes per window, search._lanes keeps one frame per
    # structure and reassigns its atom masks per window; programs run on it
    # in a seeded order must give, on each lane, the masks of the model's
    # own frame and of the oracle, and every memoised box must be the box
    # of its argument under the frame's blocks
    monkeypatch.setattr(search, "_LANES", 4)
    rng = random.Random(20261018)
    bounds = SearchBounds(2, 2, 1)
    ws = bounds.workspace()
    batches = [
        [random_formula(rng, ws.all_vars(), range(2), 3, 9) for _ in range(4)] for _ in range(3)
    ]
    progs = [compile_formulas(batch) for batch in batches]
    models = search.enumerate_models("all", bounds)
    frames, windows, box_runs = {}, 0, 0
    for structure, _, _, frame in search._lanes("all", bounds, 0):
        frames[id(frame)], windows = frame, windows + 1
        width, edges = frame.width, range(len(structure))
        window = [next(models) for _ in range(width)]
        for k in rng.sample(range(len(progs)), len(progs)):
            masks = evaluate(progs[k], frame)
            box_runs += list(progs[k].op).count(BOX)
            for lane, model in enumerate(window):
                own = [sum((m >> e * width + lane & 1) << e for e in edges) for m in masks]
                assert own == evaluate(progs[k], frame_h(model))
                for f, mask in zip(batches[k], own):
                    assert [mask >> i & 1 == 1 for i in edges] == [
                        naive_satisfies_h(model, i, f) for i in edges
                    ]
    assert next(models, None) is None
    assert len(frames) == 96 < windows
    memoised = 0
    for frame in frames.values():
        for key, memo in frame.boxes.items():
            for arg, box in memo.items():
                bad = frame.full ^ arg
                fail = 0
                for span, reach in frame.blocks.get(key, ()):
                    fail |= fold(reach & bad, frame.width) * span
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


def _naive_run(ops, atom_masks, blocks, size, width):
    """The mask of every op, state by state: a box holds at state e·width
    + k when every block whose span holds edge e reaches, on lane k, only
    states where its argument holds."""
    vals = []
    for op, a, b in ops:
        if op == ATOM:
            vals.append(atom_masks[a])
        elif op == NOT:
            vals.append((1 << size) - 1 ^ vals[a])
        elif op == AND:
            vals.append(vals[a] & vals[b])
        else:
            holds = (
                all(
                    vals[b] >> f * width + k & 1
                    for span, reach in blocks[a] if span >> e * width & 1
                    for f in range(size // width) if reach >> f * width + k & 1
                )
                for e, k in (divmod(s, width) for s in range(size))
            )
            vals.append(sum(h << s for s, h in enumerate(holds)))
    return vals


def test_run_on_copies_matches_each_copy():
    # T copies of a frame side by side (copy t on states t·size ..), with
    # the boxes of Frame.box(key, T): each copy's masks are those of a
    # state-by-state evaluation of that copy alone, for width-1 and lane
    # frames and edge counts that are and are not powers of two, so that
    # the log-step fold meets overlapping slices
    rng = random.Random(20261020)
    prog = compile_formulas(random_formula(rng, WS.all_vars(), range(2), 3, 9) for _ in range(30))
    ops = list(zip(prog.op, prog.a, prog.b))
    for width, edges, copies in (
        (1, 1, 1), (1, 5, 7), (1, 8, 3), (4, 3, 1), (4, 3, 9), (3, 6, 2), (5, 1, 4)
    ):
        size, lanes = width * edges, (1 << width) - 1

        def spread(mask, fill):  # fill on each edge of the edge mask
            return sum(fill << e * width for e in range(edges) if mask >> e & 1)

        frame = Frame(size, width=width)
        frame.blocks = {
            (agent, kind): [
                (spread(rng.getrandbits(edges), 1), spread(rng.getrandbits(edges), lanes))
                for _ in range(3)
            ]
            for agent in range(2)
            for kind in ("B", "K")
        }
        atoms = [[rng.getrandbits(size) for _ in prog.atoms] for _ in range(copies)]
        packed = run(
            ops,
            [sum(a[i] << t * size for t, a in enumerate(atoms)) for i in range(len(prog.atoms))],
            [frame.box(key, copies) for key in prog.modals],
            (1 << copies * size) - 1,
        )
        blocks = [frame.blocks[key] for key in prog.modals]
        for t in range(copies):
            alone = _naive_run(ops, atoms[t], blocks, size, width)
            assert [m >> t * size & frame.full for m in packed] == alone
    assert replicate(0b101, 3, 4) == 0b0101_0101_0101 and replicate(7, 1, 9) == 7


def test_lane_frame_runs_every_lane_as_its_own_frame():
    # W frames of one size and blocks, laid out edge-major (state e·W + k is
    # state e of frame k) with shared blocks, give on lane k the masks and
    # first failing state of frame k; run folds the lanes where a reach
    # fails and shifts them onto the span's edges
    rng = random.Random(20261019)
    size, width = 4, 5
    lanes = (1 << width) - 1

    def spread(mask, fill):
        return sum(fill << e * width for e in range(size) if mask >> e & 1)

    blocks = {
        (agent, kind): [(rng.getrandbits(size), rng.getrandbits(size)) for _ in range(3)]
        for agent in range(2)
        for kind in ("B", "K")
    }
    singles = [
        Frame(size, {p: rng.getrandbits(size) for p in WS.all_vars()}, blocks) for _ in range(width)
    ]
    frame = Frame(size * width, width=width)
    frame.blocks = {
        key: [(spread(span, 1), spread(reach, lanes)) for span, reach in pairs]
        for key, pairs in blocks.items()
    }
    frame.atoms = {
        p: sum(spread(single.atoms[p], 1 << k) for k, single in enumerate(singles))
        for p in WS.all_vars()
    }
    prog = compile_formulas(random_formula(rng, WS.all_vars(), range(2), 3, 9) for _ in range(40))
    masks = evaluate(prog, frame)
    for k, single in enumerate(singles):
        assert [spread(m, 1 << k) for m in evaluate(prog, single)] == [
            m & spread(single.full, 1 << k) for m in masks
        ]
    for mask in masks:
        expected = {}
        for k, single in enumerate(singles):
            lane = sum((mask >> e * width + k & 1) << e for e in range(size))
            for _, i in single.failures(lane):
                expected[k] = i
        assert dict(frame.failures(mask)) == expected
    assert fold(0b10110_00001_00000, width) == 0b10111
    assert list(Frame(3).failures(0b010)) == [(0, 0)]  # a width-1 frame is one lane


def test_index_bits_are_the_truth_table_columns():
    # mask b of index_bits(k) holds the indices below 2**k with bit b set
    for k in range(9):
        assert index_bits(k) == [
            sum(1 << s for s in range(1 << k) if s >> b & 1) for b in range(k)
        ]
