"""The one satisfaction kernel, shared by hypergraph and Kripke models.

Formulas compile to a program: ops in topological order, where equal
subformulas share a slot and double negations vanish. A Builder makes
one; its node(op, a, b) is the only code that interns an op, for the
length of one call, so any emitter can write into it. compile_formulas
emits Formula trees, folding ~~x on the tree, so that no op is emitted
that the roots do not read. convert.FormulaSlots emits enumerated
formulas as slots, keeping construction records to build a Formula
from. A slot cannot be read back, since ~~x has x's slot.

run() is the one op loop: it gives the mask of every op from the masks
of the atoms and the memo and blocks of each modality's box. evaluate() runs a program on
a frame; search._instance_masks runs each scheme's compiled pattern on
it, with the metavariables bound to masks.

A frame is the state count, a bitmask per atom (bit i = state i) and,
per (agent, kind), a list of (span, reach) blocks. A box fails exactly
on the spans of the blocks whose reach meets the states where its
argument fails. Hypergraph frames have one block per vertex
(hypergraph.frame_h), Kripke frames one per world for B and one per
class for K (KripkeModel.frame). Modal truth is invariant under disjoint
union, so union() lays frames side by side; it alone shifts masks, and
`parts` records each member's (offset, size). A frame that
search._frames yields must be read before its stream advances.

A frame memoises its boxes: `boxes` maps (agent, kind) to {argument
mask: box mask}, filled as ops run (the computed table of BDD packages;
Bryant, IEEE TC 1986). A box reads only the blocks and the size, never
the atoms, so the memo holds while the atom masks are reassigned
(search._frames does so per placement) and while other programs run on
the frame; it lives and dies with the frame. A frame's blocks and size
are therefore fixed once it has been evaluated.

Structural facts are read off the program too: fragment_check from its
atoms and (agent, kind) modalities, modal_depth from its op columns.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .formula import And, Atom, Believes, Formula, Knows, Not

ATOM, NOT, AND, BOX = 0, 1, 2, 3
BELIEF, KNOWLEDGE = "B", "K"


class Program:
    """Op columns: ATOM a = index into atoms; NOT a = argument slot; AND
    a, b = argument slots; BOX a = index into modals ((agent, kind)
    pairs), b = argument slot. roots[k] is the k-th formula's slot."""

    __slots__ = ("op", "a", "b", "atoms", "modals", "roots")

    def __init__(self):
        self.op, self.a, self.b, self.roots = array("b"), array("i"), array("i"), array("i")


class Builder:
    """A program under construction, for one call. node(op, a, b) interns
    the int triple, so equal subformulas share one slot whoever emits
    them (hash-consing keyed on slots, after Filliatre and Conchon,
    "Type-safe modular hash-consing", ML 2006), and folds ~~x to x; emit
    folds a Formula's ~~x before its ~x is emitted. A slot cannot be
    decoded back into a Formula, since ~~x has x's slot."""

    __slots__ = ("prog", "_slot", "_atom", "_modal")

    def __init__(self):
        self.prog = Program()
        self._slot: dict[int, int] = {}  # packed (op, a, b) -> slot
        self._atom: dict = {}  # PropVar -> index into atoms
        self._modal: dict = {}  # (agent, kind) -> index into modals

    def node(self, op: int, a: int, b: int = 0) -> int:
        prog = self.prog
        if op == NOT and prog.op[a] == NOT:  # ~~x is x
            return prog.a[a]
        key = (a << 32 | b) << 2 | op
        slot = self._slot.get(key)
        if slot is None:
            slot = self._slot[key] = len(prog.op)
            prog.op.append(op)
            prog.a.append(a)
            prog.b.append(b)
        return slot

    def atom(self, var) -> int:
        return self.node(ATOM, self._atom.setdefault(var, len(self._atom)))

    def modal(self, agent: int, kind: str) -> int:
        return self._modal.setdefault((agent, kind), len(self._modal))

    def emit(self, f: Formula, leaf=None) -> int:
        """The slot of f, walked with an explicit stack; each distinct
        subformula is walked once, since equal subformulas are one
        interned object. leaf, if given, supplies the slot of every atom
        and modal subformula that it meets."""
        slot_of: dict[int, int] = {}  # id(node) -> slot
        stack = [f]
        while stack:
            node = stack[-1]
            if id(node) in slot_of:
                stack.pop()
                continue
            cls = type(node)
            if cls is And:
                a, b = slot_of.get(id(node.left)), slot_of.get(id(node.right))
                if a is None or b is None:
                    if b is None:
                        stack.append(node.right)
                    if a is None:
                        stack.append(node.left)
                    continue
                slot = self.node(AND, a, b)
            elif cls is Not and type(node.sub) is Not:  # ~~x is x, and ~x is not emitted
                slot = slot_of.get(id(node.sub.sub))
                if slot is None:
                    stack.append(node.sub.sub)
                    continue
            elif leaf is not None and (cls is Atom or cls is Believes or cls is Knows):
                slot = leaf(node)
            elif cls is Atom:
                slot = self.atom(node.var)
            elif cls is Not or cls is Believes or cls is Knows:
                b = slot_of.get(id(node.sub))
                if b is None:
                    stack.append(node.sub)
                    continue
                if cls is Not:
                    slot = self.node(NOT, b)
                else:
                    kind = BELIEF if cls is Believes else KNOWLEDGE
                    slot = self.node(BOX, self.modal(node.agent, kind), b)
            else:
                raise TypeError(f"not a formula: {node!r}")
            stack.pop()
            slot_of[id(node)] = slot
        return slot_of[id(f)]

    def program(self, roots) -> Program:
        """The program with the given roots. Emitting ends here, so the
        intern table is freed before the program runs."""
        self._slot.clear()
        prog = self.prog
        prog.atoms, prog.modals, prog.roots = list(self._atom), list(self._modal), array("i", roots)
        return prog


def compile_formulas(formulas) -> Program:
    """One program for all the formulas: each is emitted into one builder."""
    builder = Builder()
    return builder.program([builder.emit(f) for f in formulas])


@dataclass(frozen=True)
class FragmentInfo:
    in_doxastic_fragment: bool
    agent_formula_for: frozenset


def fragment_check(f: Formula) -> FragmentInfo:
    """Belief-only fragment membership and the agents for which f is an a-formula.

    f is an a-formula when every atom is one of a's local variables and
    every modality is indexed by a. Since formulas contain at least one
    atom, at most one agent can qualify.
    """
    prog = compile_formulas([f])
    mentioned = {p.owner for p in prog.atoms} | {agent for agent, _ in prog.modals}
    qualifying = frozenset(mentioned) if len(mentioned) == 1 else frozenset()
    return FragmentInfo(all(kind != KNOWLEDGE for _, kind in prog.modals), qualifying)


def modal_depth(f: Formula) -> int:
    """Greatest nesting of modalities, in one pass over the op columns."""
    prog = compile_formulas([f])
    depth: list[int] = []
    for op, a, b in zip(prog.op, prog.a, prog.b):
        if op == ATOM or op == NOT:
            depth.append(depth[a] if op == NOT else 0)
        else:  # AND takes the deeper argument, BOX adds one to its argument's
            depth.append(max(depth[a], depth[b]) if op == AND else depth[b] + 1)
    return depth[prog.roots[0]]


def bits(mask: int):
    """Indices of the set bits of mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class Frame:
    size: int
    atoms: dict = field(default_factory=dict)  # PropVar -> mask
    blocks: dict = field(default_factory=dict)  # (agent, kind) -> [(span, reach)]
    boxes: dict = field(default_factory=dict)  # (agent, kind) -> {argument mask: box mask}
    parts: list = field(default_factory=list)  # (offset, size) per member model

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    def box(self, key) -> tuple:
        """(memo, blocks) of the (agent, kind) box."""
        return self.boxes.setdefault(key, {}), self.blocks.get(key, ())

    def failures(self, mask: int):
        """(part index, first failing state in the part) for each member
        model on which mask is not everywhere true, in order."""
        bad = self.full ^ mask
        for k, (offset, size) in enumerate(self.parts if bad else ()):
            s = bad >> offset & ((1 << size) - 1)
            if s:
                yield k, (s & -s).bit_length() - 1


def union(frames) -> Frame:
    """The frames side by side in order, each read as it is yielded."""
    out = Frame(0)
    for frame in frames:
        offset = out.size
        for p, mask in frame.atoms.items():
            out.atoms[p] = out.atoms.get(p, 0) | mask << offset
        for key, pairs in frame.blocks.items():
            out.blocks.setdefault(key, []).extend((s << offset, r << offset) for s, r in pairs)
        out.parts.append((offset, frame.size))
        out.size += frame.size
    return out


def run(ops, atom_masks, boxes, full: int) -> list:
    """The mask of every op of (op, a, b) triples, in order: ATOM a is
    atom_masks[a], and BOX a reads boxes[a], a Frame.box pair."""
    vals: list[int] = []
    push = vals.append
    for op, a, b in ops:
        if op == AND:
            push(vals[a] & vals[b])
        elif op == NOT:
            push(full ^ vals[a])
        elif op == BOX:
            memo, blocks = boxes[a]
            arg = vals[b]
            box = memo.get(arg)
            if box is None:  # a miss: only now are the box's blocks read
                bad, fail = full ^ arg, 0
                if bad:
                    for span, reach in blocks:
                        if reach & bad:
                            fail |= span
                box = memo[arg] = full ^ fail
            push(box)
        else:
            push(atom_masks[a])
    return vals


def evaluate(prog: Program, frame: Frame) -> list:
    """The satisfaction mask of every compiled formula, in compile order."""
    vals = run(
        zip(prog.op, prog.a, prog.b),
        [frame.atoms.get(p, 0) for p in prog.atoms],
        [frame.box(key) for key in prog.modals],
        frame.full,
    )
    return [vals[r] for r in prog.roots]


def sat_mask(frame: Frame, f: Formula) -> int:
    """Mask of the states of the frame that satisfy f."""
    return evaluate(compile_formulas([f]), frame)[0]
