"""The one satisfaction kernel, shared by hypergraph and Kripke models.

Formulas compile to a program: ops in topological order, one per (op,
a, b) triple. compile_formulas is the only code that compiles a Formula:
equal subformulas share a slot, and ~~x folds on the tree, so no op is
emitted that the roots do not read. convert.FormulaSlots writes the
enumerated formulas as their own program, formula i as op i.

run() is the one op loop: it gives the mask of every op from the masks
of the atoms and the memo, blocks and fold of each modality's box
(Frame.box). evaluate() runs a program on a frame;
search._instance_masks runs each scheme's compiled pattern on many
copies of it at once, with the metavariables bound to packed masks.

A frame is the state count, a bitmask per atom (bit i = state i) and,
per (agent, kind), a list of (span, reach) blocks. A box fails exactly
on the spans of the blocks whose reach meets the states where its
argument fails. Hypergraph frames have one block per vertex
(hypergraph.frame_h), Kripke frames one per world for B and one per
class for K (KripkeModel.frame).

A lane frame holds many models of one structure at once, laid out
edge-major: with lane width W, state e·W + k is edge e of model k (bit
slicing; Biham, FSE 1997). Its blocks are shared by the W models: a span
has bit e·W of each of its edges, and a reach all W lanes of each.
search._lane_frames lays out a structure's placements this way, for
countermodel and soundness_suite alike, and a frame it yields must be
read before its stream advances. failures() reads every frame by lane;
a width-1 frame is one lane.

T copies of a frame of S states can run side by side, copy t on states
t·S .. t·S + S - 1 (SIMD within a register; Fisher and Dietz, LCPC
1998): the atoms of copy t are shifted by t·S, and Frame.box(key, T)
repeats each reach on every copy. run's box step then takes hit = reach
& bad on all copies at once, folds the E = S / W edge slices of each
copy onto its first in log steps, keeps the W lanes of each copy's first
slice and shifts them onto every span edge. The fold reads only the
slices of the copy it writes to, so nothing crosses a lane or a copy.
With T = 1 this is the lane step. With W = 1 too it fails the span or
nothing, which run does directly.

A frame memoises its one-copy boxes: `boxes` maps (agent, kind) to
{argument mask: box mask}, filled as ops run (the computed table of BDD
packages; Bryant, IEEE TC 1986). A box reads only the blocks, the size
and the width, never the atoms, so the memo holds while the atom masks
are reassigned (search._lane_frames does so per window of placements)
and while other programs run on the frame; it lives and dies with the
frame. A frame's blocks, size and width are therefore fixed once it has
been evaluated. Packed copies are not memoised: their arguments do not
repeat.

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


def compile_formulas(formulas, letter=None) -> Program:
    """One program for all the formulas, roots[k] the k-th one's slot.

    Each distinct subformula of the whole list is walked once, with an
    explicit stack, since equal subformulas are one interned object; the
    walk's table is keyed by the subformulas themselves (they hash by
    identity), so it keeps them alive while it runs. node interns the
    (op, a, b) triple (hash-consing; Filliatre and Conchon, ML 2006), so
    subformulas that differ only by ~~x, which folds on the tree, share
    one slot. letter, if given, maps each atom and modal subformula that
    the walk meets to the PropVar that stands for it."""
    prog = Program()
    slots: dict[int, int] = {}  # packed (op, a, b) -> slot
    atom_of: dict = {}  # PropVar -> index into atoms
    modal_of: dict = {}  # (agent, kind) -> index into modals

    def node(op: int, a: int, b: int = 0) -> int:
        key = (a << 32 | b) << 2 | op
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(prog.op)
            prog.op.append(op)
            prog.a.append(a)
            prog.b.append(b)
        return slot

    slot_of: dict = {}  # subformula -> slot, across the list
    for f in formulas:
        stack = [f]
        while stack:
            sub = stack[-1]
            if sub in slot_of:
                stack.pop()
                continue
            cls = type(sub)
            if cls is And:
                a, b = slot_of.get(sub.left), slot_of.get(sub.right)
                if a is None or b is None:
                    if b is None:
                        stack.append(sub.right)
                    if a is None:
                        stack.append(sub.left)
                    continue
                slot = node(AND, a, b)
            elif cls is Not and type(sub.sub) is Not:  # ~~x is x, and ~x is not emitted
                slot = slot_of.get(sub.sub.sub)
                if slot is None:
                    stack.append(sub.sub.sub)
                    continue
            elif cls is Atom or letter is not None and (cls is Believes or cls is Knows):
                var = sub.var if letter is None else letter(sub)
                slot = node(ATOM, atom_of.setdefault(var, len(atom_of)))
            elif cls is Not or cls is Believes or cls is Knows:
                b = slot_of.get(sub.sub)
                if b is None:
                    stack.append(sub.sub)
                    continue
                if cls is Not:
                    slot = node(NOT, b)
                else:
                    key = sub.agent, BELIEF if cls is Believes else KNOWLEDGE
                    slot = node(BOX, modal_of.setdefault(key, len(modal_of)), b)
            else:
                raise TypeError(f"not a formula: {sub!r}")
            stack.pop()
            slot_of[sub] = slot
        prog.roots.append(slot_of[f])
    prog.atoms, prog.modals = list(atom_of), list(modal_of)
    return prog


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


def index_bits(k: int) -> list:
    """For each bit b < k, the mask of the indices 0 .. 2**k - 1 that have
    bit b set (column b of a truth table), doubled up from bits 0 .. 2**(b+1) - 1."""
    out = []
    for b in range(k):
        mask, width = ((1 << (1 << b)) - 1) << (1 << b), 2 << b
        while width < 1 << k:
            mask |= mask << width
            width <<= 1
        out.append(mask)
    return out


def fold(mask: int, width: int) -> int:
    """The OR of the width-bit slices of mask (lane k is set when bit k of
    any slice is)."""
    out = 0
    while mask:
        out |= mask
        mask >>= width
    return out & ((1 << width) - 1)


def replicate(x: int, copies: int, period: int) -> int:
    """The OR of x << t·period for t < copies, made by doubling: x
    repeated copies times, period bits apart."""
    out, placed, size = 0, 0, 1
    while True:
        if copies & 1:
            out |= x << placed * period
            placed += size
        copies >>= 1
        if not copies:
            return out
        x |= x << size * period
        size <<= 1


@dataclass
class Frame:
    size: int
    atoms: dict = field(default_factory=dict)  # PropVar -> mask
    blocks: dict = field(default_factory=dict)  # (agent, kind) -> [(span, reach)]
    boxes: dict = field(default_factory=dict)  # (agent, kind) -> {argument mask: box mask}
    width: int = 1  # lanes per state of a lane frame; 1 in every other frame

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    def box(self, key, copies: int = 1) -> tuple:
        """(memo, blocks, gather) of the (agent, kind) box for run, on
        `copies` copies of the frame side by side, copy t on states
        t·size .. t·size + size - 1. memo is the key's table in boxes for
        one copy, and None for packed copies, whose arguments do not
        repeat. One copy of a width-1 frame keeps its blocks as they are,
        and gather is None. Otherwise a block is (the shifts that put state
        0 on its span's states, its reach repeated on every copy), and
        gather is (the shifts that fold a copy's edges = size / width
        slices onto its first slice in log steps, the mask of every copy's
        first slice)."""
        memo = self.boxes.setdefault(key, {}) if copies == 1 else None
        width, edges = self.width, self.size // self.width
        if width == 1 and copies == 1:
            return memo, self.blocks.get(key, ()), None
        shifts, step = [], 1
        while 2 * step <= edges:  # slice 0 gathers slices 0 .. 2·step - 1
            shifts.append(step * width)
            step <<= 1
        if step < edges:  # then slices edges - step .. edges - 1, which overlap those
            shifts.append((edges - step) * width)
        blocks = [
            (list(bits(span)), replicate(reach, copies, self.size))
            for span, reach in self.blocks.get(key, ())
        ]
        return memo, blocks, (shifts, replicate((1 << width) - 1, copies, self.size))

    def failures(self, mask: int):
        """(lane k, the least i whose state i·width + k fails) for each lane
        on which mask is not everywhere true, in order. Lane k holds the
        states k, width + k, 2·width + k, ..., so a width-1 frame is one
        lane, and i is the failing state itself."""
        width, bad = self.width, self.full ^ mask
        for k in bits(fold(bad, width)):
            s, i = bad >> k, 0
            while not s >> i * width & 1:
                i += 1
            yield k, i


def run(ops, atom_masks, boxes, full: int) -> list:
    """The mask of every op of (op, a, b) triples, in order: ATOM a is
    atom_masks[a], and BOX a reads boxes[a], a Frame.box triple. full
    holds every state of every copy the triples were made for.

    A box fails on the spans of the blocks whose reach meets the states
    where its argument fails, copy by copy and lane by lane: the gather
    shifts fold the lanes of hit = reach & bad on any edge of a copy into
    its first slice, and the span's shifts put them on each of its edges."""
    vals: list[int] = []
    push = vals.append
    for op, a, b in ops:
        if op == AND:
            push(vals[a] & vals[b])
        elif op == NOT:
            push(full ^ vals[a])
        elif op == BOX:
            memo, blocks, gather = boxes[a]
            arg = vals[b]
            box = None if memo is None else memo.get(arg)
            if box is None:  # a miss: only now are the box's blocks read
                bad, fail = full ^ arg, 0
                if bad and gather is None:  # one copy of a width-1 frame: span or nothing
                    for span, reach in blocks:
                        if reach & bad:
                            fail |= span
                elif bad:
                    shifts, lanes = gather
                    for onto, reach in blocks:
                        hit = reach & bad
                        if hit:
                            for shift in shifts:
                                hit |= hit >> shift
                            hit &= lanes
                            for shift in onto:
                                fail |= hit << shift
                box = full ^ fail
                if memo is not None:
                    memo[arg] = box
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
