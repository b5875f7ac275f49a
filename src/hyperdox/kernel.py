"""The one satisfaction kernel, shared by hypergraph and Kripke models.

Formulas compile to a program: ops in topological order, where equal
subformulas share a slot and double negations vanish. A program runs on
a frame: the state count, a bitmask per atom (bit i = state i) and, per
(agent, kind), a list of (span, reach) blocks. A box fails exactly on the
spans of the blocks whose reach meets the states where its argument
fails. Hypergraph frames have one block per vertex (hypergraph.frame_h),
Kripke frames one per world for B and one per class for K
(KripkeModel.frame). Since modal truth is invariant under disjoint
union, one frame may hold several models side by side; `parts` records
each member's (offset, size).

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


def compile_formulas(formulas) -> Program:
    """One program for all the formulas, built with an explicit stack.
    The by-value lookup table lives only for the call."""
    prog = Program()
    slot_of: dict[Formula, int] = {}
    atom_pos: dict = {}  # PropVar -> index into atoms
    modal_pos: dict = {}  # (agent, kind) -> index into modals
    for root in formulas:
        stack = [root]
        while stack:
            node = stack[-1]
            if node in slot_of:
                stack.pop()
                continue
            cls = type(node)
            if cls is Atom:
                op, a, b = ATOM, atom_pos.setdefault(node.var, len(atom_pos)), 0
            elif cls is And:
                a, b = slot_of.get(node.left), slot_of.get(node.right)
                if a is None or b is None:
                    if b is None:
                        stack.append(node.right)
                    if a is None:
                        stack.append(node.left)
                    continue
                op = AND
            elif cls is Not or cls is Believes or cls is Knows:
                b = slot_of.get(node.sub)
                if b is None:
                    stack.append(node.sub)
                    continue
                if cls is not Not:
                    kind = BELIEF if cls is Believes else KNOWLEDGE
                    op, a = BOX, modal_pos.setdefault((node.agent, kind), len(modal_pos))
                elif prog.op[b] == NOT:  # ~~x is x
                    stack.pop()
                    slot_of[node] = prog.a[b]
                    continue
                else:
                    op, a, b = NOT, b, 0
            else:
                raise TypeError(f"not a formula: {node!r}")
            stack.pop()
            slot_of[node] = len(prog.op)
            prog.op.append(op)
            prog.a.append(a)
            prog.b.append(b)
        prog.roots.append(slot_of[root])
    prog.atoms, prog.modals = list(atom_pos), list(modal_pos)
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


@dataclass
class Frame:
    size: int
    atoms: dict = field(default_factory=dict)  # PropVar -> mask
    blocks: dict = field(default_factory=dict)  # (agent, kind) -> [(span, reach)]
    parts: list = field(default_factory=list)  # (offset, size) per member model

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    def failures(self, mask: int):
        """(part index, first failing state in the part) for each member
        model on which mask is not everywhere true, in order."""
        bad = self.full ^ mask
        for k, (offset, size) in enumerate(self.parts if bad else ()):
            s = bad >> offset & ((1 << size) - 1)
            if s:
                yield k, (s & -s).bit_length() - 1


def evaluate(prog: Program, frame: Frame) -> list:
    """The satisfaction mask of every compiled formula, in compile order."""
    full = frame.full
    atom_masks = [frame.atoms.get(p, 0) for p in prog.atoms]
    box_blocks = [frame.blocks.get(key, ()) for key in prog.modals]
    vals: list[int] = []
    push = vals.append
    for op, a, b in zip(prog.op, prog.a, prog.b):
        if op == AND:
            push(vals[a] & vals[b])
        elif op == NOT:
            push(full ^ vals[a])
        elif op == BOX:
            bad = full ^ vals[b]
            fail = 0
            if bad:
                for span, reach in box_blocks[a]:
                    if reach & bad:
                        fail |= span
            push(full ^ fail)
        else:
            push(atom_masks[a])
    return [vals[r] for r in prog.roots]


def sat_mask(frame: Frame, f: Formula) -> int:
    """Mask of the states of the frame that satisfy f."""
    return evaluate(compile_formulas([f]), frame)[0]
