"""Formula AST, parser and printer.

The core language has five constructors: atoms, negation, conjunction and
the two modalities (belief and knowledge, both agent-indexed). Disjunction,
implication, equivalence, `true` and `false` are parser sugar and are
desugared immediately:

    x | y   ==  ~(~x & ~y)
    x -> y  ==  ~x | y
    x <-> y ==  (x -> y) & (y -> x)
    false   ==  p & ~p        for the workspace's designated atom p
    true    ==  ~false

Grammar (tightest first: unary, &, |, ->, <->; -> and <-> associate to
the right):

    form  ::= iff
    iff   ::= imp ("<->" imp)*
    imp   ::= or ("->" imp)?
    or    ::= and ("|" and)*
    and   ::= unary ("&" unary)*
    unary ::= "~" unary | "B{" agent "}" unary | "K{" agent "}" unary
            | atom | "true" | "false" | "(" form ")"

parse_formula reads it with one regex scan and one operator-precedence
loop, without recursion, so every render_formula output parses back.

Formulas are interned (hash-consing; Filliatre and Conchon, "Type-safe
modular hash-consing", ML 2006): a constructor returns the one live
object for its class and fields, so equal formulas are one object and
== and hash are identity. The table is a plain dict from (class, *fields)
to a weak reference to the formula, so lookups run in C; the reference
carries its key, and its callback drops the entry when the formula dies,
unless a newer formula holds the key by then. copy and deepcopy return
the formula, and pickle writes a flat postfix record that goes back
through the constructors, so a live formula unpickles to itself.

Structural facts about a formula (belief-fragment membership, the agent
it is an a-formula for, modal depth) are read off its compiled program
in kernel.py.
"""

from __future__ import annotations

import re
import weakref
from functools import partial

from .errors import ParseError, WorkspaceError
from .workspace import PropVar, Workspace


class _Ref(weakref.ref):
    """A table entry: a weak reference to a formula that knows its key."""

    __slots__ = ("key",)


def _drop(ref: _Ref) -> None:
    """The callback of a dead formula's entry: drop it unless replaced."""
    if _LIVE.get(ref.key) is ref:
        del _LIVE[ref.key]


_LIVE: dict[tuple, _Ref] = {}  # (class, *fields) -> the live formula's entry


class Formula:
    """Base class of the formula nodes: immutable, and interned by __new__
    on (class, *fields). Children are interned before their parent, so
    the table's key compares them by identity."""

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _LIVE.get(key)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = object.__new__(cls)
        for name, value in zip(cls._fields, fields):
            setattr(self, name, value)
        ref = _LIVE[key] = _Ref(self, _drop)
        ref.key = key
        return self

    def __reduce__(self):
        """(_rebuild, (record,)): the distinct nodes in postfix order, each
        as (class, its other fields, the record positions of its formula
        fields, which come last), so a deep formula pickles without
        recursion. Each record is whole: pickle's memo shares no subterm
        between two formulas in one dump, so formulas that share
        subterms (a proof's steps, say) write them once per formula."""
        at: dict[int, int] = {}  # id(node) -> its position in the record
        record, stack = [], [self]
        while stack:
            node = stack[-1]
            values = [getattr(node, name) for name in node._fields]
            pending = [v for v in values if isinstance(v, Formula) and id(v) not in at]
            if pending:
                stack += pending
                continue
            stack.pop()
            if id(node) not in at:
                at[id(node)] = len(record)
                plain = tuple(v for v in values if not isinstance(v, Formula))
                subs = tuple(at[id(v)] for v in values if isinstance(v, Formula))
                record.append((type(node), plain, subs))
        return _rebuild, (record,)

    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__

    def __repr__(self):
        out, stack = [], [self]
        while stack:  # an explicit stack, so deep formulas print without recursion
            node = stack.pop()
            if type(node) is str:
                out.append(node)
            elif type(node) is Atom:
                out.append(f"Atom({node.var.owner},{node.var.index})")
            elif type(node) is And:
                stack += [")", node.right, ",", node.left, "And("]
            else:  # Not, or a box's letter and agent
                head = "Not" if type(node) is Not else f"{node._letter}{node.agent}"
                stack += [")", node.sub, head + "("]
        return "".join(out)


def _rebuild(record) -> Formula:
    """The formula of a __reduce__ record, built bottom-up through the
    constructors, so a live formula comes back as itself."""
    built: list[Formula] = []
    for cls, plain, subs in record:
        built.append(cls(*plain, *(built[i] for i in subs)))
    return built[-1]


class Atom(Formula):
    __slots__ = _fields = ("var",)


class Not(Formula):
    __slots__ = _fields = ("sub",)


class And(Formula):
    __slots__ = _fields = ("left", "right")


class _Modal(Formula):
    """Agent-indexed box; subclasses set the letter."""

    __slots__ = _fields = ("agent", "sub")
    _letter = ""


class Believes(_Modal):
    __slots__ = ()
    _letter = "B"


class Knows(_Modal):
    __slots__ = ()
    _letter = "K"


def f_or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def f_imp(left: Formula, right: Formula) -> Formula:
    return f_or(Not(left), right)


def f_iff(left: Formula, right: Formula) -> Formula:
    return And(f_imp(left, right), f_imp(right, left))


def f_bottom(ws: Workspace) -> Formula:
    p = Atom(ws.bottom_var())
    return And(p, Not(p))


def f_top(ws: Workspace) -> Formula:
    return Not(f_bottom(ws))


# One scan reads every token. Group 1 is a token, group 2 a character
# that starts none, and the whitespace before either is skipped.
_TOKEN_RE = re.compile(r"\s*(?:(<->|->|[~&|(){}]|[A-Za-z_][A-Za-z0-9_]*)|(\S))")
_SYMBOLS = frozenset(("<->", "->", "~", "&", "|", "(", ")", "{", "}"))
# binary operator -> (precedence, the least precedence it reduces on its
# left, constructor): & and | associate to the left, -> and <-> to the right
_BINARY = {"&": (3, 3, And), "|": (2, 2, f_or), "->": (1, 2, f_imp), "<->": (0, 1, f_iff)}
_CONSTANTS = {"true": f_top, "false": f_bottom}


def parse_formula(text: str, ws: Workspace) -> Formula:
    """Parse and fully desugar a formula over the given workspace.

    One loop over the tokens with an explicit stack of bracket levels
    (operator precedence; Dijkstra's shunting yard, 1961), so a formula of
    any depth parses. A level holds the prefixes (~, B{a}, K{a}) waiting
    for their operand, and the operands and binary operators read so far."""
    tokens = _TOKEN_RE.findall(text)
    n = len(tokens)
    tokens.append(("", ""))  # the end of the text
    levels = []  # the enclosing levels: (prefixes, operands, operators)
    prefixes, operands, operators = [], [], []
    atoms = {}  # token -> its formula, for atoms and constants
    k = 0
    while True:  # token k starts an operand
        tok = tokens[k][0]
        if tok == "~":
            prefixes.append(Not)
            k += 1
            continue
        if tok == "(":
            levels.append((prefixes, operands, operators))
            prefixes, operands, operators = [], [], []
            k += 1
            continue
        if (tok == "B" or tok == "K") and tokens[k + 1][0] == "{":
            name = tokens[k + 2][0]
            if not name or name in _SYMBOLS:
                raise _error(text, tokens, k + 2, "expected agent name")
            try:
                agent = ws.agent_index(name)
            except WorkspaceError as exc:
                raise _error(text, tokens, k + 2, str(exc)) from None
            if tokens[k + 3][0] != "}":
                raise _error(text, tokens, k + 3, "expected '}'")
            prefixes.append(partial(Believes if tok == "B" else Knows, agent))
            k += 4
            continue
        if not tok or tok in _SYMBOLS:
            raise _error(text, tokens, k, "expected a formula")
        f = atoms.get(tok)
        if f is None:
            try:
                f = _CONSTANTS[tok](ws) if tok in _CONSTANTS else Atom(ws.var_by_name(tok))
            except WorkspaceError as exc:
                raise _error(text, tokens, k, str(exc)) from None
            atoms[tok] = f
        k += 1
        while True:  # f is an operand: wrap it in its prefixes, then read what follows
            while prefixes:
                f = prefixes.pop()(f)
            tok = tokens[k][0]
            k += 1
            binary = _BINARY.get(tok)
            if binary is not None:
                while operators and operators[-1][0] >= binary[1]:
                    f = operators.pop()[2](operands.pop(), f)
                operands.append(f)
                operators.append(binary)
                break
            if tok == ")" and levels or k > n and not levels:
                while operators:
                    f = operators.pop()[2](operands.pop(), f)
                if not levels:
                    return f
                prefixes, operands, operators = levels.pop()
                continue
            message = "expected ')'" if levels else f"unexpected token {tok!r}"
            raise _error(text, tokens, k - 1, message)


def _error(text: str, tokens: list, k: int, message: str) -> ParseError:
    """The error at token k, unless a character of the text starts no
    token: then the first such character is the error, wherever it lies."""
    starts = [m.end() - len(m[1] or m[2]) for m in _TOKEN_RE.finditer(text)]
    starts.append(len(text))
    for (_, bad), start in zip(tokens, starts):
        if bad:
            return ParseError(f"unexpected character {bad!r}", start)
    return ParseError(message, starts[k])


def render_formula(f: Formula, ws: Workspace) -> str:
    """Print a formula using core connectives only; re-parses to an equal AST.

    Walked with an explicit stack of formulas and literal text, so deep
    formulas print without recursion."""
    out, stack = [], [f]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Atom):
            out.append(ws.var_name(node.var))
        elif isinstance(node, And):  # & is left-associative: only a right conjunct is bracketed
            stack += [*_operand(node.right, ""), " & ", node.left]
        elif isinstance(node, Not):
            out.append("~")
            stack += _operand(node.sub, "")
        elif isinstance(node, _Modal):
            out.append(f"{node._letter}{{{ws.agents[node.agent]}}}")
            stack += _operand(node.sub, " ")
        else:
            raise TypeError(f"not a formula: {node!r}")
    return "".join(out)


def _operand(f: Formula, gap: str) -> tuple:
    """Stack items, in push order, that print f after gap, or bracket a conjunction."""
    return (")", f, "(") if isinstance(f, And) else (f, gap)
