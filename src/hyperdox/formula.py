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

Formulas are interned (hash-consing; Filliatre and Conchon, "Type-safe
modular hash-consing", ML 2006): a constructor returns the one live
object for its class and fields, so equal formulas are one object and
== and hash are identity. The table holds formulas weakly; copy and
deepcopy return the formula, and pickle writes a flat postfix record that
goes back through the constructors, so a live formula unpickles to itself.

Structural facts about a formula (belief-fragment membership, the agent
it is an a-formula for, modal depth) are read off its compiled program
in kernel.py.
"""

from __future__ import annotations

import re
import weakref

from .errors import ParseError, WorkspaceError
from .workspace import PropVar, Workspace

_LIVE: weakref.WeakValueDictionary[tuple, Formula] = weakref.WeakValueDictionary()


class Formula:
    """Base class of the formula nodes: immutable, and interned by __new__
    on (class, *fields). Children are interned before their parent, so
    the table's key compares them by identity."""

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        self = _LIVE.get(key)
        if self is None:
            self = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                setattr(self, name, value)
            _LIVE[key] = self
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


_TOKEN_RE = re.compile(r"<->|->|[~&|(){}]|[A-Za-z_][A-Za-z0-9_]*")
_WS_RE = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        pos = _WS_RE.match(text, pos).end()
        if pos >= n:
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    tokens.append(("", n))
    return tokens


class _Parser:
    def __init__(self, text: str, ws: Workspace):
        self.ws = ws
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def pos(self) -> int:
        return self.tokens[self.i][1]

    def take(self) -> str:
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def expect(self, tok: str, what: str):
        if self.peek() != tok:
            raise ParseError(f"expected {what}", self.pos())
        self.take()

    def form(self) -> Formula:
        parts = [self.imp()]
        while self.peek() == "<->":
            self.take()
            parts.append(self.imp())
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = f_iff(part, out)
        return out

    def imp(self) -> Formula:
        left = self.or_()
        if self.peek() == "->":
            self.take()
            return f_imp(left, self.imp())
        return left

    def or_(self) -> Formula:
        out = self.and_()
        while self.peek() == "|":
            self.take()
            out = f_or(out, self.and_())
        return out

    def and_(self) -> Formula:
        out = self.unary()
        while self.peek() == "&":
            self.take()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        tok = self.peek()
        pos = self.pos()
        if tok == "~":
            self.take()
            return Not(self.unary())
        if tok in ("B", "K") and self.tokens[self.i + 1][0] == "{":
            self.take()
            self.take()
            agent_name = self.peek()
            agent_pos = self.pos()
            if not agent_name or not (agent_name[0].isalpha() or agent_name[0] == "_"):
                raise ParseError("expected agent name", agent_pos)
            self.take()
            try:
                agent = self.ws.agent_index(agent_name)
            except WorkspaceError:
                raise ParseError(f"undeclared agent {agent_name!r}", agent_pos) from None
            self.expect("}", "'}'")
            return (Believes if tok == "B" else Knows)(agent, self.unary())
        if tok == "(":
            self.take()
            out = self.form()
            self.expect(")", "')'")
            return out
        if tok == "true":
            self.take()
            try:
                return f_top(self.ws)
            except WorkspaceError as exc:
                raise ParseError(str(exc), pos) from None
        if tok == "false":
            self.take()
            try:
                return f_bottom(self.ws)
            except WorkspaceError as exc:
                raise ParseError(str(exc), pos) from None
        if tok and (tok[0].isalpha() or tok[0] == "_"):
            self.take()
            try:
                return Atom(self.ws.var_by_name(tok))
            except WorkspaceError:
                raise ParseError(f"undeclared atom {tok!r}", pos) from None
        raise ParseError("expected a formula", pos)


def parse_formula(text: str, ws: Workspace) -> Formula:
    """Parse and fully desugar a formula over the given workspace."""
    p = _Parser(text, ws)
    try:
        out = p.form()
    except RecursionError:
        raise ParseError("formula nested too deeply", p.pos()) from None
    if p.peek() != "":
        raise ParseError(f"unexpected token {p.peek()!r}", p.pos())
    return out


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
