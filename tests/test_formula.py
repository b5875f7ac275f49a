import copy
import pickle
import random
import weakref
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdox import (
    And,
    Atom,
    Believes,
    Formula,
    Knows,
    Not,
    ParseError,
    PropVar,
    Workspace,
    WorkspaceError,
    f_imp,
    fragment_check,
    modal_depth,
    parse_formula,
    render_formula,
)
from hyperdox.kernel import compile_formulas
from hyperdox.proofcheck import ProofStep, Tautology
from randgen import random_formula
from oracles import naive_fragment_check, naive_modal_depth, naive_parse_formula


@pytest.fixture
def ws(ws3):
    return ws3


def test_parse_implication_desugars(ws):
    f = parse_formula("B{a}(p_a_1 -> K{a} p_a_1)", ws)
    p = Atom(ws.var_by_name("p_a_1"))
    assert f == Believes(0, f_imp(p, Knows(0, p)))


def test_parse_false_uses_designated_atom(ws):
    f = parse_formula("~B{a} false", ws)
    p = Atom(PropVar(0, 0))
    assert f == Not(Believes(0, And(p, Not(p))))


def test_parse_true_is_not_false(ws):
    f = parse_formula("true", ws)
    p = Atom(PropVar(0, 0))
    assert f == Not(And(p, Not(p)))


def test_undeclared_atom_rejected(ws):
    with pytest.raises(ParseError, match="undeclared atom"):
        parse_formula("B{a}(p & ~p)", ws)


def test_undeclared_agent_rejected(ws):
    with pytest.raises(ParseError, match="undeclared agent"):
        parse_formula("B{z} p_a_1", ws)


def test_syntax_error_carries_position(ws):
    with pytest.raises(ParseError) as exc:
        parse_formula("p_a_1 & & p_b_1", ws)
    assert exc.value.pos == 8


def test_false_without_designated_atom(ws):
    bare = Workspace(("a",), ((),))
    with pytest.raises(ParseError, match="designated"):
        parse_formula("false", bare)


def test_precedence_and_binds_tighter_than_or(ws):
    f = parse_formula("p_a_1 & p_b_1 | p_c_1", ws)
    g = parse_formula("(p_a_1 & p_b_1) | p_c_1", ws)
    assert f == g


def test_implication_right_associative(ws):
    f = parse_formula("p_a_1 -> p_b_1 -> p_c_1", ws)
    g = parse_formula("p_a_1 -> (p_b_1 -> p_c_1)", ws)
    assert f == g


def test_iff_right_associative(ws):
    f = parse_formula("p_a_1 <-> p_b_1 <-> p_c_1", ws)
    g = parse_formula("p_a_1 <-> (p_b_1 <-> p_c_1)", ws)
    assert f == g


def test_desugaring_totality(ws):
    core = (Atom, Not, And, Believes, Knows)
    for text in ["p_a_1 | ~p_b_1", "true -> false", "K{b} p_b_1 <-> B{c} p_c_1"]:
        stack = [parse_formula(text, ws)]
        while stack:
            node = stack.pop()
            assert isinstance(node, core)
            if isinstance(node, Not):
                stack.append(node.sub)
            elif isinstance(node, And):
                stack.extend([node.left, node.right])
            elif isinstance(node, (Believes, Knows)):
                stack.append(node.sub)


def test_render_examples(ws):
    p = Atom(ws.var_by_name("p_a_1"))
    q = Atom(ws.var_by_name("p_b_1"))
    assert render_formula(Believes(0, p), ws) == "B{a} p_a_1"
    assert render_formula(Not(And(p, q)), ws) == "~(p_a_1 & p_b_1)"


def test_render_is_identity_on_sugar_free_text(ws):
    for text in [
        "B{a} p_a_1 & ~(p_b_1 & p_c_1)",
        "~~K{c} p_c_1",
        "B{a}(p_a_1 & K{b} p_b_1)",
        "p_a_1 & p_b_1 & p_c_1",
    ]:
        assert render_formula(parse_formula(text, ws), ws) == text


def test_render_parse_roundtrip_seeded(ws):
    rng = random.Random(7)
    vars_ = ws.all_vars()
    agents = list(range(ws.n_agents))
    for _ in range(1000):
        f = random_formula(rng, vars_, agents, max_depth=3, max_size=9)
        assert parse_formula(render_formula(f, ws), ws) == f


def _formula_strategy(ws):
    atoms = st.sampled_from([Atom(v) for v in ws.all_vars()])
    agents = st.sampled_from(range(ws.n_agents))
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(agents, sub).map(lambda t: Believes(*t)),
            st.tuples(agents, sub).map(lambda t: Knows(*t)),
        ),
        max_leaves=12,
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_render_parse_roundtrip_hypothesis(data):
    ws = Workspace(("a", "b"), (("p_a_1", "p_a_2"), ("p_b_1",)))
    f = data.draw(_formula_strategy(ws))
    assert parse_formula(render_formula(f, ws), ws) == f


def test_fragment_check_examples(ws):
    p_a = Atom(ws.var_by_name("p_a_1"))
    p_b = Atom(ws.var_by_name("p_b_1"))
    info = fragment_check(Believes(0, p_a))
    assert info.in_doxastic_fragment and info.agent_formula_for == {0}
    info = fragment_check(Knows(0, p_a))
    assert not info.in_doxastic_fragment and info.agent_formula_for == {0}
    info = fragment_check(Believes(0, p_b))
    assert info.in_doxastic_fragment and info.agent_formula_for == frozenset()


def test_modal_depth_examples(ws):
    p = Atom(ws.var_by_name("p_a_1"))
    q = Atom(ws.var_by_name("p_b_1"))
    assert modal_depth(p) == 0
    assert modal_depth(Believes(0, Believes(0, p))) == 2
    assert modal_depth(And(Believes(0, p), Knows(1, q))) == 1


def test_fragment_and_depth_match_tree_walks():
    """The program-read analyses against the tree walks, on seeded draws
    over one agent (always an a-formula) and over two agents."""
    ws = Workspace(("a", "b"), (("p_a_1", "p_a_2"), ("p_b_1",)))
    rng = random.Random(6)
    seen = set()
    for i in range(1200):
        agents = [0] if i % 2 else [0, 1]
        vars = ws.vars_of(0) if i % 2 else ws.all_vars()
        f = random_formula(rng, vars, agents, max_depth=rng.randint(0, 4), max_size=14)
        info = fragment_check(f)
        assert info == naive_fragment_check(f), f
        assert modal_depth(f) == naive_modal_depth(f), f
        seen.add((info.in_doxastic_fragment, tuple(info.agent_formula_for)))
    assert seen == {(k_free, agents) for k_free in (True, False) for agents in ((), (0,), (1,))}


_P, _Q = Atom(PropVar(0, 0)), Atom(PropVar(0, 1))


@pytest.mark.parametrize(
    "x, y",
    [
        (Not(_P), Not(Believes(0, _P))),
        (Not(Believes(0, _P)), Not(Believes(1, _P))),
        (Not(_P), Not(_Q)),
        (And(_P, Knows(0, _P)), And(_P, Knows(0, _Q))),
    ],
    ids=["class", "agent", "var", "var_in_right_conjunct"],
)
def test_distinct_values_are_distinct_objects(x, y):
    """Formulas that differ below the root are distinct, unequal objects
    that compile to separate slots; rebuilding one from its fields gives
    the same object back."""
    assert x is not y
    assert x != y and y != x
    assert len(set(compile_formulas([x, y]).roots)) == 2
    for f in (x, y):
        assert type(f)(*(getattr(f, name) for name in f._fields)) is f


def test_copy_and_pickle_return_the_interned_object(ws):
    f = parse_formula("B{a}(p_a_1 -> K{b} p_b_1) & ~p_c_1", ws)
    step = ProofStep(f, Tautology())
    for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied is f
    for copied in (copy.deepcopy(step), pickle.loads(pickle.dumps(step))):
        assert copied == step and copied.formula is f
    assert repr(f) == "And(B0(Not(And(Not(Not(Atom(0,0))),Not(K1(Atom(1,0)))))),Not(Atom(2,0)))"
    # a deep chain copies, pickles and prints without recursion
    chain = parse_formula(" & ".join(["p_a_1"] * 3000), ws)
    assert copy.copy(chain) is chain and copy.deepcopy(chain) is chain
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(chain, protocol)) is chain
    # a pickled formula that is no longer live comes back by value
    text = "B{c}(p_a_1 & ~K{b}(p_b_1 & p_b_1)) & p_a_1"
    f = parse_formula(text, ws)
    data, ref = pickle.dumps(f), weakref.ref(f)
    del f
    assert ref() is None
    loaded = pickle.loads(data)
    assert loaded is parse_formula(text, ws)
    p = repr(Atom(ws.var_by_name("p_a_1")))
    assert repr(chain) == "And(" * 2999 + p + f",{p})" * 2999


def test_unreferenced_formula_is_freed(ws):
    f = parse_formula("B{c}(p_a_1 & K{b} ~p_b_1)", ws)
    ref = weakref.ref(f)
    del f  # freed at once by its reference count: the table holds it weakly
    assert ref() is None


def test_variable_disjointness():
    assert PropVar(0, 1) != PropVar(1, 1)
    with pytest.raises(WorkspaceError, match="twice"):
        Workspace(("a", "b"), (("p",), ("p",)))


@pytest.mark.parametrize(
    "agents, vars_, match",
    [
        (("a",), (("true",),), "constant"),
        (("a",), (("false",),), "constant"),
        (("a",), (("p-q",),), "identifier"),
        (("a",), (("1p",),), "identifier"),
        (("a",), (("",),), "identifier"),
        (("a b",), ((),), "identifier"),
        (("a-1",), (("p",),), "identifier"),
    ],
)
def test_workspace_rejects_names_the_grammar_cannot_read_back(agents, vars_, match):
    with pytest.raises(WorkspaceError, match=match):
        Workspace(agents, vars_)


def test_every_declared_atom_renders_to_text_that_parses_back():
    ws = Workspace(("_A", "true"), (("_p0", "True"), ("x_1",)))
    for var in ws.all_vars():
        assert parse_formula(render_formula(Atom(var), ws), ws) == Atom(var)


_WORKSPACES = [
    Workspace(("a", "b", "c"), (("p_a_1",), ("p_b_1",), ("p_c_1",))),
    Workspace(("a", "b"), ((), ("p_b_1",))),  # no designated atom for true and false
    Workspace(("a", "true", "K"), (("B", "p_a_1"), ("p_t",), ())),  # an atom B, agents true and K
]
_NAMES = ["p_a_1", "p_b_1", "p_c_1", "p_t", "B", "true", "false"]
_GAPS = ["", " ", "  ", "\t", "\n", " \t"]
_SOUP = [
    "~", "&", "|", "->", "<->", "-", "<", ">", "<-", "(", ")", "{", "}", "B", "K", "B{", "K{a",
    "B{a}", "K{b}", "B{1}", "B{z}", "B{ true }", "K{}", "true", "false", "p_a_1", "p_b_1", "p_z_9",
    "$", "1", "é", "_", "a", " ", "\t", "\n",
]  # fmt: skip


def _sugared_text(rng, budget):
    """Well-formed text with every connective, brackets and any spacing."""
    if budget <= 1:
        return rng.choice(_NAMES)
    op = rng.choice(["~", "B", "K", "()", "&", "|", "->", "<->"])
    gap = [rng.choice(_GAPS) for _ in range(4)]
    if op == "~":
        return "~" + gap[0] + _sugared_text(rng, budget - 1)
    if op in ("B", "K"):
        agent = rng.choice(["a", "b", "c", "true", "K"])
        return f"{op}{gap[0]}{{{gap[1]}{agent}{gap[2]}}}{gap[3]}" + _sugared_text(rng, budget - 1)
    if op == "()":
        return "(" + gap[0] + _sugared_text(rng, budget - 1) + gap[1] + ")"
    split = rng.randint(1, budget - 1)
    left, right = _sugared_text(rng, split), _sugared_text(rng, budget - split)
    return left + gap[0] + op + gap[1] + right


def _perturbed_text(rng, text):
    """text with one to three characters deleted, inserted or replaced, cut
    short, or given trailing whitespace."""
    for _ in range(rng.randint(1, 3)):
        i, kind = rng.randint(0, len(text)), rng.randrange(5)
        if kind == 0:
            text = text[:i] + text[i + 1 :]
        elif kind == 1:
            text = text[:i] + rng.choice(_SOUP) + text[i:]
        elif kind == 2:
            text = text[:i] + rng.choice(_SOUP) + text[i + 1 :]
        elif kind == 3:
            text = text[:i]
        else:
            text += rng.choice(_GAPS[1:])
    return text


def _parse_outcome(parse, text, ws):
    try:
        return parse(text, ws)
    except ParseError as exc:
        return exc.message, exc.pos


def test_parser_matches_recursive_descent_oracle():
    """Each seeded string, well-formed, perturbed or token soup, gives the
    oracle's formula object, or its error message and position."""
    rng = random.Random(26)
    kinds = set()
    for n in range(21000):
        kind = n % 3
        if kind == 0:
            text = _sugared_text(rng, rng.randint(1, 12)) + rng.choice(["", "", " ", "\t"])
        elif kind == 1:
            text = _perturbed_text(rng, _sugared_text(rng, rng.randint(1, 10)))
        else:
            soup = rng.choices(_SOUP, k=rng.randint(0, 12))
            text = rng.choice(_GAPS).join(soup) + rng.choice(_GAPS)
        ws = _WORKSPACES[n % len(_WORKSPACES)]
        try:
            want = _parse_outcome(naive_parse_formula, text, ws)
        except RecursionError:  # too deep for the oracle
            continue
        got = _parse_outcome(parse_formula, text, ws)
        assert got is want if isinstance(want, Formula) else got == want, text
        kinds.add("formula" if isinstance(want, Formula) else " ".join(want[0].split()[:2]))
    assert kinds == {
        "formula", "unexpected character", "unexpected token", "expected a", "expected ')'",
        "expected '}'", "expected agent", "undeclared atom", "undeclared agent", "workspace declares",
    }  # fmt: skip


_DEEP = {
    "~": Not,
    "B{a}": partial(Believes, 0),
    "K{a}": partial(Knows, 0),
    "left &": lambda f: And(f, Atom(PropVar(0, 0))),
    "right &": lambda f: And(Atom(PropVar(0, 0)), f),
    "->": lambda f: f_imp(Atom(PropVar(0, 0)), f),
}


@pytest.mark.parametrize(
    "wrap, depth",
    [(wrap, 10**4) for wrap in _DEEP] + [("~", 10**5), ("left &", 10**5)],
)
def test_deep_formula_renders_and_parses_back(wrap, depth):
    """The parser has no depth limit: a formula nested 10^4 or 10^5 deep
    in one constructor renders to text that parses back to it."""
    ws = Workspace(("a",), (("p_a_1",),))
    f = Atom(PropVar(0, 0))
    for _ in range(depth):
        f = _DEEP[wrap](f)
    assert parse_formula(render_formula(f, ws), ws) is f
