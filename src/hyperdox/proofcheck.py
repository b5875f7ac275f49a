"""Hilbert-style proof checking for the three systems.

Systems:
  EDL      full epistemic-doxastic system; all twelve schemes, modus
           ponens and knowledge necessitation (from phi infer K_a phi).
  LocKD45  belief-only consistent belief; K_B, D_B, 4_B, 5_B, Loc, modus
           ponens and belief necessitation. All formulas must stay in the
           belief fragment.
  LocK45   LocKD45 without D_B (merely introspective belief).

The schemes are formulas of the language itself, parsed once. Axiom
steps are validated by structural scheme matching over the desugared
core language; tautology steps by abstracting maximal modal subformulas
into fresh letters and evaluating the whole truth table in one run of
the satisfaction kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import HyperdoxError
from .formula import And, Atom, Believes, Formula, Knows, Not, f_imp, parse_formula
from .kernel import KNOWLEDGE, Frame, compile_formulas, evaluate, fragment_check, index_bits
from .workspace import PropVar, Workspace


class System(str, Enum):
    EDL = "EDL"
    LOC_KD45 = "LocKD45"
    LOC_K45 = "LocK45"


class SchemeId(str, Enum):
    K_B = "K_B"
    K_K = "K_K"
    D_B = "D_B"
    FOUR_B = "4_B"
    FIVE_B = "5_B"
    T_K = "T_K"
    FOUR_K = "4_K"
    FIVE_K = "5_K"
    SPI = "SPI"
    SNI = "SNI"
    K_IB = "K_IB"
    LOC = "Loc"


ADMITTED = {
    System.EDL: frozenset(SchemeId),
    System.LOC_KD45: frozenset(
        {SchemeId.K_B, SchemeId.D_B, SchemeId.FOUR_B, SchemeId.FIVE_B, SchemeId.LOC}
    ),
    System.LOC_K45: frozenset(
        {SchemeId.K_B, SchemeId.FOUR_B, SchemeId.FIVE_B, SchemeId.LOC}
    ),
}


# Schemes in the formula language, over a meta-workspace whose one agent
# `a` stands for the scheme's agent and whose atoms stand for the
# metavariables: phi and psi for arbitrary formulas, p for an atom (whose
# owner must equal the scheme's agent).
_META = Workspace(("a",), (("phi", "psi", "p"),))

SCHEMES = {
    scheme: parse_formula(text, _META)
    for scheme, text in {
        SchemeId.K_B: "B{a}(phi -> psi) -> B{a}phi -> B{a}psi",
        SchemeId.K_K: "K{a}(phi -> psi) -> K{a}phi -> K{a}psi",
        SchemeId.D_B: "~B{a}(phi & ~phi)",
        SchemeId.FOUR_B: "B{a}phi -> B{a}B{a}phi",
        SchemeId.FIVE_B: "~B{a}phi -> B{a}~B{a}phi",
        SchemeId.T_K: "K{a}phi -> phi",
        SchemeId.FOUR_K: "K{a}phi -> K{a}K{a}phi",
        SchemeId.FIVE_K: "~K{a}phi -> K{a}~K{a}phi",
        SchemeId.SPI: "B{a}phi -> K{a}B{a}phi",
        SchemeId.SNI: "~B{a}phi -> K{a}~B{a}phi",
        SchemeId.K_IB: "K{a}phi -> B{a}phi",
        SchemeId.LOC: "(p -> B{a}p) & (~p -> B{a}~p)",
    }.items()
}


def instantiate_scheme(
    scheme: SchemeId,
    agent: int,
    phi: Optional[Formula] = None,
    psi: Optional[Formula] = None,
    p: Optional[PropVar] = None,
) -> Formula:
    """Build the scheme instance for the given agent and metavariables."""
    binding = {"a": agent, "phi": phi, "psi": psi, "p": p}
    return _substitute(SCHEMES[scheme], binding)


# Both walks recurse over the pattern only, whose depth is fixed and small.


def _substitute(pattern: Formula, binding: dict) -> Formula:
    cls = type(pattern)
    if cls is Atom:
        name = _META.var_name(pattern.var)
        value = binding[name]
        if value is None:
            raise ValueError(f"metavariable {name} not supplied")
        return Atom(value) if name == "p" else value
    if cls is Not:
        return Not(_substitute(pattern.sub, binding))
    if cls is And:
        return And(_substitute(pattern.left, binding), _substitute(pattern.right, binding))
    return cls(binding["a"], _substitute(pattern.sub, binding))


def _match(pattern: Formula, f: Formula, binding: dict) -> bool:
    cls = type(pattern)
    if cls is Atom:
        name = _META.var_name(pattern.var)
        if name == "p":
            if type(f) is not Atom:
                return False
            f = f.var
        return binding.setdefault(name, f) == f
    if type(f) is not cls:
        return False
    if cls is Not:
        return _match(pattern.sub, f.sub, binding)
    if cls is And:
        return _match(pattern.left, f.left, binding) and _match(pattern.right, f.right, binding)
    return binding.setdefault("a", f.agent) == f.agent and _match(pattern.sub, f.sub, binding)


def match_scheme(f: Formula, scheme: SchemeId) -> Optional[dict]:
    """Substitution making f an instance of the scheme, or None.

    Keys: 'a' (agent index), 'phi'/'psi' (formulas) and 'p' (an atom,
    for Loc, whose owner must be the bound agent).
    """
    binding: dict = {}
    if not _match(SCHEMES[scheme], f, binding):
        return None
    if scheme is SchemeId.LOC:
        p: PropVar = binding["p"]
        if p.owner != binding["a"]:
            return None
    return binding


class TautologyTooLarge(HyperdoxError):
    """Abstraction produced more distinct letters than the checker accepts."""


_MAX_LETTERS = 20


def is_tautology_instance(f: Formula) -> bool:
    """Truth-table validity after abstracting maximal modal subformulas.

    Each atom and maximal modal subformula is a letter (equal subformulas
    are one interned object, so they share one): compile_formulas' letter
    hook compiles letter i as the atom PropVar(0, i). The whole table is
    one kernel run: state s of a frame with 2^k states is the row that
    gives letter i the value of bit i of s."""
    letters: dict = {}
    prog = compile_formulas([f], lambda sub: PropVar(0, letters.setdefault(sub, len(letters))))
    k = len(letters)
    if k > _MAX_LETTERS:
        raise TautologyTooLarge(
            f"tautology check abstracts {k} letters, more than the supported {_MAX_LETTERS}"
        )
    frame = Frame(1 << k)
    frame.atoms = {PropVar(0, i): column for i, column in enumerate(index_bits(k))}
    return evaluate(prog, frame)[0] == frame.full


@dataclass(frozen=True)
class Tautology:
    pass


@dataclass(frozen=True)
class Axiom:
    scheme: SchemeId


@dataclass(frozen=True)
class MP:
    antecedent: int
    implication: int


@dataclass(frozen=True)
class NecK:
    agent: int
    premise: int


@dataclass(frozen=True)
class NecB:
    agent: int
    premise: int


@dataclass(frozen=True)
class ProofStep:
    formula: Formula
    by: Tautology | Axiom | MP | NecK | NecB


@dataclass
class ProofResult:
    ok: bool
    step: Optional[int] = None
    reason: Optional[str] = None

    def to_json(self) -> dict:
        out: dict = {"ok": self.ok}
        if not self.ok:
            out["step"] = self.step
            out["reason"] = self.reason
        return out


def check_proof(system: System, steps) -> ProofResult:
    """Check a proof; on failure reports the first bad step (1-based)."""
    steps = list(steps)
    # one compile of all the steps settles the fragment unless a K occurs;
    # then the steps are checked one by one, so the first breach is reported
    if system in (System.LOC_KD45, System.LOC_K45) and any(
        kind == KNOWLEDGE for _, kind in compile_formulas([s.formula for s in steps]).modals
    ):
        for idx, step in enumerate(steps, start=1):
            if not fragment_check(step.formula).in_doxastic_fragment:
                return ProofResult(
                    False, idx, "formula leaves the belief fragment required by " + system.value
                )
    for idx, step in enumerate(steps, start=1):
        by = step.by
        if isinstance(by, Tautology):
            try:
                if not is_tautology_instance(step.formula):
                    return ProofResult(False, idx, "not an instance of a classical tautology")
            except TautologyTooLarge as exc:
                return ProofResult(False, idx, str(exc))
        elif isinstance(by, Axiom):
            if by.scheme not in ADMITTED[system]:
                return ProofResult(
                    False, idx, f"scheme {by.scheme.value} is not part of {system.value}"
                )
            if match_scheme(step.formula, by.scheme) is None:
                return ProofResult(
                    False, idx, f"no match against scheme {by.scheme.value}"
                )
        elif isinstance(by, MP):
            err = _check_ref(by.antecedent, idx) or _check_ref(by.implication, idx)
            if err:
                return ProofResult(False, idx, err)
            expected = f_imp(steps[by.antecedent - 1].formula, step.formula)
            if steps[by.implication - 1].formula != expected:
                return ProofResult(
                    False,
                    idx,
                    f"step {by.implication} is not (step {by.antecedent} -> this step)",
                )
        elif isinstance(by, (NecK, NecB)):
            box, name = (Knows, "K") if isinstance(by, NecK) else (Believes, "B")
            rule = "knowledge" if box is Knows else "belief"
            if (box is Knows) != (system is System.EDL):
                return ProofResult(
                    False, idx, f"{rule} necessitation is not a rule of {system.value}"
                )
            err = _check_ref(by.premise, idx)
            if err:
                return ProofResult(False, idx, err)
            if step.formula != box(by.agent, steps[by.premise - 1].formula):
                return ProofResult(
                    False, idx, f"formula is not {name} applied to step {by.premise}"
                )
        else:
            return ProofResult(False, idx, f"unknown justification {by!r}")
    return ProofResult(True)


def _check_ref(ref: int, current: int) -> Optional[str]:
    if not 1 <= ref < current:
        return f"reference to step {ref} is out of range (must be 1..{current - 1})"
    return None
