"""Workspaces: the fixed agent set and each agent's local variables.

Every model, formula and proof is interpreted relative to one workspace.
Agents are addressed by index (their position in the declaration order),
variables by (owner, index) pairs. Variable names are globally unique, so
a name determines its owner.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import WorkspaceError

# The formula grammar's identifiers. A variable may not be one of its
# constants either, so that every atom renders to text that parses back.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class PropVar:
    """A local variable of one agent: owner is an agent index."""

    owner: int
    index: int


@dataclass(frozen=True)
class Workspace:
    agents: tuple[str, ...]
    vars: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.agents) < 1:
            raise WorkspaceError("workspace must declare at least one agent")
        if len(set(self.agents)) != len(self.agents):
            raise WorkspaceError("agent names must be unique")
        if len(self.vars) != len(self.agents):
            raise WorkspaceError("vars must declare one list per agent")
        for name in (*self.agents, *(name for names in self.vars for name in names)):
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                raise WorkspaceError(f"name {name!r} is not an identifier [A-Za-z_][A-Za-z0-9_]*")
        seen: set[str] = set()
        for names in self.vars:
            for name in names:
                if name in ("true", "false"):
                    raise WorkspaceError(f"variable name {name!r} is a formula constant")
                if name in seen:
                    raise WorkspaceError(f"variable name declared twice: {name!r}")
                seen.add(name)
        overlap = seen & set(self.agents)
        if overlap:
            raise WorkspaceError(f"names used both as agent and variable: {sorted(overlap)}")

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @cached_property
    def _agent_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.agents)}

    @cached_property
    def _var_index(self) -> dict[str, PropVar]:
        table: dict[str, PropVar] = {}
        for owner, names in enumerate(self.vars):
            for index, name in enumerate(names):
                table[name] = PropVar(owner, index)
        return table

    def agent_index(self, name: str) -> int:
        try:
            return self._agent_index[name]
        except KeyError:
            raise WorkspaceError(f"undeclared agent {name!r}") from None

    def var_by_name(self, name: str) -> PropVar:
        try:
            return self._var_index[name]
        except KeyError:
            raise WorkspaceError(f"undeclared atom {name!r}") from None

    def var_name(self, var: PropVar) -> str:
        return self.vars[var.owner][var.index]

    def vars_of(self, agent: int) -> list[PropVar]:
        return [PropVar(agent, i) for i in range(len(self.vars[agent]))]

    def all_vars(self) -> list[PropVar]:
        return [v for a in range(self.n_agents) for v in self.vars_of(a)]

    def bottom_var(self) -> PropVar:
        """The designated atom used to desugar falsum: agent 0, index 0."""
        if not self.vars[0]:
            raise WorkspaceError(
                "workspace declares no variable for its first agent; "
                "the designated falsum atom is undefined"
            )
        return PropVar(0, 0)

    def to_json(self) -> dict:
        return {
            "agents": list(self.agents),
            "vars": {a: list(names) for a, names in zip(self.agents, self.vars)},
        }

    @classmethod
    def from_json(cls, data: dict) -> "Workspace":
        agents = data.get("agents")
        vars_block = data.get("vars")
        if not isinstance(agents, list) or not all(isinstance(a, str) for a in agents):
            raise WorkspaceError("'agents' must be a list of strings")
        if not isinstance(vars_block, dict):
            raise WorkspaceError("'vars' must be an object mapping agent to variable lists")
        unknown = set(vars_block) - set(agents)
        if unknown:
            raise WorkspaceError(f"vars declared for unknown agents: {sorted(unknown)}")
        vars_tuple = []
        for a in agents:
            names = vars_block.get(a, [])
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise WorkspaceError(f"vars for agent {a!r} must be a list of strings")
            vars_tuple.append(tuple(names))
        return cls(tuple(agents), tuple(vars_tuple))


def synthetic_workspace(n_agents: int, vars_per_agent: int) -> Workspace:
    """Workspace with agents a, b, c, ... and variables p_<agent>_<k>."""
    if not 1 <= n_agents <= 26:
        raise WorkspaceError("synthetic workspaces support 1..26 agents")
    agents = tuple(chr(ord("a") + i) for i in range(n_agents))
    vars_ = tuple(
        tuple(f"p_{a}_{k + 1}" for k in range(vars_per_agent)) for a in agents
    )
    return Workspace(agents, vars_)
