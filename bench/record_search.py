"""Record the reference results of the search workload's queries.

    python3 bench/record_search.py

Runs every witness query and every exhausting query through
`countermodel` at the commit checked out, after checking with the naive
oracle that each witness query is false on the hand-written model it was
built against, and writes bench/expected_search.json. Re-record only when
a change is meant to alter the canonical enumeration order.
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import workloads  # noqa: E402
from hyperdox import HypergraphModel, DirectedEdge, Vertex, parse_formula  # noqa: E402
from hyperdox.search import SearchBounds, countermodel  # noqa: E402
from oracles import naive_satisfies_h  # noqa: E402


def as_package_model(m, ws):
    vertices = [
        Vertex(vid, ws.agent_index(agent), frozenset(ws.var_by_name(p) for p in atoms))
        for vid, (agent, atoms) in m["vertices"].items()
    ]
    edges = [DirectedEdge(name, tail, head) for name, tail, head in m["edges"]]
    return HypergraphModel(ws, vertices, edges)


def main():
    bounds = SearchBounds(2, 4, 1, max_vertices_per_agent=3)
    ws = bounds.workspace()
    hand = workloads.hand_models()
    witness = []
    for i in range(workloads.WITNESS_QUERIES):
        cls, text, model = workloads.witness_query(i, hand)
        f = parse_formula(text, ws)
        pm = as_package_model(model, ws)
        if all(naive_satisfies_h(pm, j, f) for j in range(pm.n_edges)):
            raise SystemExit(f"witness query {i}: {text!r} is true on its hand model")
        r = countermodel(cls, f, bounds)
        witness.append([cls, text, r.outcome, r.models_visited, r.edge])
    exhausting = []
    for cls, text, workers in workloads.EXHAUSTING:
        r = countermodel(cls, parse_formula(text, ws), bounds, workers=workers)
        exhausting.append([cls, text, r.outcome, r.models_visited, r.edge])
    with open(workloads.EXPECTED_SEARCH, "w", encoding="utf-8") as fh:
        for key, rows in (("witness", witness), ("exhausting", exhausting)):
            fh.write(("{" if key == "witness" else ",\n") + f'"{key}": [\n')
            fh.write(",\n".join(json.dumps(row) for row in rows) + "\n]")
        fh.write("}\n")
    visited = sorted(w[3] for w in witness)
    print(f"{len(witness)} witness queries, models visited: median {visited[len(visited) // 2]}, max {visited[-1]}")


if __name__ == "__main__":
    main()
