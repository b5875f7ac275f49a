"""Command-line driver.

Exit codes: 0 for success or a true/agreeing/accepted result, 1 for a
false result, a found countermodel, a rejected proof or any reported
violation, 2 for malformed input of any kind or a closed output pipe.

One parser, built by build_parser at the first call, serves every call
of main in a process; parsing keeps no state between calls. A one-shot
`hyperdox` process still builds it once, as before: only code that calls
main more than once in a process (the tests, the benchmark) saves the
build.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .convert import (
    FormulaSlots,
    check_modal_equivalence,
    hypergraph_to_kripke,
    kripke_to_hypergraph,
)
from .errors import HyperdoxError, InputError, ValidationError
from .formula import parse_formula
from .hypergraph import HypergraphModel, graph_metrics, induced_complex, satisfies_h
from .kripke import KripkeModel, model_properties, satisfies_k
from .modelio import (
    load_certificate,
    load_model,
    load_proof,
    save_certificate,
    save_model,
)
from .proofcheck import System, check_proof
from .search import CLASSES, SYSTEM_CLASS, SearchBounds, countermodel, soundness_suite


def _parse_bounds(text: str) -> SearchBounds:
    fields = {}
    for part in text.split(","):
        if "=" not in part:
            raise InputError(f"bad bounds entry {part!r}; expected key=value")
        key, value = (x.strip() for x in part.split("=", 1))
        if key in fields:
            raise InputError(f"bounds key {key!r} is given twice")
        try:
            fields[key] = int(value)
        except ValueError:
            raise InputError(f"bounds value for {key!r} must be an integer") from None
    unknown = set(fields) - {"agents", "edges", "vars", "verts"}
    if unknown:
        raise InputError(f"unknown bounds keys {sorted(unknown)}")
    if "agents" not in fields or "edges" not in fields:
        raise InputError("bounds must set at least agents=A,edges=E")
    return SearchBounds(
        n_agents=fields["agents"],
        max_edges=fields["edges"],
        vars_per_agent=fields.get("vars", 0),
        max_vertices_per_agent=fields.get("verts"),
    )


def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(human)


def cmd_validate(args) -> int:
    model = load_model(args.model)
    report = model_properties(model) if isinstance(model, KripkeModel) else graph_metrics(model)
    data = report.to_json()
    lines = [f"{key}: {json.dumps(value)}" for key, value in data.items()]
    _emit(args, data, "\n".join(lines))
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    formula = parse_formula(args.formula, model.workspace)
    if isinstance(model, KripkeModel):
        value = satisfies_k(model, model.world_index(args.state), formula)
    else:
        value = satisfies_h(model, model.edge_index(args.state), formula)
    _emit(args, {"state": args.state, "formula": args.formula, "value": value},
          "true" if value else "false")
    return 0 if value else 1


def cmd_convert(args) -> int:
    model = load_model(args.input)
    if args.direction == "k2h":
        if not isinstance(model, KripkeModel):
            raise InputError("k2h needs a kripke input model")
        out, cert = kripke_to_hypergraph(model)
    else:
        if not isinstance(model, HypergraphModel):
            raise InputError("h2k needs a hypergraph input model")
        out, cert = hypergraph_to_kripke(model)
    save_model(out, args.output)
    cert_path = os.path.splitext(args.output)[0] + ".cert.json"
    save_certificate(cert, cert_path)
    payload = {
        "output": args.output,
        "certificate": cert_path,
        "injective": cert.injective,
    }
    human = f"wrote {args.output} and {cert_path}"
    if not cert.injective:
        human += " (improper input: distinct worlds collapsed onto one edge)"
    _emit(args, payload, human)
    return 0


def cmd_equiv(args) -> int:
    mk = load_model(args.kripke)
    mh = load_model(args.hyper)
    if not isinstance(mk, KripkeModel) or not isinstance(mh, HypergraphModel):
        raise InputError("equiv takes a kripke file, then a hypergraph file")
    if mk.workspace != mh.workspace:
        raise InputError("workspace mismatch between files")
    mapping = load_certificate(args.cert)
    formulas = FormulaSlots(
        mk.workspace.all_vars(), range(mk.workspace.n_agents), args.depth, args.size
    )
    report = check_modal_equivalence(mk, mh, mapping, formulas)
    payload = {
        "checked": report.checked,
        "formulas": len(formulas),
        "disagreements": [
            {"state": row.state, "kripke": row.kripke_value, "hypergraph": row.hypergraph_value}
            for row in report.disagreements
        ],
        "agree": report.agree,
    }
    human = f"checked {report.checked} (state, formula) pairs: " + (
        "all agree" if report.agree else f"{len(report.disagreements)} disagreements"
    )
    _emit(args, payload, human)
    return 0 if report.agree else 1


def cmd_prove(args) -> int:
    system, steps, _ws = load_proof(args.proof)
    result = check_proof(system, steps)
    human = "ok" if result.ok else f"error at step {result.step}: {result.reason}"
    _emit(args, result.to_json(), human)
    return 0 if result.ok else 1


def cmd_complex(args) -> int:
    model = load_model(args.model)
    if not isinstance(model, HypergraphModel):
        raise InputError("complex needs a hypergraph model")
    facets = induced_complex(model)
    payload = {"facets": [sorted(f) for f in facets]}
    human = "\n".join("{" + ",".join(sorted(f)) + "}" for f in facets) or "(empty complex)"
    _emit(args, payload, human)
    return 0


def cmd_search_countermodel(args) -> int:
    bounds = _parse_bounds(args.bounds)
    ws = bounds.workspace()
    formula = parse_formula(args.formula, ws)
    start = time.perf_counter()
    result = countermodel(args.cls, formula, bounds, seed=args.seed, workers=args.workers)
    payload = result.to_json(time.perf_counter() - start)
    visited = result.models_visited
    if result.outcome == "countermodel":
        _emit(args, payload, f"countermodel at edge {result.edge} after {visited} models")
        return 1
    _emit(args, payload, f"no countermodel within bounds ({visited} models visited)")
    return 0


def cmd_search_soundness(args) -> int:
    bounds = _parse_bounds(args.bounds)
    system = System(args.system)
    cls = args.cls or SYSTEM_CLASS[system]
    report = soundness_suite(
        system, cls, bounds, args.depth, instantiation_size=args.size, seed=args.seed
    )
    human = (
        f"{system.value} over {cls}: {len(report.violations)} violations, "
        f"{report.instances_checked} instances on {report.models_visited} models"
    )
    _emit(args, report.to_json(), human)
    return 0 if not report.violations else 1


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # usage errors also end in the JSON error object
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="hyperdox",
        description="Doxastic logic workbench over directed hypergraph and Kripke models",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a model file and classify it")
    p.add_argument("model")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("eval", help="evaluate a formula at a world or edge")
    p.add_argument("model")
    p.add_argument("state")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("convert", help="convert between model kinds")
    p.add_argument("direction", choices=["k2h", "h2k"])
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("equiv", help="check modal equivalence along a certificate")
    p.add_argument("kripke")
    p.add_argument("hyper")
    p.add_argument("cert")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--size", type=int, default=4)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("prove", help="check a Hilbert-style proof file")
    p.add_argument("proof")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("complex", help="list the facets of the induced complex")
    p.add_argument("model")
    p.set_defaults(fn=cmd_complex)

    p = sub.add_parser("search", help="bounded countermodel search and suites")
    search_sub = p.add_subparsers(dest="search_command", required=True)

    q = search_sub.add_parser("countermodel", help="search for a falsifying model")
    q.add_argument("cls", choices=list(CLASSES), metavar="class")
    q.add_argument("formula")
    q.add_argument("--bounds", required=True, help="agents=A,edges=E,vars=V[,verts=K]")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--workers", type=int, default=1)
    q.set_defaults(fn=cmd_search_countermodel)

    q = search_sub.add_parser("soundness", help="validity suite for a proof system")
    q.add_argument("system", choices=[s.value for s in System])
    q.add_argument("--class", dest="cls", choices=list(CLASSES), default=None)
    q.add_argument("--bounds", required=True, help="agents=A,edges=E,vars=V[,verts=K]")
    q.add_argument("--depth", type=int, default=1)
    q.add_argument("--size", type=int, default=3)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=cmd_search_soundness)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = argparse.Namespace(json="--json" in (sys.argv[1:] if argv is None else argv))
    try:
        try:
            args = _parser().parse_args(argv)
            return args.fn(args)
        except BrokenPipeError:
            raise
        except (HyperdoxError, OSError) as exc:
            _error(args, exc)
            return 2
        finally:  # a closed stdout shows here, not in the flush at exit
            sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone: print nothing more, exit-flush into devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


def _error(args, exc):
    if args.json:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if isinstance(exc, ValidationError):
            payload["error"]["violations"] = exc.violations
        print(json.dumps(payload, indent=2))
    else:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
