"""The three workloads: their inputs, requests and reference checks.

A workload is built once per set-up from the seed. `requests` is the fixed
list one pass runs, in order; each request returns an observation.
`fingerprint(i, obs)` is the part of an observation that must repeat
exactly from pass to pass, and `check(i, obs)` compares it against the
reference, returning an error message or None. Checks run outside the
timed region. Requests reach the package only through its public API,
looked up on the freshly imported modules in `hd`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import gen

# -- soundness ------------------------------------------------------------------

# (system, class, models_visited, instances_checked) at SearchBounds(2, 2, 1),
# instantiation depth 1 and size 3: the canonical-order contract.
SUITES = (
    ("LocK45", "H_su", 336, 2450),
    ("LocKD45", "H_sut", 52, 2518),
    ("EDL", "H_sut", 52, 5238),
)


class Soundness:
    """The soundness suites of the three proof systems.

    The inputs are fixed; the seed does not change them.
    """

    name = "soundness"

    def __init__(self, hd, seed, workdir):
        self.hd = hd
        self.requests = [self._suite(system, cls) for system, cls, _, _ in SUITES]
        self.digest = hashlib.sha256(repr(SUITES).encode()).hexdigest()[:16]
        self.taut_rows = 0

    def _suite(self, system, cls):
        def request():
            search = self.hd.search
            bounds = search.SearchBounds(2, 2, 1)
            return search.soundness_suite(
                self.hd.proofcheck.System(system), cls, bounds, instantiation_depth=1,
                instantiation_size=3,
            )
        return request

    def fingerprint(self, i, report):
        return (report.violations, report.models_visited, report.instances_checked)

    def check(self, i, report):
        system, _, visited, instances = SUITES[i]
        if report.violations:
            return f"{system}: {len(report.violations)} violations"
        if (report.models_visited, report.instances_checked) != (visited, instances):
            return (
                f"{system}: visited {report.models_visited} models and "
                f"{report.instances_checked} instances, expected {visited} and {instances}"
            )
        return None

    def extra_metrics(self, latencies):
        return {}


# -- search -----------------------------------------------------------------------

SEARCH_AGENTS = ("a", "b")
SEARCH_VARS = {"a": ["p_a_1"], "b": ["p_b_1"]}
# The witness set is fixed and the seed only shuffles its order: drawing
# 200 of a larger pool made p90 depend on which queries a seed drew
# (IQR/median 0.05 from the draw alone, before any timing noise).
WITNESS_QUERIES = 200
# (class, formula, workers): a 4_B and a K_IB instance, both valid on H_sut,
# so the search exhausts the whole stream; the 4_B one again on two workers.
EXHAUSTING = (
    ("H_sut", "B{a}p_a_1 -> B{a}B{a}p_a_1", 1),
    ("H_sut", "K{b}p_b_1 -> B{b}p_b_1", 1),
    ("H_sut", "B{a}p_a_1 -> B{a}B{a}p_a_1", 2),
)
EXPECTED_SEARCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_search.json")


def hand_models():
    """Small hand-written models over agents a, b with one variable each."""
    m = gen.h_model
    ws = (SEARCH_AGENTS, SEARCH_VARS)
    return {
        "H_sut": [
            m(*ws, [("a1", "a", {"p_a_1"}), ("b1", "b", ())], [("e1", {"a1", "b1"}, ())]),
            m(*ws, [("a1", "a", {"p_a_1"}), ("a2", "a", ()), ("b1", "b", {"p_b_1"})],
              [("e1", {"a1", "b1"}, ()), ("e2", {"a2"}, {"b1"})]),
            m(*ws, [("a1", "a", ()), ("a2", "a", {"p_a_1"}), ("b1", "b", ()), ("b2", "b", {"p_b_1"})],
              [("e1", {"a1"}, {"b1"}), ("e2", {"a2", "b1"}, ()), ("e3", {"b2"}, {"a2"})]),
        ],
        "H_su": [
            m(*ws, [("a1", "a", {"p_a_1"}), ("b1", "b", {"p_b_1"})], [("e1", (), {"a1", "b1"})]),
            m(*ws, [("a1", "a", ()), ("b1", "b", {"p_b_1"}), ("b2", "b", ())],
              [("e1", {"a1"}, {"b1"}), ("e2", (), {"a1", "b2"})]),
            m(*ws, [("a1", "a", {"p_a_1"}), ("a2", "a", ()), ("b1", "b", ()), ("b2", "b", {"p_b_1"})],
              [("e1", {"a1", "b1"}, ()), ("e2", (), {"a2", "b1"}), ("e3", {"b2"}, {"a1"})]),
        ],
    }


def witness_query(i, hand):
    """Witness query i: (class, formula text), false somewhere on a hand model.

    A random formula true everywhere on the chosen model is negated, so
    every entry is falsifiable within the search bounds by construction.
    """
    rng = gen.rng_for("witness", i)
    cls = "H_sut" if i % 2 == 0 else "H_su"
    model = rng.choice(hand[cls])
    ops = ("B", "K") if cls == "H_sut" else ("B",)
    f = gen.random_formula(rng, ["p_a_1", "p_b_1"], list(SEARCH_AGENTS), 2, 7, ops)
    if all(gen.h_eval(model, j, f) for j in range(len(model["edges"]))):
        f = gen.neg(f)
    return cls, gen.render(f), model


class Search:
    """Countermodel search at SearchBounds(2, 4, 1, max_vertices_per_agent=3):
    seeded witness queries, then the exhausting queries."""

    name = "search"

    def __init__(self, hd, seed, workdir):
        self.hd = hd
        hand = hand_models()
        self.queries = []  # (witness index or None, class, formula, workers)
        for i in gen.rng_for("search", seed).sample(range(WITNESS_QUERIES), WITNESS_QUERIES):
            cls, text, _ = witness_query(i, hand)
            self.queries.append((i, cls, text, 1))
        self.queries += [(None, cls, text, workers) for cls, text, workers in EXHAUSTING]
        with open(EXPECTED_SEARCH, encoding="utf-8") as fh:
            self.expected = json.load(fh)
        self.requests = [self._query(cls, text, workers) for _, cls, text, workers in self.queries]
        self.digest = hashlib.sha256(repr(self.queries).encode()).hexdigest()[:16]
        self.taut_rows = 0

    def _query(self, cls, text, workers):
        def request():
            search = self.hd.search
            bounds = search.SearchBounds(2, 4, 1, max_vertices_per_agent=3)
            formula = self.hd.formula.parse_formula(text, bounds.workspace())
            return search.countermodel(cls, formula, bounds, workers=workers)
        return request

    def fingerprint(self, i, result):
        edges = None
        if result.model is not None:
            edges = [(e.name, sorted(e.tail), sorted(e.head)) for e in result.model.edges]
        return (result.outcome, result.models_visited, result.edge, edges)

    def check(self, i, result):
        index, cls, text, workers = self.queries[i]
        if index is None:
            want = self.expected["exhausting"][i - WITNESS_QUERIES]
        else:
            want = self.expected["witness"][index]
        if want[:2] != [cls, text]:
            return f"query {text!r} differs from the recorded query {want[1]!r}"
        got = [result.outcome, result.models_visited, result.edge]
        if got != want[2:]:
            return f"{cls} {text!r}: got {got}, expected {want[2:]}"
        if result.outcome == "countermodel":
            return self._check_witness(cls, text, result)
        return None

    def _check_witness(self, cls, text, result):
        m = result.model
        formula = self.hd.formula.parse_formula(text, m.workspace)
        if self.hd.oracles.naive_satisfies_h(m, m.edge_index(result.edge), formula):
            return f"{text!r} holds at the reported witness edge {result.edge}"
        facts = gen.h_sut_facts(gen.h_model(
            m.workspace.agents,
            dict(zip(m.workspace.agents, m.workspace.vars)),
            [(v.id, m.workspace.agents[v.color], ()) for v in m.vertices.values()],
            [(e.name, e.tail, e.head) for e in m.edges],
        ))
        if not (facts["uniform"] and facts["simple"]) or (cls == "H_sut" and not facts["tail_complete"]):
            return f"witness for {text!r} is not in {cls}: {facts}"
        return None

    def extra_metrics(self, latencies):
        witness = latencies[:WITNESS_QUERIES]
        exhaust = latencies[WITNESS_QUERIES:]
        return {
            "witness_ms_p50": (percentile(witness, 50) * 1000, "ms", len(witness)),
            "witness_ms_p90": (percentile(witness, 90) * 1000, "ms", len(witness)),
            "exhaust_s": (sum(t for t, q in zip(exhaust, EXHAUSTING) if q[2] == 1), "s", "sum of 2"),
            "exhaust_w2_s": (sum(t for t, q in zip(exhaust, EXHAUSTING) if q[2] == 2), "s", 1),
        }


# -- cli --------------------------------------------------------------------------

CLI_AGENTS = ("a", "b", "c")
CLI_VARS = {a: [f"p_{a}_1", f"p_{a}_2"] for a in CLI_AGENTS}
# Sizes and proof shapes are fixed lists that the seed only shuffles, so
# that a pass costs about the same on every seed: worlds per Kripke model,
# edges per hypergraph, and (tautology letters, mutation) per proof. Most
# proofs are small; a few have 2^12..2^16-row tautology steps.
KRIPKE_WORLDS = (3, 4, 5, 6, 7, 8) * 2
HYPER_EDGES = (2, 3, 4, 5, 6, 4) * 2
PROOF_SHAPES = (
    [(k, None) for k in range(2, 10) for _ in range(6)]
    + [(k, None) for k in (10, 10, 10, 11, 11, 11, 12, 12, 12, 13, 13, 14, 14, 15, 15, 16)]
    + [(2 + i % 8, gen.MUTATIONS[i % len(gen.MUTATIONS)]) for i in range(22)]
)
N_KRIPKE = len(KRIPKE_WORLDS)
N_HYPER = len(HYPER_EDGES)
N_PROOFS = len(PROOF_SHAPES)
# Requests per pass, 400 in all. The 48 equiv requests (each model twice)
# and the 16 proofs with 10 or more tautology letters are the slowest 16%,
# so p90 falls inside that fixed group rather than at its edge.
REQUEST_MIX = (
    ("validate", 40),
    ("convert", 40),
    ("equiv", 48),
    ("eval", 136),
    ("complex", 30),
    ("prove", N_PROOFS),
    ("malformed", 20),
)
EQUIV_DEPTH, EQUIV_SIZE = 2, 4


class Cli:
    """In-process `hyperdox --json ...` requests over files written at set-up."""

    name = "cli"

    def __init__(self, hd, seed, workdir):
        self.hd = hd
        self.workdir = workdir
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
        rng = gen.rng_for("cli", seed)
        self.kripke = [
            gen.random_k_ste(rng, CLI_AGENTS, CLI_VARS, n) for n in _shuffled(rng, KRIPKE_WORLDS)
        ]
        self.hyper = [
            gen.random_h_sut(rng, CLI_AGENTS, CLI_VARS, n) for n in _shuffled(rng, HYPER_EDGES)
        ]
        files = []
        for i, m in enumerate(self.kripke):
            hm, mapping = gen.k_to_h(m)
            files += [
                self._write(f"k{i}.json", gen.k_to_json(m)),
                self._write(f"k{i}.h.json", gen.h_to_json(hm)),
                self._write(f"k{i}.cert.json", {"map": mapping}),
            ]
        for i, m in enumerate(self.hyper):
            names = [name for name, _, _ in m["edges"]]
            files += [
                self._write(f"h{i}.json", gen.h_to_json(m)),
                self._write(f"h{i}.k.json", gen.h_to_k_json(m)),
                self._write(f"h{i}.cert.json", {"map": {n: n for n in names}}),
            ]
        self.proofs = []
        for i, (n_letters, mutation) in enumerate(_shuffled(rng, PROOF_SHAPES)):
            system = ("EDL", "LocKD45", "LocK45")[i % 3]
            proof, ok, step, taut = gen.random_proof(rng, CLI_AGENTS, CLI_VARS, system, n_letters, mutation)
            files.append(self._write(f"proof{i}.json", proof))
            self.proofs.append((ok, step, sum(2 ** k for k in taut)))
        files += self._write_malformed()
        self.cases = []
        for kind, count in REQUEST_MIX:
            for j in range(count):
                self.cases.append(getattr(self, f"_case_{kind}")(rng, j))
        rng.shuffle(self.cases)
        self.requests = [self._request(argv) for argv, _ in self.cases]
        h = hashlib.sha256(repr([argv for argv, _ in self.cases]).replace(workdir, "").encode())
        for path in files:
            gen.digest_update(h, path)
        self.digest = h.hexdigest()[:16]
        self.taut_rows = sum(
            self.proofs[expect["proof"]][2] for _, expect in self.cases if "proof" in expect
        )
        self.n_formulas = hd.oracles.count_formulas(
            sum(len(v) for v in CLI_VARS.values()), len(CLI_AGENTS), EQUIV_DEPTH, EQUIV_SIZE
        )

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _write(self, name, data):
        path = self._path(name)
        gen.write_json(path, data)
        return path

    def _write_malformed(self):
        truncated = self._path("bad_truncated.json")
        with open(truncated, "w", encoding="utf-8") as fh:
            fh.write('{"kind": "kripke", "agents": ["a"], "worlds": [')
        overlap = gen.h_to_json(self.hyper[0])
        first = overlap["edges"][0]
        shared = (first["tail"] or first["head"])[:1]
        first["tail"] = sorted(set(first["tail"] + shared))
        first["head"] = sorted(set(first["head"] + shared))
        bad_scheme = {
            "system": "EDL", "agents": ["a"], "vars": {"a": ["p_a_1"]},
            "steps": [{"formula": "p_a_1 -> p_a_1", "by": {"axiom": "T_B"}}],
        }
        return [truncated, self._write("bad_overlap.json", overlap),
                self._write("bad_scheme.json", bad_scheme)]

    # each _case_<kind> returns (argv after --json, expectation)

    def _case_validate(self, rng, j):
        if j % 2:
            return ["validate", self._path(f"h{j % N_HYPER}.json")], {"kind": "hypergraph"}
        return ["validate", self._path(f"k{j % N_KRIPKE}.json")], {"kind": "kripke"}

    def _case_convert(self, rng, j):
        out = self._path(f"out/c{j}.json")
        if j % 2:
            i = rng.randrange(N_HYPER)
            return ["convert", "h2k", self._path(f"h{i}.json"), out], {
                "out": out, "key": "worlds", "size": len(self.hyper[i]["edges"])}
        i = rng.randrange(N_KRIPKE)
        return ["convert", "k2h", self._path(f"k{i}.json"), out], {
            "out": out, "key": "edges", "size": len(self.kripke[i]["worlds"])}

    def _case_equiv(self, rng, j):
        depth = ["--depth", str(EQUIV_DEPTH), "--size", str(EQUIV_SIZE)]
        if j % 2:
            i = j // 2 % N_HYPER
            files = [f"h{i}.k.json", f"h{i}.json", f"h{i}.cert.json"]
            worlds = len(self.hyper[i]["edges"])
        else:
            i = j // 2 % N_KRIPKE
            files = [f"k{i}.json", f"k{i}.h.json", f"k{i}.cert.json"]
            worlds = len(self.kripke[i]["worlds"])
        return ["equiv"] + [self._path(f) for f in files] + depth, {"worlds": worlds}

    def _case_eval(self, rng, j):
        atoms = [p for a in CLI_AGENTS for p in CLI_VARS[a]]
        f = gen.random_formula(rng, atoms, list(CLI_AGENTS), 3, 12)
        if j % 2:
            i = rng.randrange(N_HYPER)
            state = rng.choice(self.hyper[i]["edges"])[0]
            return ["eval", self._path(f"h{i}.json"), state, gen.render(f)], {}
        i = rng.randrange(N_KRIPKE)
        state = rng.choice(self.kripke[i]["worlds"])
        return ["eval", self._path(f"k{i}.json"), state, gen.render(f)], {}

    def _case_complex(self, rng, j):
        i = rng.randrange(N_HYPER)
        spans = [sorted(tail | head) for _, tail, head in self.hyper[i]["edges"]]
        facets = sorted(spans, key=lambda s: (len(s), s))
        return ["complex", self._path(f"h{i}.json")], {"facets": facets}

    def _case_prove(self, rng, j):
        return ["prove", self._path(f"proof{j}.json")], {"proof": j}

    def _case_malformed(self, rng, j):
        k, h = self._path(f"k{j % N_KRIPKE}.json"), self._path(f"h{j % N_HYPER}.json")
        argv = [
            ["validate", self._path("missing.json")],
            ["validate", self._path("bad_truncated.json")],
            ["validate", self._path("bad_overlap.json")],
            ["eval", k, "w1", "p_a_1 & p_z_9"],
            ["eval", h, "e99", "p_a_1"],
            ["eval", k, "w1", "B{a}(p_a_1"],
            ["prove", self._path("bad_scheme.json")],
            ["complex", k],
            ["convert", "k2h", h, self._path(f"out/bad{j}.json")],
            ["equiv", h, k, self._path("k0.cert.json")],
        ][j % 10]
        return argv, {"malformed": True}

    def _request(self, argv):
        argv = ["--json"] + argv

        def request():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = self.hd.cli.main(argv)
            return code, out.getvalue()
        return request

    def fingerprint(self, i, obs):
        return obs

    def check(self, i, obs):
        argv, expect = self.cases[i]
        code, text = obs
        try:
            payload = json.loads(text)
        except ValueError:
            return f"{self._show(argv)}: output is not JSON: {text[:200]!r}"
        if expect.get("malformed"):
            error = payload.get("error") if isinstance(payload, dict) else None
            if code != 2 or not isinstance(error, dict) or not {"type", "message"} <= set(error):
                return f"{self._show(argv)}: expected exit 2 with a JSON error object, got {code}: {text[:200]!r}"
            return None
        return getattr(self, f"_check_{argv[0]}")(argv, expect, code, payload)

    def _show(self, argv):
        return " ".join(arg.replace(self.workdir + os.sep, "") for arg in argv)

    def _check_validate(self, argv, expect, code, payload):
        if expect["kind"] == "kripke":
            keys = ("local", "proper", "serial", "transitive", "euclidean", "in_K_ste")
        else:
            keys = ("n_uniform", "simple", "tail_complete", "in_H_sut")
        if code != 0 or not all(payload.get(k) is True for k in keys):
            return f"{self._show(argv)}: exit {code}, {payload}"
        return None

    def _check_convert(self, argv, expect, code, payload):
        if code != 0 or payload.get("injective") is not True:
            return f"{self._show(argv)}: exit {code}, {payload}"
        with open(expect["out"], encoding="utf-8") as fh:
            size = len(json.load(fh)[expect["key"]])
        if size != expect["size"]:
            return f"{self._show(argv)}: output has {size} {expect['key']}, expected {expect['size']}"
        return None

    def _check_equiv(self, argv, expect, code, payload):
        want = expect["worlds"] * self.n_formulas
        if code != 0 or payload.get("agree") is not True or payload.get("checked") != want:
            return f"{self._show(argv)}: exit {code}, checked {payload.get('checked')} (expected {want}), agree {payload.get('agree')}"
        return None

    def _check_eval(self, argv, expect, code, payload):
        hd = self.hd
        _, path, state, text = argv
        m = hd.modelio.load_model(path)
        f = hd.formula.parse_formula(text, m.workspace)
        if isinstance(m, hd.kripke.KripkeModel):
            want = hd.oracles.naive_satisfies_k(m, m.world_index(state), f)
        else:
            want = hd.oracles.naive_satisfies_h(m, m.edge_index(state), f)
        if payload.get("value") is not want or code != (0 if want else 1):
            return f"{self._show(argv)}: exit {code}, value {payload.get('value')}, oracle says {want}"
        return None

    def _check_complex(self, argv, expect, code, payload):
        if code != 0 or payload.get("facets") != expect["facets"]:
            return f"{self._show(argv)}: exit {code}, facets {payload.get('facets')}, expected {expect['facets']}"
        return None

    def _check_prove(self, argv, expect, code, payload):
        ok, step, _ = self.proofs[expect["proof"]]
        if ok:
            good = code == 0 and payload == {"ok": True}
        else:
            good = code == 1 and payload.get("ok") is False and payload.get("step") == step
        if not good:
            return f"{self._show(argv)}: exit {code}, {payload}; expected ok={ok} step={step}"
        return None

    def extra_metrics(self, latencies):
        return {}


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


WORKLOADS = {w.name: w for w in (Soundness, Search, Cli)}


def percentile(values, q):
    """The q-th percentile, interpolating between the closest ranks."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
