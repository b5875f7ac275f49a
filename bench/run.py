"""Benchmark runner for hyperdox: one workload, one fresh process.

    python3 bench/run.py --workload {soundness,search,cli} --seed N \
        --seconds S --trace {0,1}

Sets the workload up several times (fresh import of the package, input
generation from the seed, file writes), then runs passes over the
workload's fixed request list, one request at a time, until the time is
used (at least two passes). The first pass is checked against the
reference outside the timed region; every later pass must repeat its
outputs exactly. With --trace 1 the first half of the time runs untraced
passes and the rest traced ones, which give the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

from probe import SpeedSampler
from tracer import Tracer
from workloads import WORKLOADS, percentile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_REPS = 5
MIN_PASSES = 2
MIN_TRACED_PASSES = 2


class Package:
    """Freshly imported hyperdox modules plus the test oracles."""

    MODULES = ("cli", "convert", "formula", "hypergraph", "kripke", "modelio", "proofcheck", "search")

    def __init__(self):
        for name in list(sys.modules):
            if name == "hyperdox" or name.startswith("hyperdox.") or name == "oracles":
                del sys.modules[name]
        self.hyperdox = importlib.import_module("hyperdox")
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"hyperdox.{name}"))
        self.oracles = importlib.import_module("oracles")


def set_up(workload_cls, seed, workdir):
    """Set up SETUP_REPS times; returns (last workload, set-up times)."""
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        start = time.perf_counter()
        workload = workload_cls(Package(), seed, workdir)
        times.append(time.perf_counter() - start)
    return workload, times


class Pass:
    """Latencies of one pass, raw and in reference seconds (None if traced)."""

    def __init__(self, latencies, ref_latencies, outputs):
        self.latencies = latencies
        self.ref_latencies = ref_latencies
        self.outputs = outputs
        self.wall = sum(latencies)
        self.traced = ref_latencies is None


def run_pass(workload, tracer=None):
    """One pass over the requests. Untraced passes sample the machine's
    speed as they go; the sampler's own time is taken out of every latency."""
    gc.collect()
    if tracer is not None:
        tracer.install()
    sampler = SpeedSampler()
    latencies, spans, outputs = [], [], []
    try:
        with contextlib.nullcontext() if tracer is not None else sampler:
            for request in workload.requests:
                # read the clock outside the sampler's counter, so that a
                # sample landing between the reads is never taken out
                start = time.perf_counter()
                spent = sampler.spent
                try:
                    out = request()
                except Exception as exc:  # a request that raises is a failed request
                    out = Raised(f"{type(exc).__name__}: {exc}")
                spent = sampler.spent - spent
                end = time.perf_counter()
                latencies.append(end - start - spent)
                spans.append((start, end))
                outputs.append(out)
    finally:
        if tracer is not None:
            tracer.remove()
    if tracer is not None:
        return Pass(latencies, None, outputs)
    ref = [t * sampler.speed(*span) for t, span in zip(latencies, spans)]
    return Pass(latencies, ref, outputs)


def run_passes(workload, seconds, trace):
    """Untraced passes, then (with trace) traced ones; returns (passes, tracers)."""
    passes, tracers = [], []
    start = time.perf_counter()
    untraced_until = seconds / 2 if trace else seconds
    while True:
        p = run_pass(workload)
        passes.append(p)
        elapsed = time.perf_counter() - start
        if len(passes) >= (1 if trace else MIN_PASSES) and elapsed + p.wall > untraced_until:
            break
    while trace:
        tracer = Tracer()
        p = run_pass(workload, tracer)
        tracer.add_taut_rows(workload.taut_rows)
        passes.append(p)
        tracers.append(tracer)
        elapsed = time.perf_counter() - start
        if len(tracers) >= MIN_TRACED_PASSES and elapsed + p.wall > seconds:
            break
    return passes, tracers


def check_passes(workload, passes):
    """(failed request count, error messages) over every pass."""
    first = passes[0].outputs
    errors, bad = [], set()
    for i, out in enumerate(first):
        err = _check(workload, i, out)
        if err:
            bad.add(i)
            errors.append(err)
    reference = [_fingerprint(workload, i, out) for i, out in enumerate(first)]
    failed = len(bad)
    for n, p in enumerate(passes[1:], start=2):
        for i, out in enumerate(p.outputs):
            if _fingerprint(workload, i, out) != reference[i]:
                errors.append(f"pass {n} request {i}: output differs from pass 1")
                failed += 1
            elif i in bad:
                failed += 1
    return failed, errors


class Raised(str):
    """The observation of a request that raised: its exception, as text."""


def _check(workload, i, out):
    if isinstance(out, Raised):
        return f"request {i} raised {out}"
    try:
        return workload.check(i, out)
    except Exception as exc:  # a malformed output can break the check itself
        return f"request {i}: check raised {type(exc).__name__}: {exc}"


def _fingerprint(workload, i, out):
    return out if isinstance(out, Raised) else workload.fingerprint(i, out)


def pass_metrics(workload, p):
    """End-to-end metrics of one untraced pass: name -> (value, unit, samples).
    Every time also gets a twin in reference seconds, named with _ref_."""
    out = {}
    for lat, tag in ((p.latencies, ""), (p.ref_latencies, "_ref")):
        metrics = {
            "wall_s": (sum(lat), "s", 1),
            "req_ms_p50": (percentile(lat, 50) * 1000, "ms", len(lat)),
            "req_ms_p90": (percentile(lat, 90) * 1000, "ms", len(lat)),
        }
        metrics.update(workload.extra_metrics(lat))
        for name, value in metrics.items():
            unit = value[1]
            out[name.replace(f"_{unit}", f"{tag}_{unit}", 1)] = value
    out["speed"] = (sum(p.ref_latencies) / p.wall, "x", 1)
    return out


def median_metrics(per_pass):
    """Median over passes; the sample count reads <per pass> x <passes>."""
    return {
        name: (statistics.median(m[name][0] for m in per_pass), unit, f"{samples} x {len(per_pass)} passes")
        for name, (_, unit, samples) in per_pass[0].items()
    }


def git_commit():
    """The commit checked out at the repository root, read without git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "hyperdox")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["soundness", "search", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    for needed in (os.path.join(ROOT, "src", "hyperdox", "__init__.py"), os.path.join(ROOT, "tests", "oracles.py")):
        if not os.path.isfile(needed):
            print(f"error: {os.path.relpath(needed, ROOT)} not found; run from a full checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

    workdir = os.path.join(BENCH, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload, setup_times = set_up(WORKLOADS[args.workload], args.seed, workdir)
        passes, tracers = run_passes(workload, args.seconds, args.trace == 1)
        failed, errors = check_passes(workload, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    attempted = sum(len(p.outputs) for p in passes)

    untraced = [pass_metrics(workload, p) for p in passes if not p.traced]
    e2e = median_metrics(untraced)
    e2e["setup_s"] = (statistics.median(setup_times), "s", f"{len(setup_times)} set-ups")
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "1 process")

    layer = {}
    if tracers:
        per_tracer = [t.metrics() for t in tracers]
        counts = [{k: v for k, (v, unit) in m.items() if unit != "s"} for m in per_tracer]
        if any(c != counts[0] for c in counts[1:]):
            failed += 1
            errors.append(f"count metrics differ between traced passes: {counts}")
        for name, (value, unit) in per_tracer[0].items():
            if unit == "s":
                value = statistics.median(m[name][0] for m in per_tracer)
            layer[name] = (value, unit)
        traced_wall = statistics.median(p.wall for p in passes if p.traced)
        layer["trace.overhead_s"] = (traced_wall - e2e["wall_s"][0], "s")
        absent = tracers[0].absent
        print(f"absent spans: {', '.join(absent) if absent else 'none'}")
    e2e["failed_ratio"] = (failed / attempted, "ratio", f"{attempted} requests")

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "input_digest": workload.digest,
        "passes": sum(not p.traced for p in passes),
        "traced_passes": len(tracers),
    }
    print("env: " + json.dumps(env))
    for err in errors[:10]:
        print(f"FAILED: {err}")
    print(f"{'metric':<20} {'value':>12} {'unit':<6} samples")
    for name in sorted(e2e):
        value, unit, samples = e2e[name]
        print(f"{name:<20} {value:>12.6g} {unit:<6} {samples}")
    for name in sorted(layer):
        value, unit = layer[name]
        print(f"{name:<44} {value:>12.6g} {unit}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    chosen = e2e if args.trace == 0 else layer
    declared = declared["end_to_end"] if args.trace == 0 else declared["per_layer"]
    metrics = {m["name"]: {"value": chosen[m["name"]][0], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
