#!/usr/bin/env python3
"""The gstar benchmark: one client, a closed loop of in-process CLI requests.

    python3 bench/run.py --workload check --seed 1 --seconds 20 --trace 0

Each request is ``gstar.cli.main(argv)`` with stdout captured: the console
entry point without interpreter start-up, whose cost is reported as
``setup_s``.  The request list of one pass comes from ``gen.build`` (seeded,
labelled by the oracle before timing); the loop runs whole passes for at
most ``--seconds`` of request time, checks every answer, and prints each
metric by name with its unit.  The last stdout line is one JSON object:
end-to-end metrics with ``--trace 0``; with ``--trace 1``, one pass where
each request runs untraced and then traced, and the per-layer metrics of
the traced calls.  See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import gen
import spans
from oracle import OracleGrading, block_certificate_holds

ROOT = gen.ROOT
SETUP_SAMPLES = 15
WARMUP_REQUESTS = 8
VERIFY_SAMPLE = 16  # words re-checked per enumerate listing
TAIL_BEYOND = 10  # requests beyond the tail percentile
PROBE_INTERVAL = 0.05  # seconds of requests between two speed probes
PROBE_WINDOW = 1.0  # seconds around a request whose probes scale it
PROBE_REFERENCE_S = 1.0e-3  # the probe's time on the reference machine

# Timed in a fresh interpreter: import the package and the CLI, then build
# every grading the workload uses.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import gstar, gstar.cli
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        gstar.grading_from_json(json.load(fh))
print(time.perf_counter() - t0)
"""


def import_package():
    """Import gstar from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "gstar" / "cli.py").is_file():
        sys.exit(f"bench: no gstar package under {src}")
    sys.path.insert(0, str(src))
    import gstar.cli
    import gstar.identities

    if Path(gstar.cli.__file__).resolve().parent != (src / "gstar").resolve():
        sys.exit(f"bench: imported gstar from {gstar.cli.__file__}, not from {src}")
    return gstar


def measure_setup(config_paths: list, probe: "SpeedProbe") -> float:
    """Median over fresh interpreters of import plus grading construction,
    each scaled to the reference machine speed."""
    timeline = []
    probe.sample()
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, *config_paths],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        timeline.append((start, perf_counter(), float(done.stdout.strip())))
        probe.sample()
    return statistics.median(probe.scale(*run) for run in timeline)


class Runner:
    """Executes and checks requests; one instance per run."""

    def __init__(self, gstar, requests: list, seed: int):
        self.gstar = gstar
        self.requests = requests
        self.seed = seed
        self.oracles = gen.load_oracles(gen.GRADINGS)
        self.gradings = {}
        for name in sorted({r["grading"] for r in requests if r["op"] == "probe"}):
            with open(ROOT / gen.GRADINGS[name], encoding="utf-8") as fh:
                self.gradings[name] = gstar.grading_from_json(json.load(fh))
        self.failures: list = []
        self.inconclusive = 0
        self.congruent_pairs = 0
        self.words_listed = 0

    # -- one request -----------------------------------------------------------

    def call(self, request: dict):
        """Run one request; returns (seconds, outcome, output)."""
        if request["op"] == "probe":
            return self._probe(request)
        out = io.StringIO()
        gc.collect()  # each request starts from a clean heap, as a fresh process would
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                outcome = self.gstar.cli.main(request["argv"])
            except SystemExit as err:  # argparse exits from inside main
                outcome = f"SystemExit({err.code})"
            except Exception:  # a crash is a failed request, not a failed run
                outcome = traceback.format_exc(limit=3)
            elapsed = perf_counter() - start
        return elapsed, outcome, out.getvalue()

    def _probe(self, request: dict):
        """What scripts/degree_bound_probe.py does for one grading."""
        identities = self.gstar.identities
        grading = self.gradings[request["grading"]]
        bound = 2 * grading.n - 1
        gc.collect()
        start = perf_counter()
        try:
            words = identities.minimal_identities_up_to(grading, 2 * bound)
            certs = [
                (w, identities.block_certificate(identities.word_monomial(w), grading))
                for w in words if len(w) > bound
            ]
            outcome, output = 0, (words, certs)
        except Exception:
            outcome, output = traceback.format_exc(limit=3), None
        return perf_counter() - start, outcome, output

    # -- checking ------------------------------------------------------------

    def check(self, index: int, request: dict, outcome, output) -> None:
        try:
            problem = self._problem(index, request, outcome, output)
        except (ValueError, KeyError, TypeError, IndexError) as err:
            problem = f"unreadable output: {err!r}"
        if problem:
            self.failures.append(f"request {index} ({request['op']} {request['grading']}): {problem}")

    def _problem(self, index: int, request: dict, outcome, output):
        if outcome != 0:
            return f"outcome {outcome!r}"
        op, expect = request["op"], request["expect"]
        g = self.oracles[request["grading"]]
        if op == "probe":
            return self._probe_problem(g, expect, *output)
        if op == "enumerate":
            return self._enumerate_problem(index, g, request, output)
        payload = json.loads(output)
        if op == "check":
            got = {"identity": payload["identity"], "components": len(payload["components"])}
        elif op == "eval":
            got = {"zero": payload["zero"],
                   "positions": sorted([e["row"], e["col"]] for e in payload["entries"])}
        elif op == "selftest":
            got = {"pass": payload["pass"]}
        elif op == "congruent":
            got = {"congruent": payload["congruent"]}
            if got == expect and payload["congruent"]:
                return self._derivation_problem(g, request, payload["derivation"])
        if got != expect:
            return f"expected {expect}, got {got}"
        return None

    def _derivation_problem(self, g, request: dict, chain):
        self.congruent_pairs += 1
        if chain is None:
            self.inconclusive += 1
            return None
        first, second = (g.parse_monomial(t) for t in gen.operands(request["argv"]))
        target = g.evaluation(first)
        for step in chain:
            if g.evaluation(g.parse_monomial(step["result"])) != target:
                return f"derivation step {step} changes the evaluation"
        end = g.parse_monomial(chain[-1]["result"]) if chain else second
        if end != first:
            return "derivation does not end at the first monomial"
        return None

    def _enumerate_problem(self, index: int, g, request: dict, output: str):
        expect = request["expect"]
        argv = request["argv"]
        if "--json" in argv:
            payload = json.loads(output)
            count, monomials = payload["count"], payload["monomials"]
        else:
            lines = output.splitlines()
            count = int(next(line for line in lines if line.startswith("count:")).split()[1])
            at = lines.index("monomials:")
            monomials = [line.strip() for line in lines[at + 1:at + 1 + count]]
        if count != expect["count"] or len(monomials) != count:
            return f"expected {expect['count']} words, got {count} ({len(monomials)} listed)"
        self.words_listed += count
        max_degree = int(argv[argv.index("--max-deg") + 1])
        rng = random.Random(f"{self.seed}:{index}")
        for text in rng.sample(monomials, min(VERIFY_SAMPLE, count)):
            word = g.parse_monomial(text)
            if len(word) > max_degree or not g.is_identity(word):
                return f"{text!r} is not an identity of degree <= {max_degree}"
            if expect["minimal"] and g.has_identity_subword(word):
                return f"{text!r} has a proper identity subword"
        return None

    @staticmethod
    def _probe_problem(g, expect: dict, words, certs):
        letters = [tuple((p + 1, se.element, se.star) for p, se in enumerate(w)) for w in words]
        lengths = sorted({len(w) for w in letters})
        if lengths != expect["lengths"]:
            return f"expected minimal lengths {expect['lengths']}, got {lengths}"
        for word in letters:
            if not g.is_identity(word) or g.has_identity_subword(word):
                return f"{g.render(word)!r} is not a minimal identity"
        for w, bounds in certs:
            word = tuple((p + 1, se.element, se.star) for p, se in enumerate(w))
            if bounds is None or not block_certificate_holds(g, word, bounds):
                return f"no valid block certificate for {g.render(word)!r}: {bounds}"
        return None

    # -- loops ---------------------------------------------------------------

    def warm_up(self) -> None:
        for request in self.requests[:WARMUP_REQUESTS]:
            self.call(request)

    def timed_passes(self, seconds: float, probe: "SpeedProbe") -> tuple[list, list]:
        """Whole passes while the next one should fit in ``seconds`` of raw time.

        Returns the raw times of all runs, and each request's median over the
        passes of its time scaled to the reference machine speed.
        """
        raw: list = []
        timeline: list = []  # (start, end, request time) of every run
        since_probe = 0.0
        probe.sample()
        while True:
            pass_time = 0.0
            for index, request in enumerate(self.requests):
                start = perf_counter()
                elapsed, outcome, output = self.call(request)
                timeline.append((start, perf_counter(), elapsed))
                pass_time += elapsed
                raw.append(elapsed)
                self.check(index, request, outcome, output)
                since_probe += elapsed
                if since_probe >= PROBE_INTERVAL:
                    probe.sample()
                    since_probe = 0.0
            if sum(raw) + pass_time > seconds:
                break
        probe.sample()
        scaled = [probe.scale(*run) for run in timeline]
        size = len(self.requests)
        return raw, [statistics.median(scaled[i::size]) for i in range(size)]

    def traced_pass(self, tracer: spans.Tracer) -> tuple[float, float, int]:
        """Each request untraced and traced, in alternating order; returns the
        untraced time, the traced time and the number of runs."""
        instrumentation = spans.Instrumentation(tracer)
        plain = traced = 0.0
        for index, request in enumerate(self.requests):
            for with_spans in ((False, True) if index % 2 == 0 else (True, False)):
                if not with_spans:
                    elapsed, outcome, output = self.call(request)
                    plain += elapsed
                else:
                    tracer.request = index
                    instrumentation.install()
                    try:
                        elapsed, outcome, output = self._traced_call(tracer, request)
                    finally:
                        instrumentation.remove()
                    traced += elapsed
                self.check(index, request, outcome, output)
        return plain, traced, 2 * len(self.requests)

    def _traced_call(self, tracer: spans.Tracer, request: dict):
        if request["op"] == "probe":  # no CLI around a probe: its layers are the top spans
            return self.call(request)
        tracer.enter(spans.REQUEST_SPAN)
        try:
            return self.call(request)
        finally:
            tracer.exit()


class SpeedProbe:
    """Fixed pure-Python work that involves no gstar code: the machine's speed.

    On shared hosts the same code runs up to 40% slower for seconds at a
    time.  Scaling request times by the probe, sampled between requests,
    keeps that drift out of the metrics while any change to gstar still
    shows.  The probe mixes the kinds of work the requests do: parsing an
    expression, exact rational sums, tuple and dict churn, and JSON
    rendering.  A time is scaled by the median of the samples taken within
    PROBE_WINDOW seconds of it, so that one disturbed sample does not count.
    """

    def __init__(self):
        self.grading = OracleGrading.load(ROOT / gen.GRADINGS["z6"])
        terms = gen.component(random.Random(0), self.grading, 6, 24, True, False)
        self.text = gen.poly_text(self.grading, terms)
        for _ in range(5):  # let the interpreter specialise the probe's code
            self._measure()
        self.samples: list = []  # (when, probe time)

    def _work(self) -> None:
        g = self.grading
        facts = g.poly_facts(g.parse_poly(self.text, None), None)
        json.dumps({"facts": facts, "words": g.count_identities(3, False), "text": self.text.split()})

    def _measure(self) -> float:
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            self._work()
            best = min(best, perf_counter() - start)
        return best

    def sample(self) -> None:
        self.samples.append((perf_counter(), self._measure()))

    def scale(self, start: float, end: float, seconds: float) -> float:
        """``seconds`` spent between ``start`` and ``end``, at reference speed."""
        nearby = [p for t, p in self.samples if start - PROBE_WINDOW <= t <= end + PROBE_WINDOW]
        return seconds * PROBE_REFERENCE_S / statistics.median(nearby)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    gstar = import_package()
    requests, request_digest = gen.build(args.workload, args.seed)
    config_paths = sorted({gen.GRADINGS[r["grading"]] for r in requests})
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "requests_per_pass": len(requests), "digest": request_digest,
    }
    runner = Runner(gstar, requests, args.seed)
    gc.freeze()  # set-up objects stay out of the per-request collections
    metrics: dict = {}
    if args.trace:
        runner.warm_up()
        tracer = spans.Tracer()
        plain, traced, attempted = runner.traced_pass(tracer)
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(span_file)
        env["spans"] = {"file": str(span_file.relative_to(ROOT)), "recorded": len(tracer.log),
                        "dropped": tracer.dropped}
    else:
        probe = SpeedProbe()
        setup_s = measure_setup(config_paths, probe)
        runner.warm_up()
        raw, latencies = runner.timed_passes(args.seconds, probe)
        attempted = len(raw)
        busy = sum(latencies)
        metrics = {
            "setup_s": (setup_s, "s"),
            "req_per_s": (len(latencies) / busy, "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "latency_tail_ms": (1e3 * sorted(latencies)[-TAIL_BEYOND - 1], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        env.update(passes=attempted // len(requests), runs=attempted,
                   tail_percentile=1 - TAIL_BEYOND / len(requests), beyond_tail=TAIL_BEYOND)
        print(f"raw_req_per_s {attempted / sum(raw)} 1/s")
        print(f"raw_latency_p50_ms {1e3 * statistics.median(raw)} ms")
        # printed, not gated: zero on the seed code, or defined for one workload only
        print(f"failed_ratio {len(runner.failures) / attempted:.6f} ratio")
        if args.workload == "enumerate":
            passes = attempted // len(requests)
            print(f"words_per_s {runner.words_listed / passes / busy} 1/s")
        if args.workload == "congruent":
            ratio = runner.inconclusive / max(1, runner.congruent_pairs)
            print(f"inconclusive_ratio {ratio:.6f} ratio "
                  f"({runner.inconclusive}/{runner.congruent_pairs})")
    failed = len(runner.failures)
    for line in runner.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
