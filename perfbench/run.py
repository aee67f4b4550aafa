"""Benchmark of the splinephase command line on three seeded workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each request is one in-process call of ``splinephase.cli.main``
on a generated JSON input file, stdout captured, so it passes through
cli -> jsonio -> library as a user's call does.  One client runs the
requests as a closed loop, in whole cycles of the workload's request list,
until ``--seconds`` have passed.  Caches start cold and fill only from the
run's own requests.

On a shared host the speed of the same Python code can swing by a factor
of two within seconds and stay slow or fast for minutes.  So the untraced
run times a fixed reference task (exact rational elimination and window
counts from ``reference``, never the library) right after every request,
and scales each request's wall time by ``REF_NOMINAL_S`` over the mean
reference time just before and just after it.  The end-to-end times are
therefore wall times at a host speed where the reference task takes
``REF_NOMINAL_S``; the summary line also prints the unscaled figures and
the measured reference times.  Set-up time is not scaled.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a fixed
number of cycles with spans recorded at every layer boundary and reports
the per-layer metrics, then replays the first half of those cycles
untraced in a fresh process to measure the tracing overhead.
``--workload all`` runs the three workloads one after another.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a summary with the failed
fraction, the latency sample count and a sha256 over the stdout bytes of the
first cycle's certify, oracle, counterexample and frame-check responses.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans
import workloads
import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_PROBES = 7
# Request seconds of one cycle when the benchmark was defined (2-core
# x86-64, Python 3.11).  The traced run does half of --seconds worth of
# cycles, a count fixed by the arguments so that its counters repeat for a
# seed.
NOMINAL_CYCLE_S = {"certify": 3.2, "recover": 1.9, "refute": 1.9}
# The traced run stops early past this many times --seconds of wall time.
TRACE_WALL_FACTOR = 5

# The reference task took 0.75-2.6 ms on a shared 2-core x86-64 host with
# Python 3.11, as the host's load changed; REF_NOMINAL_S only sets the
# scale of the reported times.
REF_NOMINAL_S = 0.001
REF_MATRIX = [list(col) for col in zip(*(ref.basis_row(2, (0, 4), Fraction(k, 4)) for k in range(0, 17, 2)))]
REF_POINTS = [Fraction(k, 8) for k in range(1, 160, 3)]
# After each request the task runs at least REF_MIN_RUNS times and until it
# has taken REF_SHARE of the request's time.
REF_MIN_RUNS = 2
REF_SHARE = 0.1


def reference_task() -> None:
    for _ in range(3):
        ref.rank(REF_MATRIX)
    ref.first_violation(REF_POINTS, (0, 20), 2, "phaseless")


def time_reference(request_s: float) -> tuple:
    """Mean and total seconds of the reference task run after one request.

    The collector is off meanwhile, so a collection owed to the program's
    allocations runs in the program's time, not here.
    """
    runs, total = 0, 0.0
    gc.disable()
    try:
        while runs < REF_MIN_RUNS or total < REF_SHARE * request_s:
            t0 = perf_counter()
            reference_task()
            total += perf_counter() - t0
            runs += 1
    finally:
        gc.enable()
    return total / runs, total


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay-cycles", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup() -> float:
    """Median time for a fresh interpreter to import the command line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import splinephase.cli"], env=env, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Closed-loop client: write each input, call the CLI, check the response."""

    def __init__(self, name: str, seed: int, workdir: Path, main, check: bool = True, scale: bool = False):
        self.workload = workloads.build(name, seed)
        self.workdir = workdir
        self.main = main
        self.check = check
        self.latencies = []
        # With ``scale``, ref_times[i] is the mean reference time measured
        # after request i, and ref_times[-1] the one before the first request.
        self.ref_times = [time_reference(0.0)[0]] if scale else None
        self.cycle_busy = []
        self.sizes = []
        self.failures = []
        self.bytes_in = 0
        self.bytes_out = 0
        self.sign_patterns = 0
        self.digest = hashlib.sha256()
        self.digested = 0
        self._last = {}

    def run(self, cycles=None, seconds=None, wall_limit=None, on_request=None) -> None:
        """Whole cycles: a fixed number, or until ``seconds`` of measuring time."""
        start = perf_counter()
        index = 0
        while True:
            if cycles is not None and index >= cycles:
                break
            if seconds is not None and index and sum(self.cycle_busy) >= seconds:
                break
            if wall_limit is not None and index and perf_counter() - start > wall_limit:
                break
            busy = 0.0
            for req in self.workload.cycle(index):
                busy += self.request(req, index == 0, on_request)
            self.cycle_busy.append(busy)
            index += 1

    def request(self, req, first_cycle: bool, on_request) -> float:
        path = self.workdir / (req.key + ".json")
        text_in = json.dumps(req.payload)
        path.write_text(text_in, encoding="utf-8")
        argv = req.argv + ["--input", str(path)]
        if on_request is not None:
            on_request(len(self.latencies))
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising request is a failed request
            code, error = None, "raised %r" % exc
        elapsed = perf_counter() - t0
        text = out.getvalue()
        self.latencies.append(elapsed)
        busy = elapsed
        if self.ref_times is not None:
            mean, total = time_reference(elapsed)
            self.ref_times.append(mean)
            busy += total
        self.sizes.append(req.sizes)
        self.bytes_in += len(text_in.encode())
        self.bytes_out += len(text.encode())
        if "frames.cols" in req.sizes:
            self.sign_patterns += 2 ** (req.sizes["frames.cols"] - 1) - 1
        if first_cycle and req.digest:
            self.digest.update(text.encode())
            self.digested += 1
        if self.check:
            error = error or self._verify(req, code, text)
            if error:
                self.failures.append("%s %s: %s" % (req.key, " ".join(req.argv), error))
        return busy

    def scaled_latencies(self) -> list:
        """Each request's wall time at the host speed where the reference task takes REF_NOMINAL_S."""
        ref_s = self.ref_times
        return [lat * 2 * REF_NOMINAL_S / (ref_s[i] + ref_s[i + 1]) for i, lat in enumerate(self.latencies)]

    def _verify(self, req, code, text):
        if code != req.expect_code:
            return "exit code %r, expected %d" % (code, req.expect_code)
        fingerprint = hashlib.sha256(text.encode()).digest()
        last = self._last.get(req.key)
        self._last[req.key] = (req.payload, fingerprint)
        if last is not None and last[0] == req.payload:
            return None if last[1] == fingerprint else "output differs from an earlier response to the same input"
        try:
            return req.check(json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            return "malformed response: %r" % exc

    def summary(self, args, **extra) -> dict:
        n = len(self.latencies)
        out = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "cycles": len(self.cycle_busy),
            "latency_samples": n,
            "request_s": sum(self.latencies),
            "failed_frac": {"value": len(self.failures) / n, "unit": "fraction"},
            "stdout_sha256": {"responses": self.digested, "first_cycle": self.digest.hexdigest() if self.digested else None},
        }
        out.update(extra)
        return out

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.failures,
            "attempted": len(self.latencies),
            "failed": len(self.failures),
            "metrics": metrics,
        }


def end_to_end(args, workdir: Path, main) -> None:
    setup_s = measure_setup()
    runner = Runner(args.workload, args.seed, workdir, main, scale=True)
    runner.run(seconds=args.seconds)
    scaled = latency_figures(runner.scaled_latencies())
    unscaled = latency_figures(runner.latencies)
    metrics = {
        "req_per_s": (scaled[0], "1/s"),
        "latency_p50_ms": (scaled[1], "ms"),
        "latency_p90_ms": (scaled[2], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    ref_ms = [1000 * t for t in runner.ref_times]
    report(runner, args, metrics,
           unscaled={"req_per_s": unscaled[0], "latency_p50_ms": unscaled[1], "latency_p90_ms": unscaled[2]},
           reference_task_ms={"nominal": 1000 * REF_NOMINAL_S, "min": min(ref_ms),
                              "median": statistics.median(ref_ms), "max": max(ref_ms)})


def latency_figures(lat: list) -> tuple:
    """Requests per second, p50 and p90 in ms."""
    return (len(lat) / sum(lat), 1000 * statistics.median(lat),
            1000 * statistics.quantiles(lat, n=10, method="inclusive")[8])


def replay(args, workdir: Path, main) -> None:
    """Untraced timing of the first cycles, for the tracing overhead."""
    runner = Runner(args.workload, args.seed, workdir, main, check=False)
    runner.run(cycles=args.replay_cycles)
    print(json.dumps({"request_s": sum(runner.latencies), "requests": len(runner.latencies)}))


def traced(args, workdir: Path, main) -> None:
    cycles = max(1, round(args.seconds / 2 / NOMINAL_CYCLE_S[args.workload]))
    tracer = spans.Tracer()
    tracer.install()
    before = spans.cache_infos()

    def on_request(index):
        tracer.request = index

    try:
        runner = Runner(args.workload, args.seed, workdir, tracer.wrap(main, "cli.main"))
        runner.run(cycles=cycles, wall_limit=TRACE_WALL_FACTOR * args.seconds, on_request=on_request)
    finally:
        tracer.uninstall()
    after = spans.cache_infos()
    tracer.write(WORK / ("trace-%s.tsv" % args.workload))
    calls, inclusive, self_s, buckets = tracer.summary(runner.sizes)

    half = math.ceil(len(runner.cycle_busy) / 2)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--replay-cycles", str(half)],
        check=True, capture_output=True, text=True,
    )
    untraced_s = json.loads(proc.stdout.splitlines()[-1])["request_s"]
    overhead_pct = 100 * (sum(runner.cycle_busy[:half]) / untraced_s - 1)

    metrics = {
        "sequences.certify_s": (inclusive["sequences.certify"], "s"),
        "sequences.global_s": (inclusive["sequences.global"], "s"),
        "sequences.count_calls": (calls["sequences.count"], "count"),
        "sequences.count_s": (inclusive["sequences.count"], "s"),
        "collocation.null_space_calls": (calls["collocation.null_space"], "count"),
        "collocation.null_space_s": (inclusive["collocation.null_space"], "s"),
        "collocation.exact_rank_calls": (calls["collocation.exact_rank"], "count"),
        "collocation.exact_rank_s": (inclusive["collocation.exact_rank"], "s"),
        "collocation.build_s": (inclusive["collocation.build"], "s"),
        "retrieval.reconstruct_s": (inclusive["retrieval.reconstruct"], "s"),
        "retrieval.oracle_s": (inclusive["retrieval.oracle"], "s"),
        "retrieval.counterexample_s": (inclusive["retrieval.counterexample"], "s"),
        "retrieval.solutions_returned": (tracer.solutions_returned, "count"),
        "frames.calls": (calls["frames.almost_pr"], "count"),
        "frames.almost_pr_s": (inclusive["frames.almost_pr"], "s"),
        "frames.sign_patterns": (runner.sign_patterns, "count"),
        "jsonio.decode_s": (inclusive["jsonio.decode"], "s"),
        "jsonio.encode_s": (inclusive["jsonio.encode"], "s"),
        "jsonio.bytes_in": (runner.bytes_in, "bytes"),
        "jsonio.bytes_out": (runner.bytes_out, "bytes"),
        "trace.requests": (len(runner.latencies), "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    for layer, seconds in self_s.items():
        metrics[layer + ".self_s"] = (seconds, "s")
    for cache in spans.CACHES:
        old, new = before[cache], after[cache]
        metrics[cache + "_hits"] = (None if new is None else new[0] - old[0], "count")
        metrics[cache + "_misses"] = (None if new is None else new[1] - old[1], "count")
    bspline = after["bspline.cache"]
    metrics["bspline.cache_entries"] = (None if bspline is None else bspline[2], "count")
    report(runner, args, metrics, trace_overhead_pct=overhead_pct, self_s_by_size=buckets,
           spans=len(tracer.start))


def report(runner: Runner, args, metrics: dict, **extra) -> None:
    for line in runner.failures[:5]:
        print("FAILED %s" % line, file=sys.stderr)
    print(json.dumps(runner.summary(args, **extra), sort_keys=True))
    print(json.dumps(runner.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})))


def run_all(args) -> int:
    """Each workload in its own process; their metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, key)] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "splinephase" / "cli.py").is_file():
        print("error: %s does not hold the splinephase sources; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    from splinephase import cli

    if Path(cli.__file__).resolve().parent != SRC / "splinephase":
        print("error: imported splinephase from %s, not %s" % (cli.__file__, SRC), file=sys.stderr)
        return 2
    workdir = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.replay_cycles:
            replay(args, workdir, cli.main)
        elif args.trace:
            traced(args, workdir, cli.main)
        else:
            end_to_end(args, workdir, cli.main)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
