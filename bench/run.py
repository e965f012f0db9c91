"""Benchmark for synthkit: one closed-loop client in one process, no threads.

    python3 bench/run.py --workload solve-fat --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``solve-fat`` runs ``solve`` scripts through
``synthkit.cli.main``, ``query-mix`` runs short CLI scripts of every verb
through it, and ``verify`` calls ``synthkit.suites.run_suite``. synthkit
is imported from ``src/`` next to this directory.

A run does a fixed amount of work: whole decks of ops, as many as take
about ``--seconds`` on a 2-vCPU host. So every run of a seed attempts the
same ops and gets the same failures, however fast the machine is.

With ``--trace 0`` the run reports end-to-end metrics over one timed pass
of those ops. ``setup_s`` is the median over SETUP_PROBES fresh
interpreters, each importing synthkit and generating one deck, started at
even intervals through the pass so that they run on the same machine
state as the ops.

With ``--trace 1`` it runs a fixed number of whole decks four times in
this process -- untraced, traced, untraced again and under cProfile --
and reports per-layer metrics; the counters are exact and repeat for a
seed. Spans of the traced pass go to ``bench/out/``.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. An op fails when it raises, exits with an unexpected code or
answers differently from the constructed answer. ``correct`` is false
when any failure is a wrong answer; it stays true for a failure that
synthkit itself flags inconclusive with an enclosure that holds the
constructed root (today: rational roots with denominators past 10^12).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from workloads import DECK_SIZES, OK, WORKLOADS, WRONG  # noqa: E402

MIN_OPS = 100  # so that at least ten latency samples lie beyond p90
MAX_LOOP_S = 150.0  # a run must end within 180 s even when ops get slow
SETUP_PROBES = 12
WARM_UP_OPS = 20
# Seconds one deck takes on a 2-vCPU host at typical speed; sizes a run.
DECK_SECONDS = {"solve-fat": 8.0, "query-mix": 0.15, "verify": 0.8}
# Whole decks per traced run: each pass takes a few seconds.
TRACE_DECKS = {"solve-fat": 1, "query-mix": 40, "verify": 6}


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_synthkit():
    """Import synthkit from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "synthkit", "__init__.py")):
        raise SystemExit(f"bench: no synthkit sources under {SRC}")
    sys.path.insert(0, SRC)
    import synthkit.cli
    import synthkit.suites

    where = os.path.dirname(os.path.abspath(synthkit.__file__))
    if where != os.path.join(SRC, "synthkit"):
        raise SystemExit(f"bench: imported synthkit from {where}, not {SRC}")
    return synthkit.cli, synthkit.suites


def deck_ops(workload: str, seed, decks: int) -> list:
    stream = WORKLOADS[workload](seed)
    return [next(stream) for _ in range(decks * DECK_SIZES[workload])]


def decks_per_run(workload: str, seconds: float) -> int:
    """Whole decks that make a run of about ``seconds``, and at least MIN_OPS ops."""
    size = DECK_SIZES[workload]
    return max(-(-MIN_OPS // size), round(seconds / DECK_SECONDS[workload]))


def setup_probe(workload: str, seed: int) -> None:
    """Child process body: time the import plus the first deck of inputs."""
    start = perf_counter()
    import_synthkit()
    deck_ops(workload, seed, 1)
    print(perf_counter() - start)


def setup_once(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Client:
    """Runs one op the way a user does: (exit code, output) or a SuiteResult."""

    def __init__(self, cli, suites):
        self.cli = cli
        self.suites = suites

    def __call__(self, op):
        if op.suite:
            name, seed, trials = op.suite
            return self.suites.run_suite(name, seed=seed, trials=trials)
        stdin = sys.stdin
        sys.stdin = io.StringIO(op.script)
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(op.argv))
        finally:
            sys.stdin = stdin
        return code, buf.getvalue()


def run_op(client, op):
    """(latency seconds, verdict, reason, output bytes) for one op."""
    start = perf_counter()
    try:
        outcome = client(op)
    except (Exception, SystemExit) as exc:  # an escaped traceback is a failure
        return perf_counter() - start, WRONG, f"raised {type(exc).__name__}: {exc}", 0
    latency = perf_counter() - start
    nbytes = 0
    if not op.suite:
        code, text = outcome
        nbytes = len(text.encode())
        try:
            outcome = (code, json.loads(text))
        except ValueError:
            return latency, WRONG, "output is not one JSON document", nbytes
    verdict, reason = workloads.check(op, outcome)
    return latency, verdict, reason, nbytes


class Tally:
    def __init__(self):
        self.latencies: list = []
        self.failures: list = []  # (op index, op, verdict, reason)
        self.pooled = 0

    def add(self, index, op, latency, verdict, reason):
        self.latencies.append(latency)
        self.pooled += op.pooled
        if verdict != OK:
            self.failures.append((index, op, verdict, reason))

    @property
    def correct(self) -> bool:
        return all(v != WRONG for _, _, v, _ in self.failures)


def warm_up(client, workload: str, seed: int) -> None:
    """Untimed ops from their own stream, so timed inputs stay fresh."""
    stream = WORKLOADS[workload](f"{seed}/warm-up")
    for _ in range(WARM_UP_OPS):
        run_op(client, next(stream))


def end_to_end(args) -> tuple:
    cli, suites = import_synthkit()
    client = Client(cli, suites)
    decks = decks_per_run(args.workload, args.seconds)
    ops = deck_ops(args.workload, args.seed, decks)
    warm_up(client, args.workload, args.seed)
    probes = {i * len(ops) // SETUP_PROBES for i in range(SETUP_PROBES)}
    tally, setups = Tally(), []
    start = perf_counter()
    for index, op in enumerate(ops):
        if perf_counter() - start >= MAX_LOOP_S:
            break
        if index in probes:
            setups.append(setup_once(args.workload, args.seed))
        latency, verdict, reason, _ = run_op(client, op)
        tally.add(index, op, latency, verdict, reason)

    lat = tally.latencies
    deciles = statistics.quantiles(lat, n=10)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "latency samples": f"{len(lat)} ({decks} decks)",
        "samples beyond p90": sum(1 for x in lat if x > deciles[8]),
        "set-up samples": len(setups),
        "fail_ratio": len(tally.failures) / len(lat),
        "ops reusing a pooled ideal": f"{tally.pooled} ({tally.pooled / len(lat):.3f})",
    }
    return tally, metrics, notes


def per_layer(args) -> tuple:
    import cProfile

    import tracing

    cli, suites = import_synthkit()
    client = Client(cli, suites)
    ops = deck_ops(args.workload, args.seed, TRACE_DECKS[args.workload])
    warm_up(client, args.workload, args.seed)

    def run_pass(rec=None):
        tally, wall, nbytes = Tally(), 0.0, 0
        for index, op in enumerate(ops):
            if rec is not None:
                rec.begin_op(index)
            latency, verdict, reason, size = run_op(client, op)
            tally.add(index, op, latency, verdict, reason)
            wall += latency
            nbytes += size
        return tally, wall, nbytes

    tally, before_wall, _ = run_pass()

    rec = tracing.Recorder()
    t0 = perf_counter()
    installed = tracing.Installed(rec)
    try:
        traced, traced_wall, nbytes = run_pass(rec)
    finally:
        installed.uninstall()
    rec.counts["cli.out_bytes"] = nbytes
    missing = tracing.missing_bindings(rec, args.workload)
    if missing:
        raise SystemExit(
            "bench: wrapped functions recorded no calls on "
            f"{args.workload}: {', '.join(missing)}"
        )
    rec.write(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"), t0)

    # Untraced passes before and after the traced one, so that drift in
    # machine speed between passes does not show up as tracing overhead.
    after, after_wall, _ = run_pass()
    plain_wall = (before_wall + after_wall) / 2

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        profiled, profiled_wall, _ = run_pass()
    finally:
        profiler.disable()

    metrics = tracing.span_metrics(rec)
    metrics.update(tracing.profile_metrics(profiler))
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    metrics["profile.overhead_ratio"] = profiled_wall / plain_wall
    tally.failures += [f for t in (traced, after, profiled) for f in t.failures if f[2] == WRONG]
    notes = {"ops per pass": len(ops), "spans": len(rec.spans)}
    return tally, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    units = declared_units(args.trace)
    measure = per_layer if args.trace else end_to_end
    tally, metrics, notes = measure(args)
    if set(metrics) != set(units):
        raise SystemExit(
            "bench: measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}")
    for name, value in notes.items():
        print(f"{name}: {value}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    for index, op, verdict, reason in tally.failures:
        print(f"FAILED op {index} [{verdict}] {op.kind}: {op.label()}  -- {reason}")
    print(f"correct {tally.correct}")
    result = {
        "correct": tally.correct,
        "attempted": len(tally.latencies),
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
