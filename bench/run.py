"""Benchmark runner for coopsim.

Usage (from the repository root)::

    python3 bench/run.py --workload promise-backlog --seed 0 --seconds 30 --trace 0

The scenario comes from ``gen.py`` and the simulator is imported from
``src/`` next to this directory.  The runner calls ``engine.load``,
``engine.run`` and ``RunResult.trace_text``, which is what
``coopsim run --trace`` does, in one thread, one run after another, until
``--seconds`` have passed (at least ``MIN_ROUNDS`` rounds).  Every trace goes
through the correctness gate in ``gate.py``; a run that raises or fails the
gate counts as failed.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: load + run + trace_text of the full-size scenario;
* ``setup_s``: ``engine.load`` of the full-size scenario alone, per load,
  timed in batches of loads that last at least ``SETUP_SAMPLE_S``;
* ``directives_per_s``: directives applied per second of run + trace_text;
* ``tick_scaling_exp``: ``log(t_N / t_{N/4}) / log 4`` for run + trace_text,
  where the quarter-length scenario is a byte prefix of the full one (a
  ratio, so the median over rounds);
* ``peak_rss_mb``: ``ru_maxrss`` of a fresh ``coopsim run --trace`` process
  on the full-size scenario.

The three times are host-speed corrected.  The host this was built on is
shared: other work on the same cores slows a sample by up to 2x, in spells
from milliseconds to minutes, and CPU time (``time.process_time``) rises
with wall time, so it does not help.  Each round therefore also times
``reference_work``, fixed code that does what the simulator spends its time
on, and a time metric is the mean of its samples divided by the mean
reference time of the same rounds, times ``REFERENCE_S``, the reference
work's uncontended time on the host of ``baseline.json``.  The figures read
as seconds on that host when it is idle.  The raw median and quartiles are
printed beside each.

``--trace 1`` alternates untraced and traced rounds and reports per-layer
call counts, self time (medians over traced rounds) and ratios (see
``tracer.py``), and ``trace_overhead_ratio``, traced over untraced wall
time.  It writes the spans of the last traced round to ``.bench_out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  When the run raises outside a timed round, or no round
completes, that object has ``correct`` false and no metrics, and the exit
code is 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

import gate  # noqa: E402
import gen  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_ROUNDS = 3
SETUP_SAMPLE_S = 0.01
PROBE_TIMEOUT_S = 150
REFERENCE_S = 0.024  # reference_work, uncontended, on the host of baseline.json


def reference_work():
    """Fixed work like the simulator's: Fraction arithmetic and comparison,
    dict updates under string keys, and rendering sorted items as text.
    Other work on the host slows it about as much as it slows the simulator,
    so its time measures the host's speed during a round.  Never change it:
    every recorded figure is scaled by it."""
    counts = {}
    level = Fraction(1)
    lines = []
    for i in range(1500):
        level = level * Fraction(199, 200) - Fraction(1, 1000 + i % 7)
        key = f"a{i % 37}-{i % 11}"
        counts[key] = counts.get(key, 0) + (level < Fraction(1, 2))
        if i % 50 == 0:
            lines.append(" ".join(f"{k}={v}" for k, v in sorted(counts.items())[:20]))
    return lines


class _Tally:
    """Attempted and failed runs, with the first problems seen."""

    def __init__(self, workload, seed, pins):
        self.workload, self.seed, self.pins = workload, seed, pins
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._verdicts = {}  # (ticks, sha256) -> gate problems

    def fail(self, problem):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)

    def check(self, ticks, text):
        """Gate a trace; traces with the same digest are gated once, and a
        size whose trace changes between rounds is not deterministic."""
        self.attempted += 1
        sha = gate.digest(text)
        seen = [d for (t, d) in self._verdicts if t == ticks]
        if seen and sha not in seen:
            self.fail(f"{ticks} ticks: trace differs between rounds")
            return sha
        if (ticks, sha) not in self._verdicts:
            self._verdicts[(ticks, sha)] = gate.check(
                text, self.workload, ticks, self.seed, self.pins
            )
        problems = self._verdicts[(ticks, sha)]
        if problems:
            self.fail(f"{ticks} ticks: {problems[0]}")
        return sha


def _import_engine():
    from coopsim import engine

    if SRC not in Path(engine.__file__).resolve().parents:
        raise ImportError(f"coopsim imported from {engine.__file__}, not {SRC}")
    return engine


def _timed_round(engine, text):
    """(load seconds, run + trace_text seconds, directives, trace text)."""
    gc.collect()
    t0 = time.perf_counter()
    scenario = engine.load(text)
    t1 = time.perf_counter()
    trace = engine.run(scenario).trace_text()
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, len(scenario.events), trace


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _peak_rss(workload, seed, text, tally, expected_sha):
    """ru_maxrss (MiB) of a fresh ``coopsim run --trace`` on ``text``."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}.coop"
    path.write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    tally.attempted += 1
    try:
        child = subprocess.run(
            [sys.executable, "-m", "coopsim.cli", "run", str(path), "--trace",
             "--quiet"],
            cwd=ROOT, env=env, capture_output=True, timeout=PROBE_TIMEOUT_S,
        )
    finally:
        path.unlink()
    if child.returncode != 0:
        tally.fail(f"probe exited {child.returncode}: {child.stderr[-300:]!r}")
    elif gate.digest(child.stdout.decode("utf-8")) != expected_sha:
        tally.fail("probe trace differs from the in-process trace")
    # Linux reports ru_maxrss in KiB; this is the only child of the process.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def measure(engine, workload, seed, seconds, tally):
    """End-to-end figures; returns {metric: (unit, value, raw samples)}.

    Each round times ``reference_work``, one batch of loads of the full
    scenario, then the full and the quarter scenario back to back.  The
    scaling exponent is the median over rounds of the exponent from those
    two timings, which were made moments apart and so share the host's
    state; it needs no correction.
    """
    ticks = gen.WORKLOADS[workload][1]
    full = gen.scenario_text(workload, seed, ticks)
    quarter = gen.scenario_text(workload, seed, ticks // 4)
    if not full.startswith(quarter):
        raise RuntimeError("quarter scenario is not a prefix of the full one")
    deadline = time.perf_counter() + seconds
    _timed_round(engine, quarter)  # warm-up: imports, regex caches
    t0 = time.perf_counter()
    engine.load(full)
    batch = max(1, math.ceil(SETUP_SAMPLE_S / (time.perf_counter() - t0)))
    reference, setup, wall, sim, exponent = [], [], [], [], []
    directives = 0
    full_sha = None
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds += 1
        gc.collect()
        t0 = time.perf_counter()
        reference_work()
        reference.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(batch):
            engine.load(full)
        setup.append((time.perf_counter() - t0) / batch)
        timed = {}
        for size, text in ((ticks, full), (ticks // 4, quarter)):
            try:
                load_s, timed[size], directives_in, trace = _timed_round(engine, text)
            except Exception as exc:  # a run that raises is a failed run
                tally.attempted += 1
                tally.fail(f"{size} ticks raised {exc!r}")
                continue
            sha = tally.check(size, trace)
            if size == ticks:
                full_sha, directives = sha, directives_in
                wall.append(load_s + timed[size])
                sim.append(timed[size])
        if len(timed) == 2:
            exponent.append(math.log(timed[ticks] / timed[ticks // 4]) / math.log(4))
    if not exponent:
        raise RuntimeError(f"no {workload} round completed")
    rss = _peak_rss(workload, seed, full, tally, full_sha)
    scale = REFERENCE_S / statistics.fmean(reference)
    print(f"{workload} reference_work = {statistics.median(reference):.6g} s median "
          f"(fastest {min(reference):.6g}, n={len(reference)}); "
          f"host speed {scale:.4g} of idle")

    def corrected(samples):
        return statistics.fmean(samples) * scale

    return {
        "wall_s": ("s", corrected(wall), wall),
        "setup_s": ("s", corrected(setup), setup),
        "directives_per_s": ("1/s", directives / corrected(sim),
                             [directives / t for t in sim]),
        "tick_scaling_exp": ("exponent", statistics.median(exponent), exponent),
        "peak_rss_mb": ("MiB", rss, [rss]),
    }


def _records(agents):
    """(records held, records still active) over every agent's history."""
    held = active = 0
    for state in agents.values():
        for rec in list(getattr(state, "fragments", ())) + list(
            getattr(state, "portfolio", ())
        ):
            held += 1
            active += getattr(getattr(rec, "state", None), "value", None) == "active"
    return held, active


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def measure_layers(engine, workload, seed, seconds, tally, spans_path):
    """Per-layer figures from traced rounds; returns {metric: (unit, value,
    samples)}, where a value is the median of its samples."""
    ticks = gen.WORKLOADS[workload][1]
    full = gen.scenario_text(workload, seed, ticks)
    _timed_round(engine, gen.scenario_text(workload, seed, ticks // 4))
    deadline = time.perf_counter() + seconds
    untraced, traced, tracers = [], [], []
    records = (0, 0)
    while len(traced) < 2 or time.perf_counter() < deadline:
        try:
            load_s, sim_s, _, trace = _timed_round(engine, full)
        except Exception as exc:
            tally.attempted += 1
            tally.fail(f"untraced round raised {exc!r}")
            break
        untraced.append(load_s + sim_s)
        tally.check(ticks, trace)
        tracer = Tracer()
        gc.collect()
        t0 = time.perf_counter()
        try:
            with tracer:
                result = engine.run(engine.load(full))
                trace = result.trace_text()
        except Exception as exc:
            tally.attempted += 1
            tally.fail(f"traced round raised {exc!r}")
            break
        traced.append(time.perf_counter() - t0)
        tally.check(ticks, trace)
        tracers.append(tracer)
        records = _records(result.agents)
    if not traced:
        raise RuntimeError(f"no traced {workload} round completed")
    OUT_DIR.mkdir(exist_ok=True)
    tracers[-1].write_spans(spans_path)

    samples = {}
    totals = [t.totals() for t in tracers]
    for key in totals[0]:
        if key == "engine.run.self_s":
            samples["engine.self_s"] = ("s", [t[key] for t in totals])
        elif key.endswith(".calls"):
            samples[key] = ("count", [t[key] for t in totals])
        else:
            samples[key] = ("s", [t[key] for t in totals])
    counts = tracers[-1].counters
    calls = totals[-1]
    samples.update({
        "lifecycle.fade_yield": ("ratio", [_ratio(
            counts["lifecycle.faded"], calls["lifecycle.step_fade.calls"])]),
        "lifecycle.records_retained": ("count", [records[0]]),
        "lifecycle.records_active_end": ("count", [records[1]]),
        "agents.adequacy_scan_yield": ("ratio", [_ratio(
            counts["agents.adequacy_returned"], counts["agents.adequacy_scanned"])]),
        "statements.fragments_per_issue": ("ratio", [_ratio(
            counts["statements.fragments"],
            calls["statements.fragment_on_issue.calls"])]),
        "statements.equivalent_hit_ratio": ("ratio", [_ratio(
            counts["statements.equivalent_hits"], calls["statements.equivalent.calls"])]),
        "appraisal.discard_fast_ratio": ("ratio", [_ratio(
            counts["appraisal.discard_fast"], calls["appraisal.credibility_gate.calls"])]),
        "trace_overhead_ratio": ("ratio", [
            statistics.median(traced) / statistics.median(untraced)]),
    })
    return {name: (unit, statistics.median(values), values)
            for name, (unit, values) in samples.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description="coopsim benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        engine = _import_engine()
        pins = gate.load_pins()
    except (ImportError, OSError) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2

    wanted = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tally = _Tally(args.workload, args.seed, pins)
    try:
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
            figures = measure_layers(engine, args.workload, args.seed, args.seconds,
                                     tally, spans)
            names = [m["name"] for m in wanted["per_layer"]]
        else:
            figures = measure(engine, args.workload, args.seed, args.seconds, tally)
            names = [m["name"] for m in wanted["end_to_end"]]
    except Exception as exc:  # outside a timed round, or no round completed
        tally.attempted += 1
        tally.fail(repr(exc))
        figures, names = {}, []

    metrics = {}
    for name in names:
        unit, value, values = figures[name]
        q1, median, q3 = _quartiles(values)
        print(f"{args.workload} {name} = {value:.6g} {unit} (raw median {median:.6g}, "
              f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
        metrics[name] = {"value": value, "unit": unit}
    print(f"{args.workload} failed_ratio = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} runs)")
    for problem in tally.problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
