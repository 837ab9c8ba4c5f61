"""Benchmark of the superchar CLI on two workloads of two parts each.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --pin   # re-pin expected.json from the current program

Run from anywhere; the program is imported from ``src/`` next to this
directory.  One client runs a closed loop: this process starts one cold
worker process at a time and waits for it.  A pass is a worker that pays
the CLI set-up (interpreter, ``import superchar``, fields, labels), says
``ready``, then runs every operation of the workload through
``superchar.cli.main`` and checks every output.  Between passes, extra
set-up-only workers (probes) sample the cold set-up again.  Passes go on
until ``--seconds`` have passed and at least two passes ran.

``--trace 0`` prints the end-to-end metrics, each a median over the run:
solve_s, setup_s, peak_rss_mb and query_tail_s.  ``--trace 1`` alternates
traced and untraced passes (at least two traced, one untraced) and prints
the per-layer metrics of the traced ones, with the tracing overhead; the
spans go to ``.perfbench_out/``.  The last line of stdout is one JSON
object in both cases.  DESIGN.md says why the workloads and metrics are
what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracer import NOTE, OTHER_COUNTS, CALL_METRICS, TIME_METRICS  # noqa: E402
from workloads import DEFAULT_SEED, EXPECTED_PATH, WORKLOADS  # noqa: E402

MIN_PASSES = 2
SETUP_LIMIT_S = 60.0  # a worker not ready by then fails its pass
LAST_START_S = 120.0  # no pass starts that could end after this
HARD_LIMIT_S = 170.0  # a worker still running then is killed


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


class Outcome:
    def __init__(self, setup_s=None, result=None, error=None):
        self.setup_s = setup_s
        self.result = result
        self.error = error


def spawn(workload, seed: int, mode: str, deadline: float, trace_file=None) -> Outcome:
    """Start one worker, time its set-up from spawn to ``ready``, and wait."""
    setup = json.dumps(WORKLOADS[workload].setup())
    cmd = [sys.executable, str(WORKER), workload, str(seed), mode, setup]
    if trace_file is not None:
        cmd.append(str(trace_file))
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(), cwd=ROOT,
        bufsize=0,
    )
    try:
        readable, _, _ = select.select([proc.stdout], [], [], SETUP_LIMIT_S)
        line = proc.stdout.readline() if readable else b""
        if line != b"ready\n":
            proc.kill()
            _, err = proc.communicate()
            return Outcome(error=f"worker not ready: {err.decode()[-2000:]}")
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Outcome(error="worker killed at the run's time limit")
    if proc.returncode != 0:
        return Outcome(setup_s, error=f"worker exit {proc.returncode}: {err.decode()[-2000:]}")
    if mode == "probe":
        return Outcome(setup_s)
    return Outcome(setup_s, json.loads(out.decode().strip().splitlines()[-1]))


def tail(workload, passes: list) -> tuple[float, float, int]:
    """(latency, percentile, sample count) of the query tail.

    With a query stream among the parts, it is the highest percentile of one
    pass's queries with at least ten beyond it, taken over the pooled passes
    (ten beyond per pass), so the percentile does not move with the number of
    passes.  Without one, the operations are a few long commands, and it is
    the slowest operation of a pass, median over passes.
    """
    streams = [part.name for part in workload.parts if part.stream]
    if not streams:
        slowest = [max(t for ts in p.values() for t in ts) for p in passes]
        return statistics.median(slowest), 100.0, sum(map(len, passes[0].values()))
    pooled = sorted(t for p in passes for t in p[streams[0]])
    k = len(pooled) - 10 * len(passes)
    return pooled[k - 1], 100.0 * k / len(pooled), len(pooled)


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Run:
    """Counts and samples of one benchmark run."""

    def __init__(self, workload, seed: int, seconds: float):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.n_ops = len(self.workload.ops(seed))
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.pass_s: list[float] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def more(self, passes: int) -> bool:
        longest = max(self.pass_s, default=0.0)
        if self.elapsed() + longest > LAST_START_S:
            return False
        return self.elapsed() < self.seconds or passes < MIN_PASSES

    def spawn(self, mode: str, trace_file=None) -> Outcome:
        began = time.perf_counter()
        outcome = spawn(self.workload.name, self.seed, mode,
                        self.start + HARD_LIMIT_S, trace_file)
        if mode != "probe":
            self.pass_s.append(time.perf_counter() - began)
            self.attempted += self.n_ops
            if outcome.result is None:
                self.failed += self.n_ops
            else:
                self.failed += len(outcome.result["failures"])
                self.errors += outcome.result["failures"]
        if outcome.error is not None:
            self.errors.append(outcome.error)
        return outcome

    def probe(self, setups: list) -> None:
        for _ in range(self.workload.setup_probes):
            outcome = self.spawn("probe")
            if outcome.setup_s is not None:
                setups.append(outcome.setup_s)

    def report(self, metrics: dict, lines: list) -> None:
        for line in lines:
            print(line)
        for err in self.errors[:20]:
            print("FAILED", err, file=sys.stderr)
        print(json.dumps({
            "correct": self.failed == 0 and not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }))


def measure(run: Run) -> None:
    """--trace 0: end-to-end metrics with tracing off."""
    run.spawn("probe")  # warm-up: compiles bytecode, fills the file cache
    run.errors.clear()
    setups, solves, rss, latencies, parts = [], [], [], [], []
    passes = 0
    while run.more(passes):
        run.probe(setups)
        outcome = run.spawn("pass")
        passes += 1
        if outcome.setup_s is not None:
            setups.append(outcome.setup_s)
        if outcome.result is not None:
            solves.append(outcome.result["solve_s"])
            rss.append(outcome.result["peak_rss_mb"])
            latencies.append(outcome.result["latencies"])
            parts.append(outcome.result["part_s"])
    run.probe(setups)
    if not solves or not setups:
        print("no pass completed:", *run.errors[:5], file=sys.stderr)
        sys.exit(1)
    tail_s, pct, samples = tail(run.workload, latencies)
    metrics = {
        "solve_s": {"value": statistics.median(solves), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        "query_tail_s": {"value": tail_s, "unit": "s"},
    }
    lines = [
        f"workload {run.workload.name} seed {run.seed}: {passes} passes of "
        f"{run.n_ops} operations, {len(setups)} cold set-ups, {run.elapsed():.1f} s",
        f"solve_s      {metrics['solve_s']['value']:.4f} s   median of {len(solves)} "
        f"passes, IQR/median {spread(solves):.3f}",
        f"setup_s      {metrics['setup_s']['value']:.4f} s   median of {len(setups)} "
        f"cold set-ups (spawn to ready), IQR/median {spread(setups):.3f}",
        f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.2f} MB  median over passes",
        f"query_tail_s {tail_s:.4f} s   p{pct:.1f} of {samples} "
        + ("queries" if pct < 100 else f"operations per pass, median of {len(latencies)} passes"),
        f"failed_frac  {run.failed}/{run.attempted} operations",
    ]
    for part in run.workload.parts:
        part_s = [p[part.name] for p in parts]
        lines.append(f"part {part.name:16} {statistics.median(part_s):.4f} s   median over passes")
    run.report(metrics, lines)


def trace(run: Run) -> None:
    """--trace 1: per-layer metrics from traced passes, beside untraced ones."""
    OUT.mkdir(exist_ok=True)
    stem = f"{run.workload.name}-seed{run.seed}"
    spans_file = OUT / f"spans-{stem}.json"
    untraced, traced = [], []
    while run.more(len(traced)) or len(traced) < 2 or not untraced:
        if len(traced) <= len(untraced):
            outcome = run.spawn("traced", None if traced else spans_file)
            bucket = traced
        else:
            outcome = run.spawn("pass")
            bucket = untraced
        if outcome.result is None:
            break
        bucket.append(outcome.result)
    if len(traced) < 2 or not untraced:
        print("no traced pass completed:", *run.errors[:5], file=sys.stderr)
        sys.exit(1)

    overhead = (statistics.median(r["solve_s"] for r in traced)
                - statistics.median(r["solve_s"] for r in untraced))
    layers = {}
    for name in TIME_METRICS:
        layers[name] = statistics.median(r["layers"][name] for r in traced)
    counts = list(CALL_METRICS) + list(OTHER_COUNTS)
    for name in counts:
        layers[name] = traced[0]["layers"][name]
    repeat = all(r["layers"][c] == traced[0]["layers"][c] for r in traced for c in counts)
    if not repeat:
        run.errors.append("per-layer counts differ between traced passes")
    layers["trace.overhead_s"] = overhead

    first = traced[0]
    shares = {}
    for part, spans in first["part_spans"].items():
        incl, self_t = spans["inclusive_s"], spans["self_s"]
        part_s = first["part_s"][part]
        shares[part] = {
            "verification": incl.get("table.verify_theory", 0.0) / part_s,
            "orbit_and_dual_bfs": (self_t.get("orbits.enumerate_superclasses", 0.0)
                                   + self_t.get("dual.enumerate_dual_orbits", 0.0)) / part_s,
        }
    summary = {
        "workload": run.workload.name,
        "seed": run.seed,
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "traced_solve_s": [r["solve_s"] for r in traced],
        "untraced_solve_s": [r["solve_s"] for r in untraced],
        "overhead_s": overhead,
        "counts_repeat": repeat,
        "shares_of_traced_part": shares,
        "layers": layers,
        "spans_of_first_traced_pass": first["spans"],
        "spans_of_first_traced_pass_by_part": first["part_spans"],
        "spans_file": spans_file.name,
        "note": NOTE,
    }
    with open(OUT / f"trace-{stem}.json", "w") as fh:
        json.dump(summary, fh, indent=1)

    lines = [
        f"workload {run.workload.name} seed {run.seed}: {len(traced)} traced and "
        f"{len(untraced)} untraced passes, {run.elapsed():.1f} s",
        f"tracing overhead {overhead:.4f} s on an untraced solve of "
        f"{statistics.median(r['solve_s'] for r in untraced):.4f} s",
        *(f"part {part:16} verification share {sh['verification']:.3f}, orbit+dual "
          f"BFS share {sh['orbit_and_dual_bfs']:.3f} of the traced part"
          for part, sh in shares.items()),
        f"note: {NOTE}",
        f"spans and self times: {OUT.name}/trace-{stem}.json",
    ]
    metrics = {}
    for name, value in layers.items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = {"value": value, "unit": unit}
        shown = f"{value:.6g}" if unit == "s" else str(value)
        lines.append(f"{name:28} {shown} {unit}")
    run.report(metrics, lines)


def pin() -> None:
    """Record stdout sha256 and exit code of every operation, as the program
    gives them now, into expected.json."""
    pinned = {}
    for name in WORKLOADS:
        outcome = spawn(name, DEFAULT_SEED, "pin", time.perf_counter() + 600)
        if outcome.result is None or outcome.result["failures"]:
            sys.exit(f"{name}: {outcome.error or outcome.result['failures'][:5]}")
        pinned.update(outcome.result["pinned"])
    with open(EXPECTED_PATH, "w") as fh:
        json.dump({"default_seed": DEFAULT_SEED, "ops": pinned}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pinned)} outputs in {EXPECTED_PATH.name}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", action="store_true", help="re-pin expected.json")
    args = parser.parse_args()
    if not (SRC / "superchar" / "__init__.py").is_file():
        sys.exit(f"no program to measure: {SRC / 'superchar'} is missing")
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    run = Run(args.workload, args.seed, args.seconds)
    (trace if args.trace else measure)(run)


if __name__ == "__main__":
    main()
