"""One cold process of the benchmark: set-up, then a pass over a workload.

    python3 perfbench/worker.py <workload> <seed> <mode> <set-up json> [spans file]

mode ``probe`` stops after the set-up, ``pass`` runs every operation of the
workload through ``superchar.cli.main`` and checks its output, ``traced``
does the same with spans installed, and ``pin`` records the stdout sha256
and exit code of every fixed-config operation instead of checking it.  The
set-up (fields, then labels) comes as JSON so that nothing but the program
is imported before the worker prints ``ready``; it prints one JSON line
when it ends.
"""

import json
import sys
import time


class OpTimeout(BaseException):
    """Raised inside an operation that runs past its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout


def run_op(cli, argv, limit_s):
    """(exit code or None, stdout, error text or None) of one CLI call."""
    import contextlib
    import io
    import signal

    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), None
    except OpTimeout:
        return None, out.getvalue(), f"exceeded the {limit_s:g} s limit"
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code, out.getvalue(), None
    except Exception as exc:
        return None, out.getvalue(), f"raised {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv) -> int:
    name, seed, mode, setup = argv[0], int(argv[1]), argv[2], json.loads(argv[3])
    proto = sys.stdout
    tracer = None

    import superchar
    import superchar.cli

    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    fields = {(p, m): superchar.field_construct(p, m) for p, m in setup["fields"]}
    for n, p, m, dual in setup["labels"]:
        superchar.enumerate_labels(n, fields[p, m], dual=dual)
    ready = time.perf_counter()
    print("ready", flush=True)
    if mode == "probe":
        return 0

    import re
    import resource
    import signal

    from workloads import WORKLOADS, check, load_expected, sha256

    constancy_re = re.compile(r"superclass-constancy: (\d+) member evaluations")
    workload = WORKLOADS[name]
    expected = load_expected() if mode != "pin" else None
    signal.signal(signal.SIGALRM, _on_alarm)
    latencies = {part.name: [] for part in workload.parts}
    part_s = dict.fromkeys(latencies, 0.0)
    part_spans = {}
    failures, pinned, streams = [], {}, {}
    bytes_out = constancy = 0
    for part, op in workload.ops(seed):
        first_span = len(tracer.names) if tracer else 0
        start = time.perf_counter()
        code, out, error = run_op(superchar.cli, op.argv, part.op_limit_s)
        if error is None and mode == "pin" and op.label is None:
            pinned[op.key] = {"exit": code, "sha256": sha256(out)}
        elif error is None:
            error = check(op, code, out, expected)
        latency = time.perf_counter() - start
        latencies[part.name].append(latency)
        part_s[part.name] += latency
        if tracer:
            lo = part_spans.get(part.name, (first_span,))[0]
            part_spans[part.name] = (lo, len(tracer.names))
        if error is not None:
            failures.append(f"{op.key}: {error}")
        if part.stream:
            streams.setdefault(part.name, []).append(out)
        bytes_out += len(out.encode())
        constancy += sum(int(k) for k in constancy_re.findall(out))
    solve = time.perf_counter() - ready

    for part_name, outs in streams.items():
        key = f"{part_name} seed {seed}"
        digest = sha256("".join(outs))
        if mode == "pin":
            pinned[key] = {"sha256": digest}
        elif seed == expected["default_seed"] and digest != expected["ops"][key]["sha256"]:
            failures.append(f"{key}: stream digest differs from the pinned one")

    result = {
        "solve_s": solve,
        "part_s": part_s,
        "latencies": latencies,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if mode == "pin":
        result["pinned"] = pinned
    if tracer is not None:
        tracer.counts["cli.bytes_out"] = bytes_out
        tracer.counts["table.constancy_evals"] = constancy
        self_t, incl, calls = tracer.self_times()
        result["layers"] = tracer.layer_metrics()
        result["spans"] = {"self_s": self_t, "inclusive_s": incl, "calls": calls}
        result["part_spans"] = {}
        for part_name, (lo, hi) in part_spans.items():
            self_t, incl, calls = tracer.self_times(lo, hi)
            result["part_spans"][part_name] = {"self_s": self_t, "inclusive_s": incl}
        if len(argv) > 4:
            with open(argv[4], "w") as fh:
                json.dump({"names": ["name", "start", "end", "parent"],
                           "spans": tracer.spans()}, fh)
    print(json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
