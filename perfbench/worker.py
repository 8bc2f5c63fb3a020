"""One round of a workload in a fresh process.

    python worker.py --workload sums|session|cli-files --seed N --round I --trace 0|1 [--dir D]

The worker sets up (imports the package, builds its inputs, warms what a user
warms once per session), prints "ready", runs the round's operations one by
one while timing each and probing the machine's speed between them
(`calibrate.py`), and prints one JSON line with the times, the probes, the
values and the problems found.  A fresh process per round means no operation
is ever answered from a cache that an earlier round filled.  `cli-files` only
writes the files of a cli round.  Output checks run after the timed
operations, and only in round 0; the parent requires later rounds to give the
same values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

import calibrate
import workloads
from upsilonkit import complexes, invariants, regions, zoo


TRACER = None  # the layertrace tracer in traced runs


def _ready():
    print("ready", flush=True)


def _tracing(on: bool):
    """Traced runs trace set-up and operations, never the output checks."""
    if TRACER:
        TRACER.enabled = on


def _run_ops(ops):
    """Time each thunk; an exception fails that operation only.  Returns the
    round's finished calibrate.Timer, the values and which operations failed."""
    timer = calibrate.Timer()
    values, failed = [], []
    for thunk in ops:
        start = time.perf_counter()
        try:
            value = thunk()
            elapsed = time.perf_counter() - start
            failed.append(False)
        except Exception as exc:  # a failing operation is counted, not fatal
            elapsed, value = 0.0, exc
            failed.append(True)
        timer.add(elapsed)
        values.append(value)
    _tracing(False)
    timer.finish()
    return timer, values, failed


def _sum_op(summands, op):
    def run():
        k = summands[0]
        for c in summands[1:]:
            k = complexes.tensor(k, c)
        if op["kind"] == "curve":
            return invariants.upsilon_function(k), invariants.breaking_points(k)
        t = Fraction(op["t"])
        return invariants.kim_livingston(k, t, t)
    return run


def sums(args):
    ops = workloads.sums_round(args.seed)
    built = [[zoo.torus_knot(p, q) if s > 0 else complexes.mirror(zoo.torus_knot(p, q))
              for s, p, q in op["parts"]] for op in ops]
    _ready()
    timer, values, failed = _run_ops([_sum_op(b, op) for b, op in zip(built, ops)])
    problems = []
    if args.round == 0:
        for op, value, bad in zip(ops, values, failed):
            if not bad:
                problem = workloads.check_sums_op(op, value)
                if problem:
                    problems.append(problem)
    shown = [repr(v) if not isinstance(v, tuple) else repr((v[0].points, v[1])) for v in values]
    return timer, shown, failed, problems


def _query(k, q):
    kind = q["kind"]
    if kind == "region":
        r = workloads.region_from_spec(q["region"])
        return lambda: invariants.upsilon_region(k, r)
    if kind == "vk":
        return lambda: invariants.vk(k, q["s"])
    if kind == "eta":
        r = workloads.region_from_spec(q["region"])
        return lambda: invariants.eta(k, r)
    delta = Fraction(q["delta"])
    plus = regions.upsilon_halfplane(1 + delta)
    minus = regions.upsilon_halfplane(1 - delta)
    c = regions.upsilon_halfplane(Fraction(q["s"]))
    return lambda: invariants.secondary(k, plus, minus, c)


def session(args):
    k = workloads.build_torus_sum(workloads.HEADLINE)
    # Warm the engine the way a session does once: one cheap public query.
    invariants.h0_surjective(k, regions.upsilon_halfplane(0), 0)
    queries = workloads.session_round(args.seed)
    thunks = [_query(k, q) for q in queries]
    _ready()
    timer, values, failed = _run_ops(thunks)
    problems = []
    if args.round == 0:
        if any(failed):
            problems.append("a session query raised")
        else:
            problems = workloads.check_session(k, queries, values, invariants.nu_plus(k))
    return timer, [repr(v) for v in values], failed, problems


def cli_files(args):
    _, files = workloads.cli_round(args.seed)
    for name, data in files.items():
        with open(os.path.join(args.dir, name), "w") as fh:
            json.dump(data, fh)
    _ready()
    return None, [], [], []


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("sums", "session", "cli-files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--dir")
    args = parser.parse_args()
    global TRACER
    if args.trace:
        import layertrace
        TRACER = layertrace.install()
    run = {"sums": sums, "session": session, "cli-files": cli_files}[args.workload]
    _tracing(True)
    timer, values, failed, problems = run(args)
    _tracing(False)
    times, raw, probes = (timer.times, timer.raw, timer.probes) if timer else ([], [], [])
    result = {"times": times, "raw": raw, "probes": probes, "values": values,
              "failed": failed, "problems": problems,
              "trace": TRACER.snapshot() if TRACER else None}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
