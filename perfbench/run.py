"""The upsilonkit benchmark.

    python3 perfbench/run.py --workload sums|session|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run repeats whole rounds of the seeded
workload for about S seconds (at least three rounds), each round in fresh
processes started with `sys.executable`.  Every measured time is taken to the
reference speed of `calibrate.py`, by probes of fixed work timed around it:
the machine drifts between fast and slow phases that can outlast a run, and
the probes drift with it.  An operation's time is the median over the rounds
of its time at the reference speed.  The last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
op_p50_s, peak_rss_mb); with --trace 1 they are the per-layer ones of
`layertrace.METRICS`, per round (the median over rounds).  Per-operation
times go to .perfbench-out/result-<workload>-<seed>.json and traced spans to
.perfbench-out/trace-<workload>-<seed>.json.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_ROUNDS = 3
MAX_ROUNDS = 60

UNITS = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _unit(metric: str) -> str:
    return {"calls": "count", "bits": "bits", "s": "s"}[metric.rsplit(".", 1)[1]]


def _spawn(argv, env, cwd, stdout, stderr=None):
    """Start a child; returns (Popen, start time)."""
    start = time.perf_counter()
    return subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=cwd), start


def _reap(proc) -> tuple[float, float]:
    """Wait for the child; returns (end time, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return end, usage.ru_maxrss / 1024


def worker_round(ctx, workload: str, rnd: int, extra=()) -> dict:
    """One worker process: its setup time, its result and its peak RSS."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(ctx.seed), "--round", str(rnd), "--trace", str(ctx.trace), *extra]
    before = calibrate.SPAWN.measure()
    proc, start = _spawn(argv, ctx.env, ctx.root, subprocess.PIPE)
    with proc.stdout:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
    _, rss = _reap(proc)
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode} in round {rnd}")
    result = json.loads(rest.decode().strip().splitlines()[-1])
    # Phases last seconds, so the probe just before set-up stands for both sides.
    result.update(setup=calibrate.SPAWN.at_reference(setup, before, before),
                  setup_raw=setup, setup_probe=before, rss=rss)
    return result


def cli_round(ctx, rnd: int, commands) -> dict:
    """Write the round's files in a fresh worker, then run each command as its own
    process, the way a user runs `upsilonkit`."""
    rdir = os.path.join(ctx.out, f"cli-{ctx.seed}-{rnd}")
    shutil.rmtree(rdir, ignore_errors=True)
    os.makedirs(rdir)
    files = worker_round(ctx, "cli-files", rnd, ("--dir", rdir))
    timer = calibrate.Timer(calibrate.SPAWN)
    values, failed, rss, traces = [], [], 0.0, []
    for i, cmd in enumerate(commands):
        if ctx.trace:
            trace_file = os.path.join(rdir, f"trace-{i}.json")
            argv = [sys.executable, os.path.join(HERE, "cli_traced.py"), trace_file, *cmd["argv"]]
        else:
            argv = [sys.executable, "-m", "upsilonkit", *cmd["argv"]]
        out_path, err_path = os.path.join(rdir, "out"), os.path.join(rdir, "err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc, start = _spawn(argv, ctx.env, rdir, out, err)
            end, peak = _reap(proc)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        timer.add(end - start)
        rss = max(rss, peak)
        failed.append(proc.returncode != 0)
        values.append([proc.returncode, stdout, stderr])
        if ctx.trace:
            with open(trace_file) as fh:
                traces.append({"argv": cmd["argv"], **json.load(fh)})
    timer.finish()
    shutil.rmtree(rdir)
    problems = []
    if rnd == 0:
        problems = cli_problems(commands, values, failed)
    trace = None
    if ctx.trace:
        metrics = {m: sum(t["metrics"][m] for t in traces) for m in traces[0]["metrics"]}
        trace = {"metrics": metrics, "commands": traces}
    return {"times": timer.times, "raw": timer.raw, "probes": timer.probes, "values": values,
            "failed": failed, "problems": problems, "trace": trace, "setup": files["setup"],
            "setup_raw": files["setup_raw"], "setup_probe": files["setup_probe"], "rss": rss}


def cli_problems(commands, values, failed) -> list[str]:
    import workloads
    problems = []
    for cmd, (code, stdout, stderr), bad in zip(commands, values, failed):
        if bad:
            if cmd["check"]["kind"] != "collision":
                problems.append(f"{' '.join(cmd['argv'])} exited {code}: {stderr.strip()}")
            elif code != 2 or "duplicate generator names" not in stderr:
                problems.append(f"collision command failed another way: {stderr.strip()}")
            continue
        problem = workloads.check_cli(cmd, stdout)
        if problem:
            problems.append(problem)
    return problems


class Context:
    def __init__(self, args):
        self.root = os.getcwd()
        self.seed = args.seed
        self.trace = args.trace
        src = os.path.join(self.root, "src")
        if not os.path.isfile(os.path.join(src, "upsilonkit", "__init__.py")):
            raise BenchError(f"no upsilonkit package under {src}; run from a checkout's root")
        self.out = os.path.join(self.root, ".perfbench-out")
        os.makedirs(self.out, exist_ok=True)
        path = [src, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        sys.path[:0] = [src, HERE]
        # One CPU for the probes and for every process they calibrate; the
        # children inherit it.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(args) -> dict:
    ctx = Context(args)
    commands = None
    if args.workload == "cli":
        import workloads
        commands, _ = workloads.cli_round(args.seed)
    rounds = []
    started = time.perf_counter()
    while len(rounds) < MAX_ROUNDS:
        elapsed = time.perf_counter() - started
        if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) > args.seconds:
            break
        if args.workload == "cli":
            rounds.append(cli_round(ctx, len(rounds), commands))
        else:
            rounds.append(worker_round(ctx, args.workload, len(rounds)))
    return summarize(ctx, args, rounds)


def summarize(ctx, args, rounds) -> dict:
    first = rounds[0]
    n_ops = len(first["times"])
    problems = list(first["problems"])
    for i, r in enumerate(rounds[1:], start=1):
        if r["values"] != first["values"] or r["failed"] != first["failed"]:
            problems.append(f"round {i} gave other values than round 0")
    done = [i for i in range(n_ops) if not first["failed"][i]]
    typical = [statistics.median(r["times"][i] for r in rounds) for i in done]
    failed = sum(sum(r["failed"]) for r in rounds)
    result = {"correct": not problems, "attempted": n_ops * len(rounds), "failed": failed}
    summary = {
        "setup_s": statistics.median(r["setup"] for r in rounds),
        "ops_per_s": len(typical) / sum(typical),
        "op_p50_s": statistics.median(typical),
        "peak_rss_mb": max(r["rss"] for r in rounds),
    }
    record = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
              "problems": problems, "summary": summary,
              "times": [r["times"] for r in rounds], "raw": [r["raw"] for r in rounds],
              "probes": [r["probes"] for r in rounds], "setup": [r["setup"] for r in rounds],
              "setup_raw": [r["setup_raw"] for r in rounds],
              "setup_probes": [r["setup_probe"] for r in rounds]}
    name = f"{args.workload}-{args.seed}.json"
    if args.trace:
        import layertrace
        metrics = {m: statistics.median(r["trace"]["metrics"][m] for r in rounds)
                   for m in layertrace.METRICS}
        result["metrics"] = {m: {"value": v, "unit": _unit(m)} for m, v in metrics.items()}
        record["traces"] = [r["trace"] for r in rounds]
        path = os.path.join(ctx.out, "trace-" + name)
    else:
        result["metrics"] = {m: {"value": v, "unit": UNITS[m]} for m, v in summary.items()}
        path = os.path.join(ctx.out, "result-" + name)
    with open(path, "w") as fh:
        json.dump(record, fh)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sums", "session", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
