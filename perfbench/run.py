"""Benchmark for ontofuse: seeded workloads timed end to end, or traced by layer.

Run one workload for a given time and print its metrics, the last line
of standard output being one JSON object:

    python3 perfbench/run.py --workload integrate --seed 1 --seconds 20 --trace 0

``--trace 1`` prints the per-layer metrics of a traced run instead.
``--repeat K`` runs the workload K times, each with a fresh set of
processes and seeds seed, seed+1, ..., and prints each metric's median
and quartiles.  See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A timed run is split over this many fresh processes, the k-th with
# PYTHONHASHSEED=k.  The library iterates some sets of strings and stops
# early, so its cost depends on the hash seed: one process measures one
# iteration order, five fixed ones average over orders and repeat.
PROCESSES = 5
WARMUP_JOBS = 2  # the first slots of a round, run before timing
TRACE_HASH_SEED = "0"  # counts repeat exactly only with a fixed order


def import_library():
    """Import ontofuse from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ontofuse" / "__init__.py").is_file():
        raise SystemExit(f"error: no ontofuse sources under {src}")
    sys.path.insert(0, str(src))
    import ontofuse
    if Path(ontofuse.__file__).resolve().parent != (src / "ontofuse").resolve():
        raise SystemExit(f"error: imported ontofuse from {ontofuse.__file__}, not {src}")
    return ontofuse


# Job and set-up times are the process's CPU time.  The jobs run on one
# thread and never wait on I/O, so on a dedicated machine this is their
# wall time; on a shared VM it leaves out the time the hypervisor takes
# the CPU away, which made single rounds up to 15% slower in wall time.
clock = time.process_time


def run_job(job, case):
    gc.collect()  # each job starts from a collected heap, as a fresh command would
    t0 = clock()
    out = job(case)
    return out, clock() - t0


class Outcome:
    """Jobs attempted and failed, and the wrong outputs found.

    With ``check``, the first output of every slot is checked against the
    generator's answer.  Every output's digest must equal the slot's first.
    """

    def __init__(self, workload, check=True):
        self.workload = workload
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # problems with outputs of jobs that did not fail
        self.digests = {}  # slot -> digest of its first output

    def record(self, slot, case, out, error):
        import workloads
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"failed: slot {slot}: {type(error).__name__}: {error}", file=sys.stderr)
            return
        d = hashlib.sha256(repr(workloads.digest(self.workload, out)).encode()).hexdigest()
        if slot not in self.digests:
            self.digests[slot] = d
            if self.check:
                self.wrong += [f"slot {slot}: {p}"
                               for p in workloads.check_first(self.workload, case, out)]
        elif self.digests[slot] != d:
            self.wrong.append(f"slot {slot}: output differs from the first round")


def run_round(job, cases, outcome, times=None):
    """One job per case, in order; a job that raises counts as failed."""
    for slot, case in enumerate(cases):
        try:
            out, dt = run_job(job, case)
        except Exception as e:  # a failing job is counted, the run goes on
            outcome.record(slot, case, None, e)
            continue
        if times is not None:
            times.append(dt)
        outcome.record(slot, case, out, None)
        del out


def set_up(workload, seed):
    """Import the library, make the inputs and run the warm-up jobs.

    Returns the cases, the job and the set-up time, which counts the
    import and the warm-up but not making the inputs."""
    import gen
    t0 = clock()
    import_library()
    import workloads
    t_import = clock() - t0
    cases = gen.make_round(workload, seed)
    job = workloads.JOBS[workload]
    t0 = clock()
    for case in cases[:WARMUP_JOBS]:
        job(case)
    return cases, job, t_import + clock() - t0


def timed_process(workload, seed, seconds, check, rounds=None):
    """One process of a timed run: set up, then time whole rounds.

    Without ``rounds``, runs as many rounds as fit ``seconds`` best, at
    least one, judged by the first round's time."""
    cases, job, setup_s = set_up(workload, seed)
    outcome = Outcome(workload, check)
    times = []
    run_round(job, cases, outcome, times)
    if rounds is None:
        rounds = max(1, round(seconds / sum(times)))
    for _ in range(rounds - 1):
        run_round(job, cases, outcome, times)
    return {"setup_s": setup_s, "times": times, "rounds": rounds,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "wrong": outcome.wrong, "digests": outcome.digests,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(workload, seed, seconds):
    """PROCESSES fresh processes in turn, pooled.  The first fits its
    rounds to seconds/PROCESSES; the others run as many rounds, so that
    every hash seed weighs the same."""
    parts = []
    for k in range(PROCESSES):
        env = dict(os.environ, PYTHONHASHSEED=str(k + 1))
        cmd = [sys.executable, str(Path(__file__).resolve()), "--process", str(k),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds / PROCESSES)]
        if parts:
            cmd += ["--rounds", str(parts[0]["rounds"])]
        p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
        sys.stderr.write(p.stderr)
        if p.returncode != 0:
            raise SystemExit(f"error: timed process {k} exited with {p.returncode}")
        parts.append(json.loads(p.stdout.strip().splitlines()[-1]))
    times = [t for part in parts for t in part["times"]]
    wrong = [w for part in parts for w in part["wrong"]]
    for slot, d in parts[0]["digests"].items():
        if any(part["digests"].get(slot, d) != d for part in parts):
            wrong.append(f"slot {slot}: output differs between processes")
    for w in wrong[:20]:
        print(f"wrong: {w}", file=sys.stderr)
    s = sorted(times)
    p90 = s[int(0.9 * len(s))]
    print(f"{workload}: {len(times)} jobs in {PROCESSES} processes, "
          f"p50 {statistics.median(times) * 1e3:.1f} ms, p90 {p90 * 1e3:.1f} ms "
          f"({sum(t > p90 for t in times)} samples above p90)", file=sys.stderr)
    return {"correct": not wrong,
            "attempted": sum(part["attempted"] for part in parts),
            "failed": sum(part["failed"] for part in parts),
            "metrics": {
                "job_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
                "jobs_per_s": metric(len(times) / sum(times), "1/s"),
                "peak_rss_mb": metric(max(part["rss_kb"] for part in parts) / 1024, "MB"),
                "setup_s": metric(statistics.median(part["setup_s"] for part in parts), "s"),
            }}


def traced_run(workload, seed, seconds):
    """Pairs of an untraced and a traced round, which goes first taking
    turns so that a drift in machine speed cancels in the overhead; then
    one round counting hashes."""
    import layers
    cases, job, _ = set_up(workload, seed)
    tracer = layers.Tracer(sys.modules["ontofuse"])
    outcome = Outcome(workload)
    spent = {False: 0.0, True: 0.0}  # traced? -> job seconds
    rounds = 0
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            times = []
            with tracer.installed() if traced else contextlib.nullcontext():
                run_round(job, cases, outcome, times)
            spent[traced] += sum(times)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    with tracer.counting_hashes():
        run_round(job, cases, outcome)
    for w in outcome.wrong[:20]:
        print(f"wrong: {w}", file=sys.stderr)
    jobs = rounds * len(cases)
    metrics = tracer.metrics(jobs, len(cases))
    metrics["trace.overhead_ms"] = metric((spent[True] - spent[False]) / jobs * 1e3, "ms")
    return {"correct": not outcome.wrong, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def repeat(args):
    """Runs with consecutive seeds; median and quartiles of each metric."""
    runs = []
    for k in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed + k), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            raise SystemExit(f"error: run with seed {args.seed + k} exited with {p.returncode}")
        r = json.loads(p.stdout.strip().splitlines()[-1])
        runs.append(r)
        print(f"seed {args.seed + k}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} " + " ".join(
                  f"{n}={m['value']:.6g}" for n, m in r["metrics"].items()), flush=True)
    summary = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
               "seeds": [args.seed, args.seed + args.repeat - 1], "metrics": {},
               "correct": all(r["correct"] for r in runs),
               "failed": [r["failed"] for r in runs],
               "attempted": [r["attempted"] for r in runs]}
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary["metrics"][name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "values": values}
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
    out = HERE / "results" / f"repeat-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")


def main(argv=None):
    import gen
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, metavar="K",
                   help="make K runs and summarise them")
    p.add_argument("--process", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--rounds", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.repeat:
        return repeat(args)
    if args.process is not None:
        result = timed_process(args.workload, args.seed, args.seconds, args.process == 0,
                               args.rounds)
    elif args.trace and os.environ.get("PYTHONHASHSEED") != TRACE_HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=TRACE_HASH_SEED)
        return subprocess.run([sys.executable, *sys.argv], env=env, timeout=175).returncode
    elif args.trace:
        result = traced_run(args.workload, args.seed, args.seconds)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
