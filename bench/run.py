"""chebcurve benchmark: cold CLI jobs, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py ... --record .bench-records/parent.jsonl   # also keep the run
    python3 bench/run.py --compare .bench-records/parent.jsonl .bench-records/change.jsonl

Each job is one `chebcurve` CLI invocation (`chebcurve.cli.main`) in a
fresh interpreter, so no lru_cache carries over from one job to the next.
Jobs run one at a time from this process: a closed loop with one client.
The sources are byte-compiled before timing, so no job pays for it.  A run
goes through rounds, each round every job of the workload once in a seeded
order; after the first round a job starts only while its previous duration
still fits in --seconds.  A job's time is the slowest of its samples: on a
shared host the speed jumps up for a fraction of a second to seconds at a
time, by up to 2x, while the slow side is the usual state and holds
steady, so the slowest sample reads the same from run to run where the
mean and the median move with the share of fast moments.  Every sample's
output is checked; a job fails on a wrong or missing answer, an unexpected
exit code or an exception.  `attempted` counts the workload's jobs and
`failed` those with a failing sample: repeats of a job are timing samples,
so both counts depend on the seed alone, not on how many rounds fitted.

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json.
With --trace 1 untraced and traced rounds alternate (see layertrace.py
for the tracing), and the result holds the per-layer metrics, among them
the tracing overhead: traced wall_s over untraced wall_s.  The last
line of stdout is the JSON result; a per-job summary goes to stderr.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SPEC = ROOT / "BENCHMARK.json"
JOB_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

WORKLOADS = {
    "verify-sweep": workloads.verify_sweep,
    "rational-arrangements": workloads.rational_arrangements,
    "jacobian-profiles": workloads.jacobian_profiles,
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Sample:
    job: str
    traced: bool
    job_s: float
    setup_s: float | None
    rss_mb: float
    failure: tuple[str, str] | None  # ("wrong" | "missing", reason)
    layers: dict | None = None


def run_job(job: workloads.Job, path: str | None, trace: bool, env: dict) -> Sample:
    argv = [path if a == "{file}" else a for a in job.argv]
    spawned = now()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), repr(spawned), str(int(trace)), *argv],
            capture_output=True,
            text=True,
            timeout=JOB_TIMEOUT_S,
            env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        reason = f"no answer within {JOB_TIMEOUT_S} s"
        return Sample(job.name, trace, now() - spawned, None, 0.0, ("missing", reason))
    try:
        env_out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        reason = f"child exited {proc.returncode} without a report: {tail[0]}"
        return Sample(job.name, trace, now() - spawned, None, 0.0, ("missing", reason))
    if env_out["error"]:
        failure = ("missing", env_out["error"])
    else:
        text = env_out["stdout"].strip()
        try:
            report = json.loads(text) if text else None
        except ValueError:
            report = None
        failure = job.check(env_out["rc"], report)
        if failure and proc.stderr.strip():
            failure = (failure[0], f"{failure[1]}; {proc.stderr.strip().splitlines()[-1]}")
    return Sample(
        job.name,
        trace,
        env_out["job_s"],
        env_out["setup_s"],
        env_out["rss_mb"],
        failure,
        env_out.get("layers"),
    )


def run_rounds(jobs, files, seed: int, seconds: float, trace: bool) -> list[Sample]:
    """Run every job once per round, in a seeded order per round.

    Round 0 always completes.  With tracing, rounds alternate between
    untraced (even) and traced (odd), and round 1 completes too.  After
    that, jobs keep starting in round order while the job's previous
    duration still fits in `seconds`; the first one that does not fit ends
    the run.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    samples: list[Sample] = []
    last: dict[str, float] = {}
    start = now()
    rnd = 0
    while True:
        order = list(jobs)
        random.Random(f"{seed}/{rnd}").shuffle(order)
        for job in order:
            if rnd > int(trace) and now() - start + last[job.name] > seconds:
                return samples
            began = now()
            samples.append(run_job(job, files.get(job.name), trace and rnd % 2 == 1, env))
            last[job.name] = now() - began
        rnd += 1


def _per_job(samples: list[Sample]) -> dict[str, list[Sample]]:
    out: dict[str, list[Sample]] = defaultdict(list)
    for s in samples:
        out[s.job].append(s)
    return out


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    """Job times are taken per job, as the slowest of that job's samples."""
    by_job = _per_job(samples)
    job_times = [max(s.job_s for s in g) for g in by_job.values()]
    setups = [s.setup_s for s in samples if s.setup_s is not None]
    return {
        "wall_s": sum(job_times),
        "max_job_s": max(job_times),
        "ok_share": 1 - len(failed_jobs(samples)) / len(by_job),
        "peak_rss_mb": max(s.rss_mb for s in samples),
        "setup_s": statistics.median(setups) if setups else None,
    }


def failed_jobs(samples: list[Sample]) -> set[str]:
    return {s.job for s in samples if s.failure}


def per_layer(samples: list[Sample]) -> dict[str, float]:
    """Each statistic per job as the median over its traced samples, then
    summed over the jobs (the maximum, for `*_max` statistics)."""
    traced = [s for s in samples if s.traced]
    groups = [[s.layers or {} for s in g] for g in _per_job(traced).values()]
    out = {}
    for key in {key for g in groups for layers in g for key in layers}:
        per_job = [statistics.median(layers.get(key, 0) for layers in g) for g in groups]
        out[key] = max(per_job) if key.endswith("_max") else sum(per_job)
    out["trace.wall_s"] = end_to_end(traced)["wall_s"]
    untraced_wall = end_to_end([s for s in samples if not s.traced])["wall_s"]
    out["trace.overhead_ratio"] = out["trace.wall_s"] / untraced_wall
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
    }


def summarize(jobs, samples: list[Sample], out) -> None:
    by_job = _per_job(samples)
    for name, group in ((job.name, by_job[job.name]) for job in jobs if by_job[job.name]):
        times = [s.job_s for s in group if not s.traced] or [s.job_s for s in group]
        failures = [s.failure for s in group if s.failure]
        status = "ok" if not failures else f"FAILED {len(failures)}/{len(group)}: {failures[0][1]}"
        print(f"  {name:<24} n={len(group):<3} slowest {max(times):8.3f} s  {status}", file=out)


def run(args, spec: dict) -> int:
    if not (SRC / "chebcurve" / "cli.py").is_file():
        print(f"error: no chebcurve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC), quiet=1)
    jobs = WORKLOADS[args.workload](random.Random(args.seed))
    with tempfile.TemporaryDirectory(prefix=".bench-inputs-", dir=ROOT) as tmp:
        files = {}
        for job in jobs:
            if job.poly is not None:
                path = os.path.join(tmp, f"{job.name}.poly")
                with open(path, "w") as fh:
                    fh.write(job.poly + "\n")
                files[job.name] = path
        samples = run_rounds(jobs, files, args.seed, args.seconds, args.trace == 1)
    e2e = end_to_end([s for s in samples if not s.traced])
    if e2e["setup_s"] is None:
        print("error: no job reported back; nothing was measured", file=sys.stderr)
        summarize(jobs, samples, sys.stderr)
        return 1
    if args.trace:
        values, declared = per_layer(samples), spec["per_layer"]
    else:
        values, declared = e2e, spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared
    }
    result = {
        "correct": not any(s.failure and s.failure[0] == "wrong" for s in samples),
        "attempted": len(_per_job(samples)),
        "failed": len(failed_jobs(samples)),
        "metrics": metrics,
    }
    print(f"{args.workload} seed {args.seed}: {len(samples)} samples", file=sys.stderr)
    summarize(jobs, samples, sys.stderr)
    if args.record:
        entry = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine(),
            "result": result,
        }
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        with open(args.record, "a") as fh:
            fh.write(json.dumps(entry) + "\n")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# compare mode


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: dict[int, float], b: dict[int, float], higher_better: bool, bound) -> str:
    """The pair rule: B wins if it is better in at least 9 of 10 pairs (same
    seed) and the medians differ by more than A's interquartile range."""
    pairs = [(a[s], b[s]) for s in a if s in b]
    sign = 1 if higher_better else -1
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    q1, med_a, q3 = _quartiles(list(a.values()))
    med_b = statistics.median(b.values())
    gain = sign * (med_b - med_a)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return f"better ({wins}/{len(pairs)} pairs)"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > q3 - q1:
            return f"worse ({losses}/{len(pairs)} pairs)"
        return "unresolved"
    scale = abs(med_a) or 1.0
    all_better = min(sign * y for y in b.values()) > max(sign * x for x in a.values())
    if (q3 - q1) / scale > bound and not all_better:
        return "unresolved"
    if -gain / scale <= bound:
        return "no worse than bound"
    return f"worse than bound ({-gain / scale:.1%} > {bound:.0%})"


def load_records(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(path_a: str, path_b: str, spec: dict) -> int:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    runs = {}
    for label, path in (("A", path_a), ("B", path_b)):
        records = load_records(path)
        machines = {json.dumps(r["machine"], sort_keys=True) for r in records}
        print(f"{label} = {path}: {len(records)} runs on {', '.join(sorted(machines))}")
        table: dict[tuple, dict[int, float]] = defaultdict(dict)
        for r in records:
            for name, m in r["result"]["metrics"].items():
                table[(name, r["workload"])][r["seed"]] = m["value"]
        runs[label] = table
    print(f"{'metric':<52} {'workload':<22} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30}  verdict")
    for key in sorted(set(runs["A"]) & set(runs["B"])):
        name, workload = key
        m = declared.get(name)
        if m is None:
            continue
        a, b = runs["A"][key], runs["B"][key]
        cells = []
        for values in (a, b):
            q1, med, q3 = _quartiles(list(values.values()))
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        v = verdict(a, b, m["better"] == "higher", m.get("bound"))
        print(f"{name:<52} {workload:<22} {cells[0]:>30} {cells[1]:>30}  {v}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run, with machine details, to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two record files")
    args = parser.parse_args()
    try:
        with open(SPEC) as fh:
            spec = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {SPEC}: {exc}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare, spec)
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
