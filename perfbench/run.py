"""eulersym benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {segre,model,cli} --seed N --seconds S --trace {0,1}

Run it from the root of a source tree; the library is imported from
./src.  With --trace 0 it times whole passes of the workload's job mix
until the next pass would overrun --seconds, checks every answer, and
prints the end-to-end metrics.  With --trace 1 it runs pass 0 once
untraced and once traced, requires identical answers, and prints the
per-layer metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SETUP_PROBES = 7


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["segre", "model", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and generate pass 0, then exit (times set-up)")
    return ap.parse_args(argv)


def source_tree() -> Path:
    root = Path.cwd()
    if not (root / "src" / "eulersym" / "__init__.py").is_file():
        raise SystemExit(f"error: no eulersym source tree under {root}/src; "
                         "run from the root of a checkout")
    return root


def setup_probes(args, count) -> list[float]:
    """Wall times of fresh interpreters that import and make pass 0."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_jobs(jobs, tracer=None):
    """Time each job; return [(slot, seconds, answer, error)]."""
    out = []
    for job in jobs:
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                answer = job.run()
            else:
                with tracer.job(job.slot):
                    answer = job.run()
        except Exception:  # a crashing job is a failed job, not a crashed run
            answer, error = None, traceback.format_exc(limit=3)
        out.append((job.slot, time.perf_counter() - t0, answer, error))
    return out


def verdicts(jobs, results):
    """Check every answer (outside the timed region); return failed slots."""
    failed = []
    for job, (slot, _, answer, error) in zip(jobs, results):
        ok = False
        if error is None:
            try:
                ok = bool(job.check(answer))
            except Exception:
                error = traceback.format_exc(limit=3)
        if not ok:
            failed.append(slot)
            print(f"FAILED {slot}: {job.key[:200]}", file=sys.stderr)
            if error:
                print(error, file=sys.stderr)
    return failed


def metadata(root):
    sha = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():  # informational only; a checkout may carry no git data
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).is_file():
            sha = (root / ".git" / ref[5:]).read_text().strip()
    src = sorted((root / "src" / "eulersym").glob("*.py"))
    loc = {p.stem: len(p.read_text().splitlines()) for p in src}
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "source_lines": loc}


def timed_run(W, run, args):
    """Whole passes until the next one would overrun the time budget."""
    times, failed, pass_walls = [], [], []
    deadline = time.perf_counter() + args.seconds
    p = 0
    while True:
        jobs = W.WORKLOADS[args.workload](run, p)
        results = run_jobs(jobs)
        failed += verdicts(jobs, results)
        times += [dt for _, dt, _, _ in results]
        pass_walls.append(sum(dt for _, dt, _, _ in results))
        p += 1
        if (len(times) >= W.MIN_JOBS
                and time.perf_counter() + statistics.median(pass_walls) > deadline):
            break
    return times, failed, p


def end_to_end(setup_s, times, passes, failed):
    deciles = statistics.quantiles(times, n=10)
    p90 = deciles[8]
    return {
        "setup_s": (setup_s, "s"),
        # one pass of the mix: the mean over the run's passes, which varied
        # less from run to run than a median over its few passes
        "wall_s": (sum(times) / passes, "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "job_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {
        "fail_ratio": (len(failed) / len(times), "ratio"),
        "job_p90_samples_beyond": (sum(t > p90 for t in times), "count"),
        "jobs_timed": (len(times), "count"),
    }


def traced_run(W, run, args, work):
    import eulersym
    from tracer import Tracer

    jobs = W.WORKLOADS[args.workload](run, 0)
    plain = run_jobs(jobs)
    failed = verdicts(jobs, plain)
    tracer = Tracer()
    tracer.install(eulersym)
    run.keys.clear()
    traced_jobs = W.WORKLOADS[args.workload](run, 0)
    traced = run_jobs(traced_jobs, tracer)
    failed += verdicts(traced_jobs, traced)
    same = [W.summarize(a[2]) for a in plain] == [W.summarize(b[2]) for b in traced]
    if not same:
        print("traced answers differ from untraced answers", file=sys.stderr)
    overhead = sum(r[1] for r in traced) / sum(r[1] for r in plain)
    path = work.parent / f"trace-{args.workload}-{args.seed}.json"
    tracer.dump(path)
    return tracer.metrics(overhead), len(jobs) * 2, failed, same


def main(argv=None) -> int:
    args = parse_args(argv)
    root = source_tree()
    sys.path.insert(0, str(root / "src"))
    import workloads as W

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = W.Run(root, args.seed, work)
        if args.setup_probe:
            W.WORKLOADS[args.workload](run, 0)
            return 0
        if args.trace:
            metrics, attempted, failed, same = traced_run(W, run, args, work)
            correct = same and not failed
        else:
            # probes before and after the timed passes see more of the host's drift
            probes = setup_probes(args, SETUP_PROBES - SETUP_PROBES // 2)
            times, failed, passes = timed_run(W, run, args)
            probes += setup_probes(args, SETUP_PROBES // 2)
            gated, extra = end_to_end(statistics.median(probes), times, passes, failed)
            attempted, correct = len(times), not failed
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}
            print(f"workload {args.workload}  seed {args.seed}  passes {passes}")
            for k, (v, u) in {**gated, **extra}.items():
                print(f"  {k:24} {v:12.6g} {u}")
        print("meta " + json.dumps(metadata(root)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
