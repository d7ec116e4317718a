"""Benchmark of hopfsurf: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wos_closed_form --seed 1 \\
        --seconds 30 --trace 0

--workload is one of wos_closed_form, wos_translated, shell_geometry
(README.md says why each exists).  --seed generates the inputs.  With
--trace 0 the run repeats plain passes over the workload's job list for
about --seconds seconds and reports the end-to-end metrics; with --trace 1
it alternates plain and traced passes and reports the per-layer metrics.
Every output is checked after its pass.  On shell_geometry the pass times
are scaled to the reference machine's speed by a reference loop run
between the jobs (reference.py); the record keeps the wall times as well.

Standard output carries a readable report, one JSON line with the full
record (environment, samples, failures), and as its last line one JSON
object with the keys correct, attempted, failed and metrics.  Exit status:
0 when every check passed, 1 when a check failed, 2 when the program
cannot be found or run.
"""

import os

# One BLAS/OpenMP thread, pinned before numpy is imported anywhere, so the
# figures measure the program and not the thread scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("wos_closed_form", "wos_translated", "shell_geometry")
SETUP_CHILDREN = 4        # extra set-up samples, each in a fresh process
REFERENCE_SHARE = 0.05    # reference loop time after a job, per job second
SETUP_GAUGE_S = 0.05      # reference loop time after each set-up sample
MIN_PLAIN_PASSES = 3      # so a per-job median can outvote one slow spell
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The program is missing, cannot be loaded, or fails to warm up."""


def load(workload: str, seed: int):
    """Import the program, derive invariants, build the inputs, warm up.

    Returns (jobs, seconds taken, the reference loop's median time just
    after); the two times make one set-up sample.
    """
    t0 = time.perf_counter()
    if not (SRC / "hopfsurf" / "__init__.py").is_file():
        raise BenchError(f"no hopfsurf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hopfsurf
    found = Path(hopfsurf.__file__).resolve().parent
    if found != (SRC / "hopfsurf").resolve():
        raise BenchError(f"imported hopfsurf from {found}, not from {SRC}")
    import tracing
    import workloads
    build = workloads.WORKLOADS[workload]
    for job in build(seed, tracing.Plain(), small=True):
        try:
            job.run()
        except Exception as exc:
            raise BenchError(f"warm-up of {job.name} raised: "
                             f"{traceback.format_exc()}") from exc
    jobs = build(seed, tracing.Plain())
    setup_s = time.perf_counter() - t0
    from reference import gauge
    return jobs, setup_s, _median(gauge(SETUP_GAUGE_S))


# ---------------------------------------------------------------------------
# passes


class PassResult:
    """One pass: per-job time and work, failures, checks, output digest.

    With `gauged`, the reference loop runs before the first job and after
    every job, for REFERENCE_SHARE of the job's time and at least once;
    reference_s holds its times.  pass_s sums the jobs' wall times; wall_s
    is the whole pass with the loops.
    """

    def __init__(self, jobs, traced: bool, gauged: bool):
        from reference import gauge
        from workloads import Out, Verdicts   # imported by load(), timed there
        self.traced = traced
        self.tally = None
        self.errors = []
        timed = []
        start = time.perf_counter()
        self.reference_s = gauge(0.0) if gauged else []
        for job in jobs:
            t0 = time.perf_counter()
            try:
                out = job.run()
            except Exception:  # a crashed job fails the run below
                out = None
                self.errors.append(f"{job.name}: {traceback.format_exc()}")
            dt = time.perf_counter() - t0
            if gauged:
                self.reference_s += gauge(REFERENCE_SHARE * dt)
            timed.append((job, out, dt))
        self.wall_s = time.perf_counter() - start
        self.pass_s = sum(t[2] for t in timed)

        verdicts = Verdicts()
        digest = hashlib.sha256()
        self.jobs = {}   # name -> (seconds, Out)
        for job, out, dt in timed:
            if out is None:
                out = Out([], ops=1, failed=1)
                verdicts(False, f"{job.name}: raised, output not checked")
            else:
                job.check(out, verdicts)
            digest.update(job.name.encode())
            digest.update(repr(out.outputs).encode())
            out.outputs = None   # checked and digested; keep memory flat
            self.jobs[job.name] = (dt, out)
        self.attempted = sum(o.ops for _, o in self.jobs.values())
        self.failed = sum(o.failed for _, o in self.jobs.values())
        self.checked = verdicts.checked
        self.wrong = verdicts.wrong
        self.digest = digest.hexdigest()


def typical(passes, scale: float) -> dict:
    """Figures of a typical pass: each job's median over the passes.

    On a machine shared with other tenants the speed of a fixed loop can
    drop by a third for seconds at a time.  Taking each job's median
    before summing keeps such a spell inside one job's samples instead of
    letting it move the whole pass; the record keeps every sample.  Times
    are multiplied by `scale` (see run_scale).
    """
    names = list(passes[0].jobs)

    def med(name, field=None):
        samples = []
        for p in passes:
            dt, out = p.jobs[name]
            x = getattr(out, field) if field else dt
            samples.append(x * scale)
        return _median(samples)

    job_s = {n: med(n) for n in names}
    first = passes[0].jobs
    walks = sum(first[n][1].walks for n in names)
    points = sum(first[n][1].points for n in names)
    wos_s = sum(med(n, "wos_s") for n in names)
    points_s = sum(job_s[n] for n in names if first[n][1].points)
    return {
        "pass_s": sum(job_s.values()),
        "job_s": job_s,
        "walks": walks,
        "points": points,
        "walks_per_s": walks / wos_s if walks else None,
        "points_per_s": points / points_s if points else None,
        "time_to_1e-2_s": (sum(med(n, "wos_cost") for n in names)
                           if walks else None),
    }


def run_scale(passes) -> float:
    """The factor that takes this run's times to the reference machine.

    REFERENCE_S over the median of every time of the loop in the run.
    One run of the loop samples a moment, and the loop's speed swings more
    from moment to moment than a job's, so the median over the whole run
    is taken: it follows the slow phases, which
    last minutes and which no median inside a run can absorb, while the
    per-job medians absorb the short spells.
    """
    from reference import REFERENCE_S
    return REFERENCE_S / _median([r for p in passes for r in p.reference_s])


def measure(jobs, seconds: float, gauged: bool, traced_jobs=None,
            tracer=None):
    """Run passes for about `seconds`: plain only, or plain and traced.

    A pass starts only while the run can still finish it within the time,
    judged by the slowest pass so far, but the minimum always runs:
    MIN_PLAIN_PASSES plain passes, or one plain and two traced ones.
    """
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    longest = 0.0
    while True:
        if tracer is None:
            due_traced = False
            done = len(plain) >= MIN_PLAIN_PASSES
        else:
            due_traced = bool(plain) and len(traced) < 2 * len(plain)
            done = len(plain) >= 1 and len(traced) >= 2
        if done and time.perf_counter() + longest > deadline:
            break
        if due_traced:
            tracer.reset()
            res = PassResult(traced_jobs, traced=True, gauged=gauged)
            res.tally = tracer.reset()
            traced.append(res)
        else:
            res = PassResult(jobs, traced=False, gauged=gauged)
            plain.append(res)
        longest = max(longest, res.wall_s)
    return plain, traced


def setup_samples(args, first: tuple) -> list:
    """The in-process set-up sample plus SETUP_CHILDREN fresh-process ones.

    A sample is (set-up seconds, reference loop seconds just after).
    """
    samples = [first]
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
        got = json.loads(proc.stdout.splitlines()[-1])
        samples.append((got["setup_s"], got["reference_s"]))
    return samples


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0   # ru_maxrss is in KiB on Linux


def consistency(plain, traced) -> tuple:
    """Cross-pass checks: the same outputs in every pass, plain or traced,
    and the same exact counts in every traced pass.  Returns (n, failures).
    """
    problems = []
    if len({p.digest for p in plain + traced}) != 1:
        kinds = [("traced" if p.traced else "plain", p.digest[:12])
                 for p in plain + traced]
        problems.append(f"outputs differ between passes: {kinds}")
    if not traced:
        return 1, problems
    counts = [{k: v for k, v in p.tally.counts.items() if v} for p in traced]
    diff = sorted({k for c in counts[1:] for k in set(c) | set(counts[0])
                   if c.get(k) != counts[0].get(k)})
    if diff:
        problems.append(f"exact counts differ between traced passes: {diff}")
    return 2, problems


# ---------------------------------------------------------------------------
# environment


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    env = {
        "seed": seed,
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(SRC),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        env["blas"] = None
    return env


def _git_sha():
    if not (ROOT / ".git").exists():
        return None   # an exported checkout; src_sha256 identifies the code
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


# ---------------------------------------------------------------------------
# reporting


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used by the runner)")
    args = ap.parse_args(argv)

    try:
        jobs, setup_s, reference_s = load(args.workload, args.seed)
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "reference_s": reference_s}))
        return 0

    import metrics
    import tracing
    import workloads
    from reference import REFERENCE_S
    gauged = args.workload in workloads.SCALED
    if args.trace:
        tracer = tracing.Traced()
        traced_jobs = [
            workloads.Job(j.name, tracer.fn("job." + j.name, j.run), j.check)
            for j in workloads.WORKLOADS[args.workload](args.seed, tracer)]
        setup_tally = tracer.reset()
        plain, traced = measure(jobs, args.seconds, gauged, traced_jobs,
                                tracer)
    else:
        plain, traced = measure(jobs, args.seconds, gauged)
    rss = peak_rss_mb()
    try:
        setup = ([] if args.trace else
                 setup_samples(args, (setup_s, reference_s)))
    except (BenchError, OSError, subprocess.TimeoutExpired, ValueError,
            KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = plain + traced
    n_consistency, problems = consistency(plain, traced)
    wrong = [w for p in passes for w in p.wrong] + problems
    errors = [e for p in passes for e in p.errors]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    checked = sum(p.checked for p in passes) + n_consistency
    correct = not wrong and not errors
    scale = run_scale(passes) if gauged else 1.0
    fig = typical(plain, scale)
    wall = typical(plain, 1.0)

    if args.trace:
        rows = [metrics.per_layer(p.tally, setup_tally, p.pass_s)
                for p in traced]
        values = {k: _median([r[k] for r in rows]) for k in rows[0]}
        values["trace.overhead_frac"] = (
            typical(traced, scale)["pass_s"] / fig["pass_s"] - 1.0)
        units = {k: u for k, (u, _) in metrics.PER_LAYER.items()}
    else:
        values = {
            # set-up is interpreted work (imports) on every workload, so
            # each sample is scaled by the loop timed just after it
            "setup_s": _median([s * REFERENCE_S / r for s, r in setup]),
            "pass_s": fig["pass_s"],
            "work_per_s": fig["walks_per_s"] or fig["points_per_s"],
            "peak_rss_mb": rss,
        }
        units = {k: u for k, (u, _) in metrics.END_TO_END.items()}

    workload_metrics = {k: fig[k] for k in
                        ("walks_per_s", "points_per_s", "time_to_1e-2_s")
                        if fig[k] is not None}
    workload_metrics.update({f"wall_{k}": wall[k] for k in
                             ("pass_s", "walks_per_s", "points_per_s")
                             if wall[k] is not None})
    workload_metrics["fail_frac"] = failed / attempted
    workload_metrics["wrong_frac"] = len(wrong) / checked
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "scale": scale,
        "samples": {
            "setup_s": [s for s, _ in setup],
            "setup_reference_s": [r for _, r in setup],
            "pass_s": [p.pass_s for p in plain],
            "reference_runs": [len(p.reference_s) for p in passes],
            "traced_pass_s": [p.pass_s for p in traced],
            "job_s": {n: [p.jobs[n][0] for p in plain] for n in fig["job_s"]},
        },
        "job_s": fig["job_s"],
        "wall_job_s": wall["job_s"],
        "work_per_pass": {"walks": fig["walks"], "points": fig["points"],
                          "ops": plain[0].attempted},
        "output_digest": plain[0].digest,
        "workload_metrics": workload_metrics,
        "attempted": attempted,
        "failed": failed,
        "checked": checked,
        "wrong": wrong,
        "errors": errors,
    }
    if traced:
        record["exact_counts"] = {k: v for k, v in
                                  sorted(traced[0].tally.counts.items()) if v}

    print(f"hopfsurf benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  passes={len(plain)}+{len(traced)} traced")
    for name, value in values.items():
        print(f"  {name:<48} {value:>16.6g} {units[name]}")
    for name, value in workload_metrics.items():
        print(f"  {name:<48} {value:>16.6g}")
    for line in (wrong + errors)[:40]:
        print(f"  FAILED CHECK: {line}")
    print(json.dumps(record, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
