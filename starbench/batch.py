"""certify-n9 and optimize-n9: starlay_cli jobs, run as users run them."""

import time

from expected import STAR, area_ratio
from harness import median, percentile, run_job

JOB_DEADLINE_S = 60   # a clean n = 9 job takes 2-12 s
SETUP_REPEATS = 3     # warm-up rounds at n - 1; setup_s is their median


def cli_argv(ctx, n, mode, passes=""):
    argv = [ctx.binary("starlay_cli"), "--family", "star", "--n", str(n), "--mode", mode,
            "--threads", str(ctx.threads)]
    if mode == "sharded":
        argv += ["--workers", str(ctx.workers), "--spill-dir", "spill"]
    if passes:
        argv += ["--passes", passes]
    return argv


def check_cli(job, want, label):
    """Problems with one starlay_cli job: exit status, verdict, and every
    reported value in want."""
    if job.timed_out:
        return [f"{label}: killed after its {JOB_DEADLINE_S} s deadline"]
    if job.rc != 0:
        return [f"{label}: exit {job.rc}: {job.stderr.strip()[-300:]}"]
    kv = job.kv()
    problems = [] if kv.get("verdict") == "clean" else [f"{label}: verdict {kv.get('verdict')}"]
    for key, value in want.items():
        if kv.get(key) != str(value):
            problems.append(f"{label}: {key} = {kv.get(key)}, expected {value}")
    return problems


def expected_at(ctx, n):
    return ctx.star if n == ctx.n else STAR[n]


def certify_round(ctx, n, res):
    """One identity build certified three ways; all must report the same
    area and wire lengths, and sharded mode the canonical fingerprint."""
    want = expected_at(ctx, n)
    common = {k: want[k] for k in ("area", "wire_length", "max_wire_length")}
    jobs = []
    for mode in ("materialize", "stream", "sharded"):
        job = run_job(cli_argv(ctx, n, mode), ctx.work, ctx.env,
                      ctx.budget.timeout(JOB_DEADLINE_S))
        w = dict(common, fingerprint=want["fingerprint"]) if mode == "sharded" else common
        res.op(check_cli(job, w, f"{mode} n={n}"))
        jobs.append(job)
    return jobs


def optimize_round(ctx, n, res):
    """One `compact,refine` build, certified by the stream certifier; its
    area must match the known optimum and stay below the identity area."""
    want = expected_at(ctx, n)
    job = run_job(cli_argv(ctx, n, "stream", "compact,refine"), ctx.work, ctx.env,
                  ctx.budget.timeout(JOB_DEADLINE_S))
    problems = check_cli(job, {"area": want["optimized_area"],
                               "wire_length": want["optimized_wire_length"],
                               "max_wire_length": want["optimized_max_wire_length"]},
                         f"optimize n={n}")
    area = job.kv().get("area", "")
    if not problems and not int(area) < STAR[n]["area"]:
        problems.append(f"optimize n={n}: area {area} not below identity {STAR[n]['area']}")
    res.op(problems)
    return [job]


def run_batch(ctx, res, round_fn):
    """Warm-up rounds at n - 1 (setup), then timed rounds at n until the
    run's seconds are spent.  A round is one call of round_fn."""
    setup = [sum(j.wall_s for j in round_fn(ctx, ctx.n - 1, res))
             for _ in range(SETUP_REPEATS)]
    rounds = []
    t0 = time.monotonic()
    while True:
        rounds.append(round_fn(ctx, ctx.n, res))
        last = sum(j.wall_s for j in rounds[-1])
        if time.monotonic() - t0 >= ctx.seconds or ctx.budget.left() < 2 * last + 5:
            break
    jobs = [j for r in rounds for j in r]
    job_ms = [j.wall_s * 1e3 for j in jobs]
    area = jobs[-1].kv().get("area")
    res.put("setup_s", median(setup), "s")
    res.put("area_ratio", area_ratio(int(area), ctx.n) if area else float("nan"), "ratio")
    res.put("wall_s", median([sum(j.wall_s for j in r) for r in rounds]), "s")
    res.put("p10_ms", percentile(job_ms, 0.10), "ms")
    res.put("p99_ms", percentile(job_ms, 0.99), "ms")
    res.put("rss_mb", max(j.rss_mb for j in jobs), "MB")
    res.put("cpu_s", median([sum(j.cpu_s for j in r) for r in rounds]), "s")
    return {"rounds": len(rounds), "jobs": [" ".join(j.argv[1:]) for j in rounds[0]]}
