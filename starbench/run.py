#!/usr/bin/env python3
"""starbench: the starlay repository's benchmark.

    python3 starbench/run.py --workload certify-n9 --seed 1 --seconds 20 --trace 0

Builds the repository from source (Release, into .bench_build/starbench),
runs one workload and prints its metrics as the last line of stdout:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

--trace 0 measures the shipped binaries untraced (end-to-end metrics);
--trace 1 runs the per-layer driver instead (per-layer metrics).  The line
before the result is the footer (`starbench footer {...}`): machine, pool
and worker counts, SIMD level, build, source digest, seed and sizes.
--smoke shrinks every size for the benchmark's own tests; --expect
KEY=VALUE replaces one known-good output (to prove that a wrong output is
caught).  Exit status: 0 correct, 1 a check failed (the result is still
printed), 2 bad arguments or no sources, 3 build failure.  See README.md.
"""

import sys

sys.dont_write_bytecode = True  # keep the source directories clean

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import batch  # noqa: E402
import serve  # noqa: E402
import traced  # noqa: E402
from expected import HOT, STAR  # noqa: E402
from harness import Budget, Ctx, Result, run_job  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "starbench"
WORK = Path(".bench_build") / "work"   # relative: keeps socket paths short
RUN_BUDGET_S = 165                     # one run, after the build
BATCH_N, SMOKE_N = 9, 6
SMOKE_SESSION_S = 1


def certify_n9(ctx, res, trace):
    if trace:
        cli = [(m, batch.cli_argv(ctx, ctx.n, m)) for m in ("stream", "sharded")]
        return traced.run_traced(ctx, res, ctx.n, cli, min(ctx.seconds, traced.BATCH_SESSION_S))
    return batch.run_batch(ctx, res, batch.certify_round)


def optimize_n9(ctx, res, trace):
    if trace:
        cli = [("optimize", batch.cli_argv(ctx, ctx.n, "stream", "compact,refine"))]
        return traced.run_traced(ctx, res, ctx.n, cli, min(ctx.seconds, traced.BATCH_SESSION_S))
    return batch.run_batch(ctx, res, batch.optimize_round)


def serve_mix(ctx, res, trace):
    if trace:
        return traced.run_traced(ctx, res, HOT[0]["n"], [], ctx.seconds)
    return serve.run_serve_mix(ctx, res)


WORKLOADS = {"certify-n9": certify_n9, "optimize-n9": optimize_n9, "serve-mix": serve_mix}


def build():
    """Configures once, then lets make decide what is stale."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.log", "ab") as log:
        steps = [["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))]]
        if not (BUILD / "CMakeCache.txt").exists():
            steps.insert(0, ["cmake", "-S", str(ROOT / "starbench"), "-B", str(BUILD),
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                print(f"starbench: build failed ({' '.join(step)}); see {BUILD}/build.log",
                      file=sys.stderr)
                return False
    return True


def cmake_cache(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the sources the build reads (the checkout may not be
    a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    files = [p for d in ("src", "cli") for p in (ROOT / d).rglob("*") if p.is_file()]
    files += [ROOT / "CMakeLists.txt"] + sorted((ROOT / "starbench").glob("*.*"))
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             text=True, capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def footer(args, ctx, extra):
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        out = subprocess.run([compiler, "--version"], text=True, capture_output=True)
        version = out.stdout.splitlines()[0] if out.stdout else None
    probe = run_job([ctx.binary("starlay_cli"), "--family", "star", "--n", "4"], ctx.work,
                    ctx.env, 30)
    return dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, smoke=args.smoke, nproc=os.cpu_count(),
                pool_threads=ctx.threads, shard_workers=ctx.workers, star_n=ctx.n,
                simd=probe.kv().get("simd"), build_type=cmake_cache("CMAKE_BUILD_TYPE"),
                compiler=version, git_commit=git_commit(), source_digest=source_digest(),
                **extra)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small sizes, for starbench's tests")
    p.add_argument("--expect", action="append", default=[], metavar="KEY=VALUE",
                   help="override a known-good output (expected.STAR key or hot_area)")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    os.chdir(ROOT)
    if not ((ROOT / "CMakeLists.txt").is_file() and (ROOT / "src").is_dir()):
        print("starbench: no starlay sources next to starbench/", file=sys.stderr)
        return 2
    if not build():
        return 3

    n = SMOKE_N if args.smoke else BATCH_N
    star, hot_area = dict(STAR[n]), HOT[1]
    for item in args.expect:
        key, _, value = item.partition("=")
        if key == "hot_area":
            hot_area = int(value)
        elif key in star:
            star[key] = int(value)
        else:
            print(f"starbench: unknown --expect key '{key}'", file=sys.stderr)
            return 2
    seconds = min(args.seconds, SMOKE_SESSION_S) if args.smoke else args.seconds
    art = Path(".bench_build") / "artifacts" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    art.mkdir(parents=True, exist_ok=True)
    WORK.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("STARLAY_")}
    ctx = Ctx(build=BUILD, work=WORK, artifacts=art, n=n, seconds=seconds, seed=args.seed,
              budget=Budget(RUN_BUDGET_S), star=star, hot_area=hot_area, env=env)

    res = Result()
    extra = WORKLOADS[args.workload](ctx, res, args.trace)
    if args.trace == 0:
        res.metrics = dict(ok_ratio={"value": 1 - res.failed / max(res.attempted, 1),
                                     "unit": "ratio"}, **res.metrics)
    for m in res.metrics.values():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            m["value"] = 0.0  # only reachable when a check already failed
    foot = footer(args, ctx, extra)
    (art / "footer.json").write_text(json.dumps(foot, indent=1) + "\n")
    (art / "failures.txt").write_text("".join(r + "\n" for r in res.reasons))
    for reason in res.reasons[:20]:
        print(f"starbench: FAILED {reason}", file=sys.stderr)
    correct = res.failed == 0 and res.attempted > 0
    print("starbench footer " + json.dumps(foot))
    print(json.dumps({"correct": correct, "attempted": max(res.attempted, 1),
                      "failed": res.failed, "metrics": res.metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
