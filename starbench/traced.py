"""The traced run: per-layer numbers from the outside of each layer.

starbench_trace calls each layer's public functions in pipeline order and
times every call; this module runs its stages at the workload's size,
checks that the staged calls reproduce the end-to-end outputs, adds a
short daemon session for the serve counters, and saves the program's own
span trees (`starlay_cli --trace`) and the daemon's stats as artifacts.
"""

import json

import serve
from expected import HOT, STAR
from harness import run_job

STAGE_DEADLINE_S = 120
BATCH_SESSION_S = 3   # serve session of the batch workloads' traced run

# name -> unit, in the order the result lists them.
PER_LAYER = {
    "topology.star_graph_ms": "ms",
    "core.structure_ms": "ms",
    "core.route_spec_ms": "ms",
    "router.plan_ms": "ms",
    "router.emit_ms": "ms",
    "router.wires": "count",
    "router.planned_area": "count",
    "wire_store.materialize_ms": "ms",
    "wire_store.bytes": "bytes",
    "validate.total_ms": "ms",
    "validate.index_ms": "ms",
    "validate.rules_ms": "ms",
    "validate.overlap_ms": "ms",
    "validate.via_ms": "ms",
    "validate.crossing_ms": "ms",
    "validate.clearance_ms": "ms",
    "validate.segments": "count",
    "kernels.validate_scalar_ms": "ms",
    "kernels.validate_sse4_ms": "ms",
    "kernels.validate_avx2_ms": "ms",
    "stream_certify.ms": "ms",
    "stream_certify.batches": "count",
    "stream_certify.replays": "count",
    "shard.ms": "ms",
    "shard.spill_mb": "MB",
    "shard.worker_rss_mb": "MB",
    "shard.coordinator_rss_mb": "MB",
    "shard.shards": "count",
    "refine.ms": "ms",
    "refine.swaps": "count",
    "refine.energy_gain_pct": "%",
    "compact.ms": "ms",
    "compact.rounds": "count",
    "compact.best_round": "count",
    "compact.area_gain_pct": "%",
    "pipeline.optimize_ms": "ms",
    "pipeline.refine_kept": "count",
    "serve.parse_us": "us",
    "serve.acquire_hit_us": "us",
    "serve.acquire_miss_ms": "ms",
    "serve.reply_measure_us": "us",
    "serve.serialize_us": "us",
    "serve.handle_line_hit_us": "us",
    "serve.socket_us": "us",
    "serve.lane_wait_ms": "ms",
    "serve.hit_p50_ms": "ms",
    "serve.hit_p99_ms": "ms",
    "serve.miss_p50_ms": "ms",
    "serve.miss_p90_ms": "ms",
    "serve.rps": "1/s",
    "serve.hits": "count",
    "serve.misses": "count",
    "serve.joins": "count",
    "serve.evictions": "count",
    "serve.miss_share": "ratio",
    "traced.total_s": "s",
}


def stage_problems(stage, v, want, hot_area):
    """Checks one stage's outputs against the known-good values."""
    checks = {
        "certify": [("router.fingerprint", want["fingerprint"]),
                    ("router.wire_length", want["wire_length"]),
                    ("materialize.area", want["area"]),
                    ("materialize.wire_length", want["wire_length"]),
                    ("materialize.max_wire_length", want["max_wire_length"]),
                    ("stream_certify.area", want["area"]),
                    ("stream_certify.wire_length", want["wire_length"]),
                    ("stream_certify.max_wire_length", want["max_wire_length"]),
                    ("validate.clean", True), ("kernels.clean", True),
                    ("stream_certify.clean", True)],
        "shard": [("shard.fingerprint", want["fingerprint"]), ("shard.area", want["area"]),
                  ("shard.wire_length", want["wire_length"]), ("shard.clean", True)],
        "optimize": [("pipeline.area", want["optimized_area"]),
                     ("pipeline.wire_length", want["optimized_wire_length"]),
                     ("pipeline.clean", True)],
        "serve": [("serve.hot_area", hot_area), ("serve.clean", True)],
    }[stage]
    return [f"trace {stage}: {key} = {v.get(key)}, expected {value}"
            for key, value in checks if v.get(key) != value]


def run_stages(ctx, res, n, want):
    values, total = {}, 0.0
    threads = {"STARLAY_THREADS": str(ctx.threads)}
    stages = [("certify", [str(n)], threads, None),
              ("shard", [str(n), str(ctx.workers), "spill"], threads, None),
              ("optimize", [str(n)], threads, None),
              ("serve", [], {"STARLAY_THREADS": "1"}, serve.request_lines())]
    for stage, args, env, stdin_text in stages:
        job = run_job([ctx.binary("starbench_trace"), stage, *args], ctx.work,
                      dict(ctx.env, **env), ctx.budget.timeout(STAGE_DEADLINE_S), stdin_text)
        total += job.wall_s
        if not job.ok:
            res.op([f"trace {stage}: exit {job.rc}{' (deadline)' if job.timed_out else ''}: "
                    f"{job.stderr.strip()[-300:]}"])
            continue
        v = json.loads(job.stdout.strip().splitlines()[-1])
        res.op(stage_problems(stage, v, want, ctx.hot_area))
        values.update(v)
    if "router.fingerprint" in values and "shard.fingerprint" in values:
        res.op([] if values["router.fingerprint"] == values["shard.fingerprint"] else
               ["trace: FingerprintingSink digest differs from the sharded fingerprint"])
    values["traced.total_s"] = total
    return values


def save_cli_traces(ctx, res, jobs):
    """Runs each (label, argv) with the program's own --trace and keeps the
    span tree and the printed phase table as artifacts."""
    for label, argv in jobs:
        trace = ctx.artifacts / f"{label}.trace.json"
        job = run_job(argv + ["--trace", str(trace.resolve())], ctx.work, ctx.env,
                      ctx.budget.timeout(STAGE_DEADLINE_S))
        (ctx.artifacts / f"{label}.txt").write_text(job.stdout + job.stderr)
        res.op([] if job.ok else [f"{label} --trace: exit {job.rc}"])


def run_traced(ctx, res, n, cli_jobs, session_s):
    """Per-layer metrics of a workload whose builds are star size n."""
    want = ctx.star if n == ctx.n else STAR[n]
    v = run_stages(ctx, res, n, want)
    session = serve.serve_session(ctx, res, session_s, 1)
    (ctx.artifacts / "daemon_stats.json").write_text(json.dumps(session.stats, indent=1) + "\n")
    v.update(serve.layer_metrics(session))
    if "serve.handle_line_hit_us" in v:
        v["serve.socket_us"] = v["serve.hit_p50_ms"] * 1e3 - v["serve.handle_line_hit_us"]
        v["serve.lane_wait_ms"] = v["serve.miss_p50_ms"] - v["serve.acquire_miss_ms"]
    save_cli_traces(ctx, res, cli_jobs)
    for name, unit in PER_LAYER.items():
        value = v.get(name, float("nan"))
        res.put(name, int(value) if isinstance(value, bool) else value, unit)
    return {"trace_n": n, "serve_session_s": session_s, "hot_key": HOT[0]}
