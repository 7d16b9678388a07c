/// \file trace_layers.cpp
/// \brief Per-layer driver for the starbench traced run.
///
/// Calls each layer's public entry points in the order the star pipeline
/// uses them and times every call from the outside with steady_clock; no
/// instrumentation inside the library is used or needed.  One stage per
/// process, so each stage starts from a small heap (the forked shard
/// workers in particular inherit nothing large):
///
///   starbench_trace certify  N          enumerate + place -> topology ->
///                                       route spec -> router -> wire store
///                                       -> validate (+ every SIMD level)
///                                       -> stream certify
///   starbench_trace shard    N W DIR    sharded out-of-core certify
///   starbench_trace optimize N          refine, compact, the pass pipeline
///   starbench_trace serve  < LINES      parse / lookup / reply / serialize
///                                       of the hot `measure` request (first
///                                       line) and the rotation misses
///
/// Prints one flat JSON object of measured values (times in ms or us,
/// counters, and the outputs the harness checks: areas, wire lengths,
/// fingerprints, verdicts).  The pool size comes from STARLAY_THREADS.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "starlay/bisect/refine.hpp"
#include "starlay/core/star_layout.hpp"
#include "starlay/core/star_shard.hpp"
#include "starlay/layout/fingerprint.hpp"
#include "starlay/layout/kernels/kernels.hpp"
#include "starlay/layout/router.hpp"
#include "starlay/layout/stream_certify.hpp"
#include "starlay/layout/validate.hpp"
#include "starlay/layout/wire_sink.hpp"
#include "starlay/serve/protocol.hpp"
#include "starlay/serve/service.hpp"
#include "starlay/topology/networks.hpp"

namespace {

using Clock = std::chrono::steady_clock;
namespace kr = starlay::layout::kernels;

/// Flat JSON object writer: keys in insertion order, values as measured.
class Out {
 public:
  void num(const std::string& key, double v) { add(key, fmt("%.9g", v)); }
  void count(const std::string& key, std::int64_t v) { add(key, std::to_string(v)); }
  void u64(const std::string& key, std::uint64_t v) { add(key, std::to_string(v)); }
  void flag(const std::string& key, bool v) { add(key, v ? "true" : "false"); }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  static std::string fmt(const char* f, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
  }
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

/// Runs \p fn once and returns its wall time in milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Median wall time of \p reps separate calls of \p fn, in microseconds.
template <typename Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) us.push_back(time_ms(fn) * 1e3);
  std::nth_element(us.begin(), us.begin() + reps / 2, us.end());
  return us[static_cast<std::size_t>(reps / 2)];
}

double pct_gain(std::int64_t before, std::int64_t after) {
  return before > 0 ? 100.0 * static_cast<double>(before - after) / static_cast<double>(before)
                    : 0.0;
}

void report_stream(Out& out, const std::string& prefix, const starlay::layout::StreamReport& r) {
  out.count(prefix + ".area", r.area);
  out.count(prefix + ".wire_length", r.total_wire_length);
  out.count(prefix + ".max_wire_length", r.max_wire_length);
  out.flag(prefix + ".clean", r.validation.ok);
}

/// Identity star build, staged exactly like the pipeline's front -> route ->
/// emit, then every certifier the materialize and stream modes run.
void stage_certify(int n, Out& out) {
  using namespace starlay;
  core::StarStructure s;
  out.num("core.structure_ms", time_ms([&] { s = core::star_structure(n, 3); }));
  topology::Graph g(0);
  out.num("topology.star_graph_ms", time_ms([&] { g = topology::star_graph(n); }));
  layout::RouteSpec spec;
  out.num("core.route_spec_ms", time_ms([&] { spec = core::star_route_spec(g, s); }));

  layout::RoutePlan plan;
  out.num("router.plan_ms", time_ms([&] { plan = layout::plan_route(g, s.placement, spec); }));
  out.count("router.wires", g.num_edges());
  out.count("router.planned_area", layout::planned_area(plan));
  layout::FingerprintingSink fp;
  out.num("router.emit_ms", time_ms([&] { layout::emit_route(plan, g, fp); }));
  out.u64("router.fingerprint", fp.fingerprint());
  out.count("router.wire_length", fp.total_wire_length());

  {
    layout::Layout lay(0);
    out.num("wire_store.materialize_ms", time_ms([&] {
              layout::MaterializingSink sink;
              layout::emit_route(plan, g, sink);
              lay = sink.take_layout();
            }));
    const layout::WireStore& w = lay.wires();
    out.count("wire_store.bytes",
              w.num_points() * 8 + (w.size() + 1) * 4 +
                  w.size() * static_cast<std::int64_t>(sizeof(layout::WireStore::Meta)));

    layout::ValidationReport rep;
    out.num("validate.total_ms", time_ms([&] { rep = layout::validate_layout(g, lay); }));
    out.num("validate.index_ms", rep.phases.index_ms);
    out.num("validate.rules_ms", rep.phases.rules_ms);
    out.num("validate.overlap_ms", rep.phases.overlap_ms);
    out.num("validate.via_ms", rep.phases.via_ms);
    out.num("validate.crossing_ms", rep.phases.crossing_ms);
    out.num("validate.clearance_ms", rep.phases.clearance_ms);
    out.count("validate.segments", rep.num_segments);
    out.flag("validate.clean", rep.ok);
    out.count("materialize.area", lay.area());
    out.count("materialize.wire_length", lay.total_wire_length());
    out.count("materialize.max_wire_length", lay.max_wire_length());

    bool kernels_clean = true;
    for (const kr::SimdLevel level : {kr::SimdLevel::kScalar, kr::SimdLevel::kSSE4,
                                      kr::SimdLevel::kAVX2}) {
      const kr::ScopedForcedLevel forced(level);
      layout::ValidationReport r;
      out.num(std::string("kernels.validate_") + kr::level_name(level) + "_ms",
              time_ms([&] { r = layout::validate_layout(g, lay); }));
      kernels_clean = kernels_clean && r.ok && r.num_segments == rep.num_segments;
    }
    out.flag("kernels.clean", kernels_clean);
  }

  layout::StreamingCertifier cert;
  out.num("stream_certify.ms", time_ms([&] { layout::emit_route(plan, g, cert); }));
  out.count("stream_certify.batches", cert.report().num_batches);
  out.count("stream_certify.replays", cert.report().num_replays);
  report_stream(out, "stream_certify", cert.report());
}

void stage_shard(int n, int workers, const std::string& spill_dir, Out& out) {
  starlay::core::ShardOptions opt;
  opt.workers = workers;
  opt.spill_dir = spill_dir;
  starlay::core::BuildOutcome<starlay::core::ShardReport> res = starlay::core::BuildError{};
  out.num("shard.ms", time_ms([&] { res = starlay::core::star_certify_sharded(n, opt); }));
  if (!res.ok()) {
    std::fprintf(stderr, "starbench_trace: sharded certify failed: %s\n",
                 res.error().message.c_str());
    std::exit(3);
  }
  const starlay::core::ShardReport& r = res.value();
  out.num("shard.spill_mb", static_cast<double>(r.spill_bytes_written) / (1 << 20));
  out.num("shard.worker_rss_mb", static_cast<double>(r.worker_peak_rss_bytes) / (1 << 20));
  out.num("shard.coordinator_rss_mb",
          static_cast<double>(r.coordinator_peak_rss_bytes) / (1 << 20));
  out.count("shard.shards", r.num_shards);
  out.u64("shard.fingerprint", r.wire_fingerprint);
  report_stream(out, "shard", r.stream);
}

/// The two optimization passes on fresh inputs, then the whole pass
/// pipeline (refine + compact + the refine area guard) into the certifier.
void stage_optimize(int n, Out& out) {
  using namespace starlay;
  {
    const topology::Graph g = topology::star_graph(n);
    core::StarStructure s = core::star_structure(n, 3);
    bisect::RefineStats rs;
    out.num("refine.ms", time_ms([&] { rs = bisect::refine_placement(g, s.placement); }));
    out.count("refine.swaps", rs.swaps_applied);
    out.num("refine.energy_gain_pct", pct_gain(rs.energy_before, rs.energy_after));

    s = core::star_structure(n, 3);
    layout::RoutePlan plan = layout::plan_route(g, s.placement, core::star_route_spec(g, s));
    layout::CompactionStats cs;
    out.num("compact.ms", time_ms([&] { cs = layout::compact_route(plan); }));
    out.count("compact.rounds", cs.rounds);
    out.count("compact.best_round", cs.best_round);
    out.num("compact.area_gain_pct", pct_gain(cs.area_before, cs.area_after));
  }

  core::PassList passes;
  passes.refine = true;
  passes.compact = true;
  layout::StreamingCertifier cert;
  core::PassMetrics pm;
  out.num("pipeline.optimize_ms", time_ms([&] {
            core::star_layout_stream_passes(n, passes, cert, 3, nullptr, &pm);
          }));
  out.flag("pipeline.refine_kept", pm.refine_kept);
  report_stream(out, "pipeline", cert.report());
}

starlay::core::BuildRequest parse_or_exit(const std::string& line) {
  const auto parsed = starlay::serve::parse_request(line);
  if (!parsed.ok()) {
    std::fprintf(stderr, "starbench_trace: %s\n", parsed.error().message.c_str());
    std::exit(3);
  }
  return parsed.value().build;
}

/// The daemon's paths, one layer at a time, on an in-process service.
/// stdin holds the request lines: the hot `measure` request first, then
/// the rotation requests whose builds are the daemon's misses.
void stage_serve(Out& out) {
  using namespace starlay;
  constexpr int kReps = 2001;
  std::string line;
  std::vector<std::string> rotation;
  for (char buf[512]; std::fgets(buf, sizeof(buf), stdin) != nullptr;) {
    std::string l(buf);
    while (!l.empty() && (l.back() == '\n' || l.back() == '\r')) l.pop_back();
    if (l.empty()) continue;
    if (line.empty()) line = l;
    else rotation.push_back(l);
  }
  if (line.empty() || rotation.empty()) {
    std::fprintf(stderr, "starbench_trace: serve wants a hot line and rotation lines on stdin\n");
    std::exit(2);
  }
  const core::BuildRequest request = parse_or_exit(line);
  out.num("serve.parse_us", median_us(kReps, [&] { (void)serve::parse_request(line); }));

  // Misses: every rotation key built once (median), as the daemon's lane
  // runs them; a budget large enough that nothing is evicted.
  {
    serve::LayoutService fresh;
    std::vector<double> miss_ms;
    for (const std::string& r : rotation) {
      const core::BuildRequest req = parse_or_exit(r);
      miss_ms.push_back(time_ms([&] { (void)fresh.acquire(req); }));
    }
    std::nth_element(miss_ms.begin(), miss_ms.begin() + miss_ms.size() / 2, miss_ms.end());
    out.num("serve.acquire_miss_ms", miss_ms[miss_ms.size() / 2]);
  }

  serve::LayoutService svc;
  const serve::ServiceResult warm = svc.acquire(request);
  if (!warm.ok()) {
    std::fprintf(stderr, "starbench_trace: %s\n", warm.error.message.c_str());
    std::exit(3);
  }
  const serve::CachedLayout& c = *warm.snapshot;
  out.num("serve.acquire_hit_us", median_us(kReps, [&] { (void)svc.acquire(request); }));

  // The Layout getters a `measure` reply reads (handle_line's result object).
  std::int64_t sink = 0;
  out.num("serve.reply_measure_us", median_us(kReps, [&] {
            sink += c.layout.num_layers() + c.layout.width() + c.layout.height() +
                    c.layout.area() + c.layout.total_wire_length() +
                    c.layout.max_wire_length();
          }));
  serve::Json result = serve::Json::object();
  result.set("vertices", serve::Json(static_cast<std::int64_t>(c.graph.num_vertices())));
  result.set("edges", serve::Json(c.graph.num_edges()));
  result.set("wires", serve::Json(c.layout.num_wires()));
  result.set("layers", serve::Json(static_cast<std::int64_t>(c.layout.num_layers())));
  result.set("width", serve::Json(c.layout.width()));
  result.set("height", serve::Json(c.layout.height()));
  result.set("area", serve::Json(c.layout.area()));
  result.set("node_size", serve::Json(c.node_size));
  result.set("wire_length", serve::Json(c.layout.total_wire_length()));
  result.set("max_wire_length", serve::Json(c.layout.max_wire_length()));
  std::vector<double> ser_us;
  for (int i = 0; i < kReps; ++i) {
    serve::Json copy = result;
    ser_us.push_back(1e3 * time_ms([&] {
      sink += static_cast<std::int64_t>(
          serve::ok_response(1, "measure", c.key, "hit", std::move(copy)).dump().size());
    }));
  }
  std::nth_element(ser_us.begin(), ser_us.begin() + kReps / 2, ser_us.end());
  out.num("serve.serialize_us", ser_us[kReps / 2]);
  out.num("serve.handle_line_hit_us",
          median_us(kReps, [&] { sink += static_cast<std::int64_t>(svc.handle_line(line).size()); }));
  out.count("serve.hot_area", c.layout.area());
  out.flag("serve.clean", c.validation.ok && sink != 0);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: starbench_trace certify|optimize N\n"
               "       starbench_trace shard N WORKERS SPILL_DIR\n"
               "       starbench_trace serve < REQUEST_LINES\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string stage = argv[1];
  const int n = argc >= 3 ? std::atoi(argv[2]) : 0;
  if (stage != "serve" && (n < 3 || n > 10)) usage();
  Out out;
  const double total_ms = time_ms([&] {
    if (stage == "certify" && argc == 3) {
      stage_certify(n, out);
    } else if (stage == "shard" && argc == 5) {
      stage_shard(n, std::atoi(argv[3]), argv[4], out);
    } else if (stage == "optimize" && argc == 3) {
      stage_optimize(n, out);
    } else if (stage == "serve" && argc == 2) {
      stage_serve(out);
    } else {
      usage();
    }
  });
  out.num("stage_ms", total_ms);
  out.print();
  return 0;
}
