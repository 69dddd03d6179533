// Copyright (c) SkyBench-NG contributors.
// Workload serve_sharded_cold: one closed-loop client sends unique
// Algorithm::kAuto specs to an engine holding anticorrelated data in four
// median-policy shards. Every query misses the caches, so the planner,
// per-shard views and compute, the zonemap and the M(S) merge set the
// latency.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "bench.h"
#include "common/timer.h"
#include "data/generator.h"
#include "gen.h"
#include "stats.h"

namespace perfbench {

namespace {

constexpr size_t kRows = 100'000;
constexpr int kDims = 8;
constexpr size_t kShards = 4;
constexpr double kQueriesPerSecond = 22.0;
constexpr int kSetupRepeats = 3;
// Warm-up strata: a box-only spec (builds the per-shard zonemaps) and a
// projected two-box spec (first views, executor warm).
constexpr size_t kWarmShapes[] = {7, 10};
const char kName[] = "anti";

struct Served {
  sky::Dataset data;  ///< the unsharded rows, the reference's input
  std::unique_ptr<ColumnQuantiles> quantiles;
  std::unique_ptr<sky::SkylineEngine> engine;
};

/// Generate, register and warm one engine; the spans go to `log`.
Served SetUp(const Args& args, SpanLog& log) {
  Served s;
  const double gen_start = log.Now();
  s.data = sky::GenerateSynthetic(sky::Distribution::kAnticorrelated, kRows,
                                  kDims, args.seed);
  log.Add(Span{"data.generate", gen_start, log.Now(), -1, 0, {}});
  s.quantiles = std::make_unique<ColumnQuantiles>(s.data);
  sky::SkylineEngine::Config config;
  config.shards = kShards;
  config.shard_policy = sky::ShardPolicy::kMedianPivot;
  s.engine = std::make_unique<sky::SkylineEngine>(config);
  const double reg_start = log.Now();
  s.engine->RegisterDataset(kName, s.data.Clone());
  log.Add(Span{"query.register", reg_start, log.Now(), -1, 0, {}});
  ColdSpecGenerator warm(args.seed ^ 0x3a3a3a3aULL, *s.quantiles);
  sky::Options opts;
  opts.algorithm = sky::Algorithm::kAuto;
  opts.threads = HostThreads();
  for (const size_t shape : kWarmShapes) {
    s.engine->Execute(kName, warm.NextOfShape(shape), opts);
  }
  return s;
}

struct Window {
  std::vector<sky::QuerySpec> specs;
  std::vector<Read> reads;
  std::vector<uint8_t> traced;  ///< parallel to `reads`
  double wall = 0.0;
};

/// `queries` fresh specs, one after another. With a log, every second
/// query is traced (engine trace plus dominance counting).
Window RunWindow(Served& s, ColdSpecGenerator& gen, size_t queries,
                 SpanLog* log) {
  sky::Options opts;
  opts.algorithm = sky::Algorithm::kAuto;
  opts.threads = HostThreads();
  Window w;
  for (size_t i = 0; i < queries; ++i) w.specs.push_back(gen.Next());
  sky::WallTimer wall;
  for (size_t i = 0; i < queries; ++i) {
    const bool traced = log != nullptr && i % 2 == 1;
    opts.trace = traced;
    opts.count_dts = traced;
    w.reads.push_back(TimedExecute(*s.engine, kName, w.specs[i], opts,
                                   traced ? log : nullptr, i));
    w.traced.push_back(traced ? 1 : 0);
  }
  w.wall = wall.Seconds();
  return w;
}

/// Failed calls plus answers that differ from RunQuery on the unsharded
/// rows (computed with a different algorithm, outside the window).
uint64_t Failures(const Served& s, const Window& w) {
  sky::Options ref;
  ref.algorithm = sky::Algorithm::kBSkyTree;
  ref.threads = 1;
  std::atomic<uint64_t> failed{0};
  failed += ParallelFor(w.specs.size(), HostThreads(), [&](size_t i) {
    if (!w.reads[i].ok) {
      ++failed;
      return;
    }
    const sky::QueryResult r = sky::RunQuery(s.data, w.specs[i], ref);
    if (DigestOf(r.ids, r.dominator_counts) != w.reads[i].digest) ++failed;
  });
  return failed.load();
}

/// Latencies of the reads whose traced flag is in `which`.
std::vector<double> Latencies(const Window& w,
                              std::initializer_list<uint8_t> which = {0, 1}) {
  std::vector<double> out;
  for (size_t i = 0; i < w.reads.size(); ++i) {
    if (std::find(which.begin(), which.end(), w.traced[i]) != which.end()) {
      out.push_back(w.reads[i].seconds);
    }
  }
  return out;
}

}  // namespace

Outcome RunServeShardedCold(const Args& args) {
  const size_t queries = static_cast<size_t>(
      std::max(2.0, std::round(kQueriesPerSecond * args.seconds)));
  Outcome out;
  SpanLog log;

  if (!args.trace) {
    std::vector<double> setups;
    Served s;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      s = Served{};  // release the previous engine before timing the next
      sky::WallTimer timer;
      s = SetUp(args, log);
      setups.push_back(timer.Seconds());
    }
    ColdSpecGenerator gen(args.seed, *s.quantiles);
    const double cpu = CpuSeconds();
    const Window w = RunWindow(s, gen, queries, nullptr);
    const double rss = PeakRssMb();
    out.Add("window_cpu_cores", (CpuSeconds() - cpu) / w.wall, "cores", 1);
    const std::vector<double> latency = Latencies(w);
    out.Add("setup_s", Median(setups), "s", setups.size());
    AddLatencyMetrics(out, "latency", latency, false);
    out.Add("ops_per_s", static_cast<double>(queries) / w.wall, "1/s", queries);
    out.Add("peak_rss_mb", rss, "MB", 1);
    out.attempted = queries;
    out.failed = Failures(s, w);
    return out;
  }

  // Traced run: every second query traced, on one engine.
  Served s = SetUp(args, log);
  ColdSpecGenerator gen(args.seed, *s.quantiles);
  ServeWindow traced_window;
  traced_window.before = s.engine->Metrics().Snapshot();
  const Window w = RunWindow(s, gen, queries, &log);
  traced_window.after = s.engine->Metrics().Snapshot();
  traced_window.spans = log.spans();
  out.spans = traced_window.spans;
  traced_window.reads = queries;
  out.attempted = queries;
  out.failed = Failures(s, w);

  LayerReport report;
  AddServeLayers(report, traced_window);
  const std::vector<double> traced = Latencies(w, {1});
  report.Set("obs.trace_overhead_frac",
             Median(traced) / Median(Latencies(w, {0})) - 1.0, traced.size());
  out.metrics = report.Finish();
  return out;
}

}  // namespace perfbench
