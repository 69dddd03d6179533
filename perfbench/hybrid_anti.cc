// Copyright (c) SkyBench-NG contributors.
// Workload hybrid_anti: repeated one-shot ComputeSkyline calls with
// Algorithm Hybrid at threads = nproc on anticorrelated data — the paper's
// headline case, where the core, dominance and parallel layers do almost
// all the work and the serving layers do none.
#include <cmath>

#include "bench.h"
#include "common/timer.h"
#include "core/skyline.h"
#include "data/generator.h"
#include "stats.h"

namespace perfbench {

namespace {

constexpr size_t kRows = 100'000;
constexpr int kDims = 8;
constexpr double kCallsPerSecond = 5.0;  // ~0.2 s per call on 4 cores
constexpr int kSetupRepeats = 3;
constexpr size_t kSerialCalls = 3;  // t = 1 calls for parallel.speedup

struct Calls {
  std::vector<double> latency;
  std::vector<uint8_t> traced;  ///< parallel to `latency`
  std::vector<sky::RunStats> stats;
  std::vector<Digest> digests;
  size_t thrown = 0;
  double wall = 0.0;
};

/// `calls` Hybrid calls. With a log, every second call counts dominance
/// tests and records its phase spans; the others run as in the untraced
/// mode, so both halves see the same conditions.
Calls RunCalls(const sky::Dataset& data, size_t calls, int threads,
               SpanLog* log) {
  sky::Options opts;
  opts.algorithm = sky::Algorithm::kHybrid;
  opts.threads = threads;
  Calls out;
  sky::WallTimer wall;
  for (size_t i = 0; i < calls; ++i) {
    const bool traced = log != nullptr && i % 2 == 1;
    opts.count_dts = traced;
    const double start = traced ? log->Now() : 0.0;
    sky::WallTimer timer;
    try {
      sky::Result r = sky::ComputeSkyline(data, opts);
      out.latency.push_back(timer.Seconds());
      out.traced.push_back(traced ? 1 : 0);
      out.digests.push_back(DigestOf(r.skyline));
      out.stats.push_back(r.stats);
      if (traced) {
        const int span = log->Add(Span{"compute", start, log->Now(), -1, i, {}});
        log->GraftRunStats(span, r.stats);
      }
    } catch (const std::exception&) {
      ++out.thrown;
    }
  }
  out.wall = wall.Seconds();
  return out;
}

/// Count the calls whose answer differs from the reference or that threw.
uint64_t Failures(const Calls& calls, const Digest& reference) {
  uint64_t failed = calls.thrown;
  for (const Digest& d : calls.digests) failed += d == reference ? 0 : 1;
  return failed;
}

}  // namespace

Outcome RunHybridAnti(const Args& args) {
  const size_t calls = static_cast<size_t>(
      std::max(1.0, std::round(kCallsPerSecond * args.seconds)));
  const int threads = HostThreads();
  Outcome out;
  SpanLog log;

  // Set-up: generate the input and run one warm-up call (first-touch page
  // faults and allocator growth), repeated so its median is steady.
  std::vector<double> setups;
  sky::Dataset data;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupRepeats); ++rep) {
    sky::WallTimer timer;
    const double gen_start = log.Now();
    data = sky::GenerateSynthetic(sky::Distribution::kAnticorrelated, kRows,
                                  kDims, args.seed);
    log.Add(Span{"data.generate", gen_start, log.Now(), -1, 0, {}});
    RunCalls(data, 1, threads, nullptr);
    setups.push_back(timer.Seconds());
  }

  if (!args.trace) {
    const double cpu = CpuSeconds();
    const Calls run = RunCalls(data, calls, threads, nullptr);
    const double rss = PeakRssMb();
    out.Add("window_cpu_cores", (CpuSeconds() - cpu) / run.wall, "cores", 1);
    out.Add("setup_s", Median(setups), "s", setups.size());
    AddLatencyMetrics(out, "latency", run.latency, false);
    out.Add("ops_per_s", static_cast<double>(run.latency.size()) / run.wall,
            "1/s", run.latency.size());
    out.Add("peak_rss_mb", rss, "MB", 1);
    // Reference: a different registry algorithm, computed once.
    sky::Options ref_opts;
    ref_opts.algorithm = sky::Algorithm::kBSkyTree;
    const Digest reference = DigestOf(sky::ComputeSkyline(data, ref_opts).skyline);
    out.attempted = calls;
    out.failed = Failures(run, reference);
    return out;
  }

  // Traced run: every second call traced, then a few single-threaded
  // calls for the scaling figure.
  const Calls run = RunCalls(data, calls, threads, &log);
  const Calls serial = RunCalls(data, kSerialCalls, 1, nullptr);
  sky::Options ref_opts;
  ref_opts.algorithm = sky::Algorithm::kBSkyTree;
  const Digest reference = DigestOf(sky::ComputeSkyline(data, ref_opts).skyline);
  out.attempted = calls + kSerialCalls;
  out.failed = Failures(run, reference) + Failures(serial, reference);
  std::vector<double> plain, traced;
  std::vector<sky::RunStats> traced_stats;
  for (size_t i = 0; i < run.latency.size(); ++i) {
    (run.traced[i] ? traced : plain).push_back(run.latency[i]);
    if (run.traced[i]) traced_stats.push_back(run.stats[i]);
  }

  LayerReport report;
  const std::vector<Span> spans = log.spans();
  out.spans = spans;
  std::map<std::string, std::vector<double>> phase_ms;
  std::vector<double> generate;
  for (const Span& s : spans) {
    if (s.name == "data.generate") generate.push_back(s.duration());
    if (s.parent >= 0) phase_ms[s.name].push_back(s.duration() * 1e3);
  }
  for (const auto& [name, values] : phase_ms) {
    report.Set("core." + name + "_ms", Median(values), values.size());
  }
  report.Set("data.generate_s", Median(generate), generate.size());
  std::vector<double> removed, tests_per_row, mask_frac, tests_per_us;
  for (const sky::RunStats& s : traced_stats) {
    const double tests = static_cast<double>(s.dominance_tests);
    const double skips = static_cast<double>(s.mask_filter_hits);
    removed.push_back(static_cast<double>(s.prefiltered_points) / kRows);
    tests_per_row.push_back(tests / kRows);
    mask_frac.push_back(tests + skips > 0 ? skips / (tests + skips) : 0.0);
    const double us = (s.phase1_seconds + s.phase2_seconds) * 1e6;
    tests_per_us.push_back(us > 0 ? tests / us : 0.0);
  }
  if (!traced_stats.empty()) {
    const size_t n = traced_stats.size();
    report.Set("core.prefilter_removed_frac", Median(removed), n);
    report.Set("dominance.tests_per_row", Median(tests_per_row), n);
    report.Set("dominance.mask_skip_frac", Median(mask_frac), n);
    report.Set("dominance.tests_per_us", Median(tests_per_us), n);
  }
  if (!plain.empty() && !serial.latency.empty()) {
    report.Set("parallel.speedup", Median(serial.latency) / Median(plain),
               serial.latency.size() + plain.size());
  }
  if (!plain.empty() && !traced.empty()) {
    report.Set("obs.trace_overhead_frac",
               Median(traced) / Median(plain) - 1.0, traced.size());
  }
  out.metrics = report.Finish();
  return out;
}

}  // namespace perfbench
