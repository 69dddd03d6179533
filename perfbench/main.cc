// Copyright (c) SkyBench-NG contributors.
// Repository benchmark program. Runs one workload for one seed and prints
// every metric with its unit and sample count, then one JSON result line:
//
//   perfbench --workload hybrid_anti --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics (timed with tracing off);
// --trace 1 runs the traced mode and reports the per-layer metrics. Every
// answer is checked outside the timed window; any failed or wrong answer
// makes the exit code 1. perfbench/README.md describes the workloads.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "common/version.h"
#include "dominance/dominance.h"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::Outcome;

/// The end-to-end metrics of the JSON line, as listed in BENCHMARK.json.
/// The others (peak_rss_mb, window_cpu_cores, error_rate, and the p99 and
/// mutation latency of serve_hot_rw) are report lines only; README.md says
/// why.
constexpr const char* kGatedMetrics[] = {"setup_s", "latency_p50_ms",
                                         "latency_p90_ms", "ops_per_s"};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: perfbench --workload hybrid_anti|serve_sharded_cold|"
               "serve_hot_rw --seed N --seconds S --trace 0|1 [--commit ID] "
               "[--spans PATH]\n",
               why.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  bool seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--spans") {
        args.spans_path = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty() || !seed) Usage("--workload and --seed required");
  if (args.seconds < 1 || args.seconds > 600) Usage("--seconds out of range");
  return args;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetric(const Metric& m) {
  std::printf("%-40s %16.6f %-8s n=%zu\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.samples);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  Outcome out;
  try {
    if (args.workload == "hybrid_anti") {
      out = perfbench::RunHybridAnti(args);
    } else if (args.workload == "serve_sharded_cold") {
      out = perfbench::RunServeShardedCold(args);
    } else if (args.workload == "serve_hot_rw") {
      out = perfbench::RunServeHotRw(args);
    } else {
      Usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("# workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("# host nproc=%d avx2=%d compiler=\"%s\" build=%s commit=%s\n",
              perfbench::HostThreads(), sky::CpuHasAvx2() ? 1 : 0,
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, args.commit.c_str());
  for (const Metric& m : out.metrics) PrintMetric(m);
  const double error_rate =
      out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted : 1.0;
  PrintMetric(Metric{"error_rate", error_rate, "fraction",
                     static_cast<size_t>(out.attempted)});
  for (const std::string& note : out.notes) std::printf("# note: %s\n", note.c_str());
  if (!args.spans_path.empty() && args.trace) {
    if (perfbench::WriteSpans(out.spans, args.spans_path)) {
      std::printf("# spans: %zu written to %s\n", out.spans.size(),
                  args.spans_path.c_str());
    } else {
      std::printf("# note: could not write spans to %s\n",
                  args.spans_path.c_str());
    }
  }

  // The JSON line: per-layer metrics when traced, else the gated set.
  std::string json;
  for (const Metric& m : out.metrics) {
    bool gated = args.trace;
    for (const char* name : kGatedMetrics) gated = gated || m.name == name;
    if (!gated) continue;
    json += (json.empty() ? "" : ", ") + ("\"" + m.name + "\": {\"value\": ") +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = out.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), json.c_str());
  return correct ? 0 : 1;
}
