// Copyright (c) SkyBench-NG contributors.
// Shared plumbing of the repository benchmark program: run arguments, the
// metric report, answer digests and the per-layer metric table.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "query/engine.h"
#include "spans.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string commit = "unknown";
  std::string spans_path;  ///< where a traced run writes its spans
};

/// One reported number. `samples` is how many observations it summarizes.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// What one run of a workload reports.
struct Outcome {
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when traced
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;  ///< extra report lines
  std::vector<Span> spans;         ///< the traced run's span log

  void Add(std::string name, double value, std::string unit, size_t samples) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
  }
};

Outcome RunHybridAnti(const Args& args);
Outcome RunServeShardedCold(const Args& args);
Outcome RunServeHotRw(const Args& args);

/// Client threads a workload may use: the host's core count.
int HostThreads();

/// Write spans as JSON lines (name, start, end, parent, request, self time,
/// attributes). Returns false when the file cannot be written.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

/// User plus system CPU seconds this process has used so far. CPU seconds
/// over a window's wall time is the number of cores the run actually got:
/// below the expected count, the host took cores away (contention), which
/// slows a run without any change in the code.
double CpuSeconds();

/// Order-independent digest of an answer: the multiset of (id, dominator
/// count) pairs. Equal digests <=> equal answers, up to hash collisions.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t xors = 0;
  bool operator==(const Digest&) const = default;
};
Digest DigestOf(const std::vector<sky::PointId>& ids,
                const std::vector<uint32_t>& dominator_counts = {});

/// One timed Execute call. `ok` is false when the call threw or came back
/// non-kOk, stale or truncated. With a log, the call is recorded as a
/// "read" span carrying `request`, with the engine's trace grafted under it.
struct Read {
  double seconds = 0.0;
  bool ok = false;
  Digest digest;
};
Read TimedExecute(sky::SkylineEngine& engine, const std::string& name,
                  const sky::QuerySpec& spec, const sky::Options& opts,
                  SpanLog* log, uint64_t request);

/// Run fn(i) for i in [0, n) on `workers` threads; returns how many calls
/// threw (each is counted, none escapes).
size_t ParallelFor(size_t n, int workers, const std::function<void(size_t)>& fn);

/// End-to-end latency metrics of one set of read latencies (seconds):
/// p50, p90 and optionally p99, each with a note when the sample is too
/// small to support it, plus a note with the quartiles.
void AddLatencyMetrics(Outcome& out, const std::string& prefix,
                       const std::vector<double>& seconds, bool with_p99);

/// Every per-layer metric name and unit, in report order. A traced run
/// reports all of them; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricTable();

/// Per-layer values being filled in by a traced run.
class LayerReport {
 public:
  void Set(const std::string& name, double value, size_t samples = 1);
  /// The full table, unset entries as 0.
  std::vector<Metric> Finish() const;

 private:
  std::map<std::string, std::pair<double, size_t>> values_;
};

/// Counter/gauge delta of the engine registry between two snapshots.
double Delta(const sky::obs::MetricsSnapshot& before,
             const sky::obs::MetricsSnapshot& after, const std::string& name,
             const sky::obs::Labels& labels = {});

/// What a traced serving window issued, for the serving-layer metrics.
struct ServeWindow {
  std::vector<Span> spans;  ///< set-up and "read" spans, traces grafted
  sky::obs::MetricsSnapshot before;
  sky::obs::MetricsSnapshot after;
  size_t reads = 0;
  size_t mutations = 0;
};

/// Fill the query.*, index.*, parallel.*, set-up span and
/// obs.unaccounted_frac rows from a traced serving window.
void AddServeLayers(LayerReport& report, const ServeWindow& window);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
