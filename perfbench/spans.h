// Copyright (c) SkyBench-NG contributors.
// In-memory span log of the benchmark's traced run. The benchmark records one
// span around every call it makes into a library layer (name, start, end,
// parent, request id) and grafts what the API itself returns underneath:
// RunStats phases of a ComputeSkyline call and the QueryTrace of an
// Execute call. Spans stay in memory until the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "obs/trace.h"

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the log's epoch
  double end = 0.0;
  int parent = -1;     ///< index into SpanLog::spans(); -1 = root
  uint64_t request = 0;
  std::vector<std::pair<std::string, std::string>> attrs;

  double duration() const { return end - start; }
  /// Attribute value, or "" when absent.
  const std::string& Attr(const std::string& key) const;
};

/// Total length of the union of `intervals`, each clipped to [lo, hi].
/// Overlapping intervals (parallel children) are counted once.
double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi);

/// Thread-safe append-only span store.
class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Seconds since the epoch on the steady clock.
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  /// Append a finished span; returns its index.
  int Add(Span span);

  /// Graft the phases of one ComputeSkyline run under `parent`, laid end
  /// to end from the parent's start in the paper's Fig. 7/8 order; the
  /// residual (total minus the named phases) becomes "other".
  void GraftRunStats(int parent, const sky::RunStats& stats);

  /// Graft an engine QueryTrace under `parent`. The engine stamps its
  /// spans relative to an epoch inside the call, so the trace is shifted
  /// to end when the parent (the benchmark's span around the call) ends.
  void GraftQueryTrace(int parent, const sky::obs::QueryTrace& trace);

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Child indices per span of a snapshot.
std::vector<std::vector<int>> ChildrenOf(const std::vector<Span>& spans);

/// Self time of spans[index]: its duration minus the part of its interval
/// that the union of its children's intervals covers.
double SelfTime(const std::vector<Span>& spans,
                const std::vector<std::vector<int>>& children, int index);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
