// Copyright (c) SkyBench-NG contributors.
#include "spans.h"

#include <algorithm>

namespace perfbench {

const std::string& Span::Attr(const std::string& key) const {
  static const std::string kEmpty;
  for (const auto& [k, v] : attrs) {
    if (k == key) return v;
  }
  return kEmpty;
}

double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return covered;
}

int SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::GraftRunStats(int parent, const sky::RunStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  const Span base = spans_[static_cast<size_t>(parent)];
  const std::pair<const char*, double> phases[] = {
      {"init", stats.init_seconds},
      {"prefilter", stats.prefilter_seconds},
      {"pivot", stats.pivot_seconds},
      {"phase1", stats.phase1_seconds},
      {"phase2", stats.phase2_seconds},
      {"compress", stats.compress_seconds},
  };
  double at = base.start;
  double named = 0.0;
  for (const auto& [name, seconds] : phases) {
    spans_.push_back(Span{name, at, at + seconds, parent, base.request, {}});
    at += seconds;
    named += seconds;
  }
  const double other = std::max(0.0, stats.total_seconds - named);
  spans_.push_back(Span{"other", at, at + other, parent, base.request, {}});
}

void SpanLog::GraftQueryTrace(int parent, const sky::obs::QueryTrace& trace) {
  if (trace.spans.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const Span base = spans_[static_cast<size_t>(parent)];
  const sky::obs::TraceSpan& root = trace.spans.front();
  const double shift =
      base.end - (root.start_seconds + root.duration_seconds);
  const int first = static_cast<int>(spans_.size());
  for (const sky::obs::TraceSpan& s : trace.spans) {
    Span out;
    out.name = s.name;
    out.start = s.start_seconds + shift;
    out.end = out.start + s.duration_seconds;
    out.parent = s.parent < 0 ? parent : first + s.parent;
    out.request = base.request;
    out.attrs = s.attrs;
    spans_.push_back(std::move(out));
  }
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<std::vector<int>> ChildrenOf(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  return children;
}

double SelfTime(const std::vector<Span>& spans,
                const std::vector<std::vector<int>>& children, int index) {
  const Span& s = spans[static_cast<size_t>(index)];
  std::vector<std::pair<double, double>> intervals;
  for (const int c : children[static_cast<size_t>(index)]) {
    intervals.emplace_back(spans[static_cast<size_t>(c)].start,
                           spans[static_cast<size_t>(c)].end);
  }
  return s.duration() - CoveredLength(std::move(intervals), s.start, s.end);
}

}  // namespace perfbench
