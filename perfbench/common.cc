// Copyright (c) SkyBench-NG contributors.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "bench.h"
#include "core/algorithm_registry.h"
#include "stats.h"

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<std::pair<std::string, std::string>> BuildLayerTable() {
  std::vector<std::pair<std::string, std::string>> t = {
      {"core.init_ms", "ms"},
      {"core.prefilter_ms", "ms"},
      {"core.pivot_ms", "ms"},
      {"core.phase1_ms", "ms"},
      {"core.phase2_ms", "ms"},
      {"core.compress_ms", "ms"},
      {"core.other_ms", "ms"},
      {"core.prefilter_removed_frac", "fraction"},
      {"dominance.tests_per_row", "count"},
      {"dominance.mask_skip_frac", "fraction"},
      {"dominance.tests_per_us", "1/us"},
      {"parallel.speedup", "x"},
      {"parallel.tasks_per_query", "count"},
      {"parallel.parks_per_query", "count"},
      {"parallel.steal_frac", "fraction"},
      {"parallel.inline_frac", "fraction"},
      {"query.plan_us", "us"},
      {"query.pruned_frac", "fraction"},
      {"query.shard_max_ms", "ms"},
      {"query.shard_skew", "x"},
      {"query.merge_ms", "ms"},
      {"query.merge_union_rows", "rows"},
      {"query.merge_yield", "fraction"},
      {"query.merge_dom_tests", "count"},
  };
  for (const sky::AlgorithmDescriptor& d : sky::AlgorithmTable()) {
    if (d.auto_candidate) {
      t.emplace_back(std::string("query.auto_pick.") + d.parse_name,
                     "fraction");
    }
  }
  const std::pair<const char*, const char*> rest[] = {
      {"query.view_build_frac", "fraction"},
      {"query.view_ms", "ms"},
      {"query.hit_us", "us"},
      {"query.miss_ms", "ms"},
      {"query.cache_put_us", "us"},
      {"query.cache.hit_rate", "fraction"},
      {"query.cache.evictions_per_kread", "count"},
      {"query.cache.invalidated_per_mutation", "count"},
      {"query.delta.repair_dom_tests_per_row", "count"},
      {"query.delta.sketch_rebuilds", "count"},
      {"index.zonemap_ms", "ms"},
      {"index.zonemap_build_frac", "fraction"},
      {"index.zonemap_repairs", "count"},
      {"data.generate_s", "s"},
      {"query.register_s", "s"},
      {"obs.trace_overhead_frac", "fraction"},
      {"obs.unaccounted_frac", "fraction"},
  };
  for (const auto& [name, unit] : rest) t.emplace_back(name, unit);
  return t;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median of `values` (0 when empty) reported into `report`.
void SetMedian(LayerReport& report, const std::string& name,
               const std::vector<double>& values, double scale = 1.0) {
  if (values.empty()) return;
  report.Set(name, Median(values) * scale, values.size());
}

}  // namespace

int HostThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto quoted = [](const std::string& text) {
    std::string q = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return q + "\"";
  };
  const std::vector<std::vector<int>> children = ChildrenOf(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::string attrs;
    for (const auto& [k, v] : s.attrs) {
      attrs += (attrs.empty() ? "" : ", ") + quoted(k) + ": " + quoted(v);
    }
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": %s, \"start\": %.9f, \"end\": %.9f, "
                 "\"parent\": %d, \"request\": %llu, \"self\": %.9f, "
                 "\"attrs\": {%s}}\n",
                 i, quoted(s.name).c_str(), s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.request),
                 SelfTime(spans, children, static_cast<int>(i)), attrs.c_str());
  }
  return std::fclose(f) == 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

Digest DigestOf(const std::vector<sky::PointId>& ids,
                const std::vector<uint32_t>& dominator_counts) {
  Digest d;
  for (size_t i = 0; i < ids.size(); ++i) {
    const uint64_t dc = i < dominator_counts.size() ? dominator_counts[i] : 0;
    const uint64_t h = Mix((static_cast<uint64_t>(ids[i]) << 32) | dc);
    ++d.count;
    d.sum += h;
    d.xors ^= Mix(h);
  }
  return d;
}

Read TimedExecute(sky::SkylineEngine& engine, const std::string& name,
                  const sky::QuerySpec& spec, const sky::Options& opts,
                  SpanLog* log, uint64_t request) {
  Read read;
  const double start = log != nullptr ? log->Now() : 0.0;
  const auto begin = std::chrono::steady_clock::now();
  try {
    const sky::QueryResult r = engine.Execute(name, spec, opts);
    read.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
    read.ok = r.status == sky::Status::kOk && !r.stale && !r.truncated;
    read.digest = DigestOf(r.ids, r.dominator_counts);
    if (log != nullptr) {
      const int span =
          log->Add(Span{"read", start, log->Now(), -1, request, {}});
      if (r.trace != nullptr) log->GraftQueryTrace(span, *r.trace);
    }
  } catch (const std::exception&) {
    read.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
  }
  return read;
}

size_t ParallelFor(size_t n, int workers,
                   const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::atomic<size_t> thrown{0};
  const auto body = [&] {
    for (size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (const std::exception&) {
        ++thrown;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int w = 1; w < workers; ++w) threads.emplace_back(body);
  body();
  for (std::thread& t : threads) t.join();
  return thrown.load();
}

void AddLatencyMetrics(Outcome& out, const std::string& prefix,
                       const std::vector<double>& seconds, bool with_p99) {
  if (seconds.empty()) return;
  const size_t n = seconds.size();
  if (n >= 2) {
    const Quartiles q = QuartilesOf(seconds);
    char line[128];
    std::snprintf(line, sizeof(line), "%s quartiles %.6f / %.6f / %.6f ms",
                  prefix.c_str(), q.q1 * 1e3, q.q2 * 1e3, q.q3 * 1e3);
    out.notes.push_back(line);
  }
  std::vector<double> percentiles = {50, 90};
  if (with_p99) percentiles.push_back(99);
  for (const double p : percentiles) {
    const std::string name =
        prefix + "_p" + std::to_string(static_cast<int>(p)) + "_ms";
    out.Add(name, Percentile(seconds, p) * 1e3, "ms", n);
    if (n < MinSamplesFor(p)) {
      out.notes.push_back(name + " rests on " + std::to_string(n) +
                          " samples, below the " +
                          std::to_string(MinSamplesFor(p)) + " it needs");
    }
  }
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricTable() {
  static const std::vector<std::pair<std::string, std::string>> table =
      BuildLayerTable();
  return table;
}

void LayerReport::Set(const std::string& name, double value, size_t samples) {
  values_[name] = {value, samples};
}

std::vector<Metric> LayerReport::Finish() const {
  std::vector<Metric> out;
  for (const auto& [name, unit] : LayerMetricTable()) {
    const auto it = values_.find(name);
    out.push_back(it == values_.end()
                      ? Metric{name, 0.0, unit, 0}
                      : Metric{name, it->second.first, unit, it->second.second});
  }
  return out;
}

double Delta(const sky::obs::MetricsSnapshot& before,
             const sky::obs::MetricsSnapshot& after, const std::string& name,
             const sky::obs::Labels& labels) {
  return after.Value(name, labels) - before.Value(name, labels);
}

void AddServeLayers(LayerReport& report, const ServeWindow& w) {
  const std::vector<Span>& spans = w.spans;
  const std::vector<std::vector<int>> children = ChildrenOf(spans);
  std::vector<double> plan, merge, union_rows, yield, merge_dts, view,
      hit, miss, put, zonemap, shard_max, shard_skew, unaccounted;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name == "data.generate") report.Set("data.generate_s", s.duration());
    if (s.name == "query.register") report.Set("query.register_s", s.duration());
    if (s.name == "plan") plan.push_back(s.duration());
    if (s.name == "cache.get") hit.push_back(s.duration());
    if (s.name == "cache.put") put.push_back(s.duration());
    if (s.name == "view" && s.Attr("source") == "build") {
      view.push_back(s.duration());
    }
    if (s.name == "zonemap" && s.Attr("source") == "build") {
      zonemap.push_back(s.duration());
    }
    if (s.name == "merge") {
      merge.push_back(s.duration());
      const double u = std::stod("0" + s.Attr("union"));
      union_rows.push_back(u);
      yield.push_back(Ratio(std::stod("0" + s.Attr("members")), u));
      if (!s.Attr("dom_tests").empty()) {
        merge_dts.push_back(std::stod(s.Attr("dom_tests")));
      }
    }
    if (s.name != "query" || s.Attr("cache") != "miss") continue;
    // An engine miss: its children are the pipeline stages.
    miss.push_back(s.duration());
    double max_shard = 0.0;
    double sum_shard = 0.0;
    size_t shards = 0;
    std::vector<std::pair<double, double>> stages;
    for (const int c : children[i]) {
      const Span& child = spans[static_cast<size_t>(c)];
      stages.emplace_back(child.start, child.end);
      if (child.name.rfind("shard[", 0) == 0) {
        max_shard = std::max(max_shard, child.duration());
        sum_shard += child.duration();
        ++shards;
      }
    }
    if (shards > 0) {
      shard_max.push_back(max_shard);
      shard_skew.push_back(Ratio(max_shard, sum_shard / shards));
    }
    // Share of the benchmark-timed call the stage spans do not cover.
    if (s.parent >= 0) {
      const Span& call = spans[static_cast<size_t>(s.parent)];
      unaccounted.push_back(
          1.0 - Ratio(CoveredLength(stages, call.start, call.end),
                      call.duration()));
    }
  }
  SetMedian(report, "query.plan_us", plan, 1e6);
  SetMedian(report, "query.merge_ms", merge, 1e3);
  SetMedian(report, "query.merge_union_rows", union_rows);
  SetMedian(report, "query.merge_yield", yield);
  SetMedian(report, "query.merge_dom_tests", merge_dts);
  SetMedian(report, "query.view_ms", view, 1e3);
  SetMedian(report, "query.hit_us", hit, 1e6);
  SetMedian(report, "query.miss_ms", miss, 1e3);
  SetMedian(report, "query.cache_put_us", put, 1e6);
  SetMedian(report, "index.zonemap_ms", zonemap, 1e3);
  SetMedian(report, "query.shard_max_ms", shard_max, 1e3);
  SetMedian(report, "query.shard_skew", shard_skew);
  SetMedian(report, "obs.unaccounted_frac", unaccounted);

  const auto d = [&](const std::string& name,
                     const sky::obs::Labels& labels = {}) {
    return Delta(w.before, w.after, name, labels);
  };
  const double pruned = d("sky_planner_shards_pruned_total");
  report.Set("query.pruned_frac",
             Ratio(pruned, pruned + d("sky_planner_shards_executed_total")),
             static_cast<size_t>(d("sky_planner_plans_total")));

  double executions = 0.0;
  for (const sky::AlgorithmDescriptor& a : sky::AlgorithmTable()) {
    executions += d("sky_engine_algorithm_total", {{"algo", a.name}});
  }
  for (const sky::AlgorithmDescriptor& a : sky::AlgorithmTable()) {
    if (!a.auto_candidate) continue;
    report.Set(std::string("query.auto_pick.") + a.parse_name,
               Ratio(d("sky_engine_algorithm_total", {{"algo", a.name}}),
                     executions),
               static_cast<size_t>(executions));
  }
  report.Set("query.view_build_frac",
             Ratio(d("sky_engine_view_builds_total"), executions),
             static_cast<size_t>(executions));

  const double hits = d("sky_result_cache_hits_total");
  const double misses = d("sky_result_cache_misses_total");
  report.Set("query.cache.hit_rate", Ratio(hits, hits + misses),
             static_cast<size_t>(hits + misses));
  report.Set("query.cache.evictions_per_kread",
             Ratio(d("sky_result_cache_evictions_total") * 1000.0,
                   static_cast<double>(w.reads)),
             w.reads);
  report.Set("query.cache.invalidated_per_mutation",
             Ratio(d("sky_invalidated_results_total"),
                   static_cast<double>(w.mutations)),
             w.mutations);
  const double rows_mutated = d("sky_mutation_rows_inserted_total") +
                              d("sky_mutation_rows_deleted_total");
  report.Set("query.delta.repair_dom_tests_per_row",
             Ratio(d("sky_mutation_repair_dom_tests_total"), rows_mutated),
             static_cast<size_t>(rows_mutated));
  report.Set("query.delta.sketch_rebuilds", d("sky_sketch_rebuilds_total"),
             w.mutations);
  const double zm_hits = d("sky_zonemap_cache_hits_total");
  const double zm_misses = d("sky_zonemap_cache_misses_total");
  report.Set("index.zonemap_build_frac", Ratio(zm_misses, zm_hits + zm_misses),
             static_cast<size_t>(zm_hits + zm_misses));
  report.Set("index.zonemap_repairs", d("sky_zonemap_repairs_total"),
             w.mutations);

  const double tasks = d("sky_executor_tasks_total");
  const double inline_runs = d("sky_executor_inline_runs_total");
  const double reads = static_cast<double>(w.reads);
  report.Set("parallel.tasks_per_query", Ratio(tasks, reads), w.reads);
  report.Set("parallel.parks_per_query",
             Ratio(d("sky_executor_parks_total"), reads), w.reads);
  report.Set("parallel.steal_frac",
             Ratio(d("sky_executor_steals_total"), tasks),
             static_cast<size_t>(tasks));
  report.Set("parallel.inline_frac", Ratio(inline_runs, tasks + inline_runs),
             static_cast<size_t>(tasks + inline_runs));
}

}  // namespace perfbench
