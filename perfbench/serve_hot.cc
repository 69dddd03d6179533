// Copyright (c) SkyBench-NG contributors.
// Workload serve_hot_rw: closed-loop readers draw specs with zipfian
// popularity from a pool larger than the result cache, while one writer
// alternates InsertPoints and DeletePoints batches, one batch per fixed
// number of completed reads, on an unsharded engine with the default
// Config. The result cache, selective invalidation, delta repair and the
// zonemap repair do the work; merge and planning do none.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/timer.h"
#include "data/generator.h"
#include "gen.h"
#include "stats.h"

namespace perfbench {

namespace {

constexpr size_t kRows = 200'000;
constexpr int kDims = 8;
constexpr size_t kPoolSize = 256;  // > the 128-entry default result cache
constexpr double kTheta = 0.99;
constexpr size_t kWarmSpecs = 128;  // the most popular specs, once each
constexpr size_t kBatchRows = 64;
constexpr double kBand = 0.01;  // width of a batch's dimension-0 key range
constexpr size_t kReadsPerMutation = 64;
constexpr double kReadsPerSecond = 600.0;
constexpr int kSetupRepeats = 3;
constexpr int kMaxReaders = 3;
const char kName[] = "indep";

int Readers() { return std::clamp(HostThreads() - 1, 1, kMaxReaders); }

sky::Options ReadOptions(bool traced) {
  sky::Options opts;
  opts.algorithm = sky::Algorithm::kAuto;
  opts.threads = HostThreads();
  opts.trace = traced;
  opts.count_dts = traced;
  return opts;
}

struct Served {
  std::unique_ptr<Mirror> mirror;
  std::vector<sky::QuerySpec> pool;
  std::unique_ptr<sky::SkylineEngine> engine;
};

/// Generate, register and warm one engine; the spans go to `log`.
Served SetUp(const Args& args, SpanLog& log) {
  Served s;
  const double gen_start = log.Now();
  sky::Dataset data = sky::GenerateSynthetic(sky::Distribution::kIndependent,
                                             kRows, kDims, args.seed);
  log.Add(Span{"data.generate", gen_start, log.Now(), -1, 0, {}});
  s.mirror = std::make_unique<Mirror>(data);
  s.pool = MakeHotPool(args.seed, ColumnQuantiles(data), kPoolSize);
  s.engine = std::make_unique<sky::SkylineEngine>();
  const double reg_start = log.Now();
  s.engine->RegisterDataset(kName, std::move(data));
  log.Add(Span{"query.register", reg_start, log.Now(), -1, 0, {}});
  const sky::Options opts = ReadOptions(false);
  ParallelFor(kWarmSpecs, Readers(), [&](size_t i) {
    s.engine->Execute(kName, s.pool[i], opts);
  });
  return s;
}

struct Window {
  std::vector<double> reads;      ///< read latencies, seconds
  std::vector<double> plain;      ///< the untraced reads' latencies
  std::vector<double> traced;     ///< the traced reads' latencies
  std::vector<double> mutations;  ///< mutation latencies, seconds
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall = 0.0;
};

/// `total_reads` reads split over the readers, and one mutation batch per
/// kReadsPerMutation completed reads. With a log, every second read of each
/// reader is traced.
Window RunWindow(Served& s, uint64_t seed, size_t total_reads, SpanLog* log) {
  const int readers = Readers();
  const size_t per_reader = total_reads / static_cast<size_t>(readers);
  const size_t reads = per_reader * static_cast<size_t>(readers);
  const size_t batches = reads / kReadsPerMutation;
  const ZipfSampler zipf(s.pool.size(), kTheta);
  const sky::Options plain_opts = ReadOptions(false);
  const sky::Options traced_opts = ReadOptions(true);
  std::vector<std::vector<double>> plain(static_cast<size_t>(readers));
  std::vector<std::vector<double>> traced(static_cast<size_t>(readers));
  std::atomic<uint64_t> failed{0};
  std::atomic<size_t> done{0};  // reads completed
  std::mutex mu;                 // pairs with batch_due
  std::condition_variable batch_due;
  Window w;

  const auto reader = [&](int r) {
    Rng rng(seed, 0x100 + static_cast<uint64_t>(r));
    for (size_t k = 0; k < per_reader; ++k) {
      const sky::QuerySpec& spec = s.pool[zipf.Sample(rng)];
      const uint64_t request = static_cast<uint64_t>(r) << 32 | k;
      const bool trace = log != nullptr && k % 2 == 1;
      const Read read =
          TimedExecute(*s.engine, kName, spec, trace ? traced_opts : plain_opts,
                       trace ? log : nullptr, request);
      (trace ? traced : plain)[static_cast<size_t>(r)].push_back(read.seconds);
      if (!read.ok) ++failed;
      if (++done % kReadsPerMutation == 0) {
        // Taking the lock orders this increment before the writer's check.
        { std::lock_guard<std::mutex> lock(mu); }
        batch_due.notify_one();
      }
    }
  };
  const auto writer = [&] {
    Rng rng(seed, 0x200);
    for (size_t j = 0; j < batches; ++j) {
      {
        std::unique_lock<std::mutex> lock(mu);
        batch_due.wait(lock, [&] { return done >= (j + 1) * kReadsPerMutation; });
      }
      const bool insert = j % 2 == 0;
      const sky::Dataset rows =
          insert ? MakeInsertBatch(rng, kDims, kBatchRows, kBand)
                 : sky::Dataset();
      const std::vector<sky::PointId> ids =
          insert ? std::vector<sky::PointId>{}
                 : PickDeleteBatch(rng, *s.mirror, kBatchRows, kBand);
      const double start = log != nullptr ? log->Now() : 0.0;
      sky::WallTimer timer;
      try {
        if (insert) {
          s.engine->InsertPoints(kName, rows);
        } else {
          s.engine->DeletePoints(kName, ids);
        }
        w.mutations.push_back(timer.Seconds());
      } catch (const std::exception&) {
        ++failed;
      }
      if (log != nullptr) {
        log->Add(Span{insert ? "insert" : "delete", start, log->Now(), -1,
                      (uint64_t{1} << 63) | j, {}});
      }
      if (insert) {
        s.mirror->Append(rows);
      } else {
        s.mirror->Erase(ids);
      }
    }
  };

  sky::WallTimer wall;
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) threads.emplace_back(reader, r);
  threads.emplace_back(writer);
  for (std::thread& t : threads) t.join();
  w.wall = wall.Seconds();
  const auto append = [](std::vector<double>& to,
                          const std::vector<std::vector<double>>& from) {
    for (const std::vector<double>& v : from) to.insert(to.end(), v.begin(), v.end());
  };
  append(w.plain, plain);
  append(w.traced, traced);
  w.reads = w.plain;
  w.reads.insert(w.reads.end(), w.traced.begin(), w.traced.end());
  w.attempted = reads + batches;
  w.failed = failed.load();
  return w;
}

/// After quiescing: the engine's rows must equal the writer's mirror, and
/// every pool spec must answer exactly what RunQuery computes on them with
/// a different algorithm. Returns {checks, failures}.
std::pair<uint64_t, uint64_t> Verify(Served& s) {
  const std::shared_ptr<const sky::Dataset> rows = s.engine->Find(kName);
  uint64_t failed = rows != nullptr && s.mirror->Matches(*rows) ? 0 : 1;
  if (rows == nullptr) return {1 + s.pool.size(), 1 + s.pool.size()};
  sky::Options ref;
  ref.algorithm = sky::Algorithm::kBSkyTree;
  ref.threads = 1;
  const sky::Options opts = ReadOptions(false);
  std::atomic<uint64_t> wrong{0};
  wrong += ParallelFor(s.pool.size(), HostThreads(), [&](size_t i) {
    const Read got = TimedExecute(*s.engine, kName, s.pool[i], opts, nullptr, i);
    const sky::QueryResult want = sky::RunQuery(*rows, s.pool[i], ref);
    if (!got.ok || got.digest != DigestOf(want.ids, want.dominator_counts)) {
      ++wrong;
    }
  });
  return {1 + s.pool.size(), failed + wrong.load()};
}

}  // namespace

Outcome RunServeHotRw(const Args& args) {
  const size_t reads = static_cast<size_t>(
      std::max(1.0, std::round(kReadsPerSecond * args.seconds)));
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
    const double cpu = CpuSeconds();
    const Window w = RunWindow(s, args.seed, reads, nullptr);
    const double rss = PeakRssMb();
    out.Add("window_cpu_cores", (CpuSeconds() - cpu) / w.wall, "cores", 1);
    out.Add("setup_s", Median(setups), "s", setups.size());
    AddLatencyMetrics(out, "latency", w.reads, true);
    out.Add("ops_per_s", static_cast<double>(w.reads.size()) / w.wall, "1/s",
            w.reads.size());
    out.Add("peak_rss_mb", rss, "MB", 1);
    AddLatencyMetrics(out, "mutation", w.mutations, false);
    const auto [checks, wrong] = Verify(s);
    out.attempted = w.attempted + checks;
    out.failed = w.failed + wrong;
    return out;
  }

  // Traced run: every second read traced.
  Served s = SetUp(args, log);
  ServeWindow traced_window;
  traced_window.before = s.engine->Metrics().Snapshot();
  const Window w = RunWindow(s, args.seed, reads, &log);
  traced_window.after = s.engine->Metrics().Snapshot();
  traced_window.spans = log.spans();
  out.spans = traced_window.spans;
  traced_window.reads = w.reads.size();
  traced_window.mutations = w.mutations.size();
  const auto [checks, wrong] = Verify(s);
  out.attempted = w.attempted + checks;
  out.failed = w.failed + wrong;
  LayerReport report;
  AddServeLayers(report, traced_window);
  report.Set("obs.trace_overhead_frac",
             Median(w.traced) / Median(w.plain) - 1.0, w.traced.size());
  out.metrics = report.Finish();
  return out;
}

}  // namespace perfbench
