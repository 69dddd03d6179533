// Copyright (c) SkyBench-NG contributors.
#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// First `k` entries of a seeded shuffle of [0, n).
std::vector<int> Choose(Rng& rng, int n, int k) {
  std::vector<int> all(static_cast<size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  for (int i = 0; i < k; ++i) {
    const size_t j = static_cast<size_t>(i) +
                     rng.Below(static_cast<size_t>(n - i));
    std::swap(all[static_cast<size_t>(i)], all[j]);
  }
  all.resize(static_cast<size_t>(k));
  return all;
}

/// Preferences keeping `kept` (the first `flips` of them kMax, the rest
/// kMin) and ignoring every other dimension.
std::vector<sky::Preference> PreferencesOf(int dims,
                                           const std::vector<int>& kept,
                                           int flips) {
  std::vector<sky::Preference> prefs(static_cast<size_t>(dims),
                                     sky::Preference::kIgnore);
  for (size_t i = 0; i < kept.size(); ++i) {
    prefs[static_cast<size_t>(kept[i])] = static_cast<int>(i) < flips
                                              ? sky::Preference::kMax
                                              : sky::Preference::kMin;
  }
  return prefs;
}

// Strata of the cold mix (d = 8). Heavy near-unconstrained full-dimension
// queries exercise the M(S) merge, projections shrink the skyline, boxes
// exercise pruning and the zonemap, and one stratum each covers band_k = 2
// and top_k.
constexpr ColdShape kColdShapes[] = {
    {8, 0, 1, 0.85, 0.99, 1, 0},  {8, 2, 0, 1, 1, 1, 0},
    {8, 3, 0, 1, 1, 1, 0},        {7, 1, 0, 1, 1, 1, 0},
    {6, 2, 0, 1, 1, 1, 0},        {5, 1, 0, 1, 1, 1, 0},
    {8, 1, 1, 0.2, 0.6, 1, 0},    {8, 0, 1, 0.05, 0.3, 1, 0},
    {8, 0, 2, 0.2, 0.6, 1, 0},    {7, 2, 1, 0.1, 0.6, 1, 0},
    {6, 1, 2, 0.1, 0.6, 1, 0},    {5, 2, 1, 0.01, 0.2, 1, 0},
    {8, 1, 2, 0.01, 0.3, 1, 0},   {7, 0, 1, 0.3, 0.6, 1, 0},
    {8, 2, 1, 0.1, 0.6, 2, 0},    {6, 1, 1, 0.1, 0.6, 1, 100},
};

/// Every hot-pool spec asks for one page of ranked results, so a cache hit
/// copies the same small answer whatever the spec.
constexpr size_t kHotTopK = 100;

/// Fixed streams of the hot pool's per-rank shapes and the cold strata's
/// selectivities: independent of the seed, so the cost mix of a run does
/// not change with it.
constexpr uint64_t kHotShapeSeed = 0x5eed0407;
constexpr uint64_t kColdShapeSeed = 0x5eedc01d;

}  // namespace

Rng::Rng(uint64_t seed, uint64_t tag) : state_(Mix(seed ^ Mix(tag))) {}

uint64_t Rng::Next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

size_t Rng::Below(size_t n) { return static_cast<size_t>(Next() % n); }

double Rng::LogUniform(double lo, double hi) {
  return lo * std::exp(Uniform() * std::log(hi / lo));
}

ColumnQuantiles::ColumnQuantiles(const sky::Dataset& data,
                                 size_t sample_rows) {
  const size_t n = data.count();
  if (n == 0) throw std::invalid_argument("quantiles of an empty dataset");
  const size_t step = std::max<size_t>(1, n / std::max<size_t>(1, sample_rows));
  sorted_.resize(static_cast<size_t>(data.dims()));
  for (int d = 0; d < data.dims(); ++d) {
    std::vector<sky::Value>& col = sorted_[static_cast<size_t>(d)];
    for (size_t i = 0; i < n; i += step) col.push_back(data.Row(i)[d]);
    std::sort(col.begin(), col.end());
  }
}

sky::Value ColumnQuantiles::At(int dim, double u) const {
  const std::vector<sky::Value>& col = sorted_[static_cast<size_t>(dim)];
  const double pos = std::clamp(u, 0.0, 1.0) * static_cast<double>(col.size() - 1);
  return col[static_cast<size_t>(std::llround(pos))];
}

sky::DimConstraint BoxOf(const ColumnQuantiles& q, int dim, double selectivity,
                         Rng& rng) {
  const double from = rng.Uniform() * (1.0 - selectivity);
  sky::DimConstraint c;
  c.dim = dim;
  c.lo = q.At(dim, from);
  c.hi = q.At(dim, from + selectivity);
  return c;
}

std::span<const ColdShape> ColdShapes() { return kColdShapes; }

ColdSpecGenerator::ColdSpecGenerator(uint64_t seed,
                                     const ColumnQuantiles& quantiles)
    : rng_(seed, /*tag=*/0xC01D), quantiles_(quantiles) {
  for (size_t s = 0; s < ColdShapes().size(); ++s) {
    selectivity_.emplace_back(kColdShapeSeed, s);
  }
}

sky::QuerySpec ColdSpecGenerator::Next() {
  if (pos_ == order_.size()) {
    const int strata = static_cast<int>(ColdShapes().size());
    const std::vector<int> block = Choose(rng_, strata, strata);
    order_.assign(block.begin(), block.end());
    pos_ = 0;
  }
  return NextOfShape(order_[pos_++]);
}

sky::QuerySpec ColdSpecGenerator::NextOfShape(size_t shape) {
  const ColdShape& s = ColdShapes()[shape];
  const int dims = quantiles_.dims();
  for (int attempt = 0; attempt < 1000; ++attempt) {
    sky::QuerySpec spec;
    spec.preferences = PreferencesOf(dims, Choose(rng_, dims, s.keep), s.flips);
    for (const int dim : Choose(rng_, dims, s.boxes)) {
      const double sel = selectivity_[shape].LogUniform(s.sel_lo, s.sel_hi);
      spec.constraints.push_back(BoxOf(quantiles_, dim, sel, rng_));
    }
    spec.band_k = s.band_k;
    spec.top_k = s.top_k;
    if (seen_.insert(spec.Canonicalize(dims).ViewKey()).second) return spec;
  }
  throw std::runtime_error("cold spec stratum exhausted");
}

std::vector<sky::QuerySpec> MakeHotPool(uint64_t seed,
                                        const ColumnQuantiles& quantiles,
                                        size_t size) {
  // Each rank's shape (kind, kept and flipped counts, selectivities) comes
  // from a fixed stream, so the popularity-weighted mix is the same for
  // every seed; the seed only places dimensions and boxes.
  Rng place(seed, /*tag=*/0x407);
  const int dims = quantiles.dims();
  std::vector<sky::QuerySpec> pool;
  std::set<std::string> seen;
  while (pool.size() < size) {
    const size_t rank = pool.size();
    Rng shape(kHotShapeSeed, rank);
    const size_t kind = rank % 10;
    const int other =
        1 + static_cast<int>(place.Below(static_cast<size_t>(dims - 1)));
    sky::QuerySpec spec;
    if (kind < 3) {
      // Box-only and narrow: every dimension minimized and a few thousand
      // rows matched, where the zonemap direct path can answer.
      spec.constraints.push_back(
          BoxOf(quantiles, 0, shape.LogUniform(0.02, 0.1), place));
      spec.constraints.push_back(
          BoxOf(quantiles, other, shape.LogUniform(0.1, 0.5), place));
    } else if (kind < 9) {
      // Box-constrained view: kept dimensions 6..8, some preferred
      // larger, first box on dimension 0.
      const int keep = 6 + static_cast<int>(shape.Below(3));
      const int flips = static_cast<int>(shape.Below(3));
      spec.preferences = PreferencesOf(dims, Choose(place, dims, keep), flips);
      spec.constraints.push_back(
          BoxOf(quantiles, 0, shape.LogUniform(0.03, 0.3), place));
      if (shape.Uniform() < 0.5) {
        spec.constraints.push_back(
            BoxOf(quantiles, other, shape.LogUniform(0.3, 0.8), place));
      }
    } else {
      // Unconstrained projection onto 5..7 dimensions.
      const int keep = 5 + static_cast<int>(shape.Below(3));
      const int flips = static_cast<int>(shape.Below(3));
      spec.preferences = PreferencesOf(dims, Choose(place, dims, keep), flips);
    }
    spec.top_k = kHotTopK;
    if (seen.insert(spec.Canonicalize(dims).CanonicalKey()).second) {
      pool.push_back(std::move(spec));
    }
  }
  return pool;
}

ZipfSampler::ZipfSampler(size_t n, double theta) : cdf_(n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double ZipfSampler::Probability(size_t rank) const {
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

Mirror::Mirror(const sky::Dataset& data) : dims_(data.dims()) {
  Append(data);
}

void Mirror::Append(const sky::Dataset& rows) {
  for (size_t i = 0; i < rows.count(); ++i) {
    values_.insert(values_.end(), rows.Row(i), rows.Row(i) + dims_);
  }
}

void Mirror::Erase(std::span<const sky::PointId> ids) {
  std::vector<uint8_t> gone(count(), 0);
  for (const sky::PointId id : ids) gone.at(id) = 1;
  size_t out = 0;
  for (size_t i = 0; i < gone.size(); ++i) {
    if (gone[i]) continue;
    std::copy_n(Row(i), dims_, values_.data() + out * static_cast<size_t>(dims_));
    ++out;
  }
  values_.resize(out * static_cast<size_t>(dims_));
}

bool Mirror::Matches(const sky::Dataset& data) const {
  if (data.dims() != dims_ || data.count() != count()) return false;
  for (size_t i = 0; i < count(); ++i) {
    if (std::memcmp(data.Row(i), Row(i),
                    sizeof(sky::Value) * static_cast<size_t>(dims_)) != 0) {
      return false;
    }
  }
  return true;
}

sky::Dataset MakeInsertBatch(Rng& rng, int dims, size_t rows, double band) {
  sky::Dataset batch(dims, rows);
  const double from = rng.Uniform() * (1.0 - band);
  for (size_t i = 0; i < rows; ++i) {
    sky::Value* row = batch.MutableRow(i);
    row[0] = static_cast<sky::Value>(from + rng.Uniform() * band);
    for (int d = 1; d < dims; ++d) {
      row[d] = static_cast<sky::Value>(rng.Uniform());
    }
  }
  return batch;
}

std::vector<sky::PointId> PickDeleteBatch(Rng& rng, const Mirror& mirror,
                                          size_t rows, double band) {
  if (mirror.count() < rows) throw std::invalid_argument("too few rows");
  const double center = rng.Uniform();
  std::vector<sky::PointId> candidates;
  for (double width = band; candidates.size() < rows; width *= 2.0) {
    candidates.clear();
    for (size_t i = 0; i < mirror.count(); ++i) {
      if (std::abs(mirror.Row(i)[0] - center) <= width / 2.0) {
        candidates.push_back(static_cast<sky::PointId>(i));
      }
    }
  }
  for (size_t i = 0; i < rows; ++i) {
    std::swap(candidates[i], candidates[i + rng.Below(candidates.size() - i)]);
  }
  candidates.resize(rows);
  return candidates;
}

}  // namespace perfbench
