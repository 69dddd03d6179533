// Copyright (c) SkyBench-NG contributors.
// Seeded input generators of the repository benchmark: query specs for the
// cold sharded workload, the zipf-popular spec pool and the localized
// mutation batches of the hot read/write workload. Everything here is a
// pure function of the seed (and of the generated dataset it is given),
// so the engine only ever sees generated inputs and a seed reproduces a
// run's inputs exactly.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "query/query_spec.h"

namespace perfbench {

/// splitmix64 stream: portable, so a seed means the same inputs under any
/// standard library.
class Rng {
 public:
  /// Independent substream `tag` of `seed`.
  Rng(uint64_t seed, uint64_t tag);

  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform integer in [0, n); n > 0.
  size_t Below(size_t n);
  /// Log-uniform in [lo, hi]; 0 < lo <= hi.
  double LogUniform(double lo, double hi);

 private:
  uint64_t state_;
};

/// Per-column empirical quantiles from a strided row sample, used to place
/// constraint boxes of a chosen selectivity on any distribution.
class ColumnQuantiles {
 public:
  explicit ColumnQuantiles(const sky::Dataset& data, size_t sample_rows = 8192);
  /// Value below which a share `u` in [0, 1] of column `dim` lies.
  sky::Value At(int dim, double u) const;
  int dims() const { return static_cast<int>(sorted_.size()); }

 private:
  std::vector<std::vector<sky::Value>> sorted_;
};

/// Box on `dim` holding about `selectivity` of the rows, at a random place.
sky::DimConstraint BoxOf(const ColumnQuantiles& q, int dim, double selectivity,
                         Rng& rng);

/// One stratum of the cold workload's spec mix.
struct ColdShape {
  int keep = 8;       ///< dimensions kept by the projection
  int flips = 0;      ///< kept dimensions preferred larger (kMax)
  int boxes = 0;      ///< box constraints, on distinct dimensions
  double sel_lo = 1;  ///< per-box selectivity range (log-uniform)
  double sel_hi = 1;
  uint32_t band_k = 1;
  size_t top_k = 0;
};

/// The strata, cycled in a seeded order: every block of ColdShapes().size()
/// consecutive specs holds each stratum once. The i-th spec of a stratum
/// gets the same selectivities under every seed; the seed picks the
/// dimensions and places the boxes. So the cost mix is the same in every
/// run.
std::span<const ColdShape> ColdShapes();

/// Unique specs for the cold workload: no two share a view key, so every
/// query misses both the result cache and the view cache.
class ColdSpecGenerator {
 public:
  ColdSpecGenerator(uint64_t seed, const ColumnQuantiles& quantiles);
  sky::QuerySpec Next();
  sky::QuerySpec NextOfShape(size_t shape);

 private:
  Rng rng_;
  std::vector<Rng> selectivity_;  ///< per stratum, seed-independent
  const ColumnQuantiles& quantiles_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
  std::set<std::string> seen_;
};

/// The hot workload's spec pool of top-100 specs. Index = popularity rank;
/// rank r is narrow box-only when r % 10 < 3, an unconstrained projection
/// when r % 10 == 9, and otherwise a box-constrained view whose first box
/// lies on dimension 0 (the dimension mutations are localized on).
std::vector<sky::QuerySpec> MakeHotPool(uint64_t seed,
                                        const ColumnQuantiles& quantiles,
                                        size_t size);

/// Zipf popularity over ranks [0, n) with exponent theta.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double theta);
  size_t Sample(Rng& rng) const;
  double Probability(size_t rank) const;

 private:
  std::vector<double> cdf_;
};

/// Row-major copy of a dataset's current rows that the writer keeps in
/// step with every mutation it sends, to pick delete ids and to check the
/// engine's rows after the run.
class Mirror {
 public:
  explicit Mirror(const sky::Dataset& data);
  void Append(const sky::Dataset& rows);
  void Erase(std::span<const sky::PointId> ids);
  size_t count() const { return values_.size() / static_cast<size_t>(dims_); }
  const sky::Value* Row(size_t i) const {
    return values_.data() + i * static_cast<size_t>(dims_);
  }
  /// True when `data` holds exactly these rows in this order.
  bool Matches(const sky::Dataset& data) const;

 private:
  int dims_;
  std::vector<sky::Value> values_;
};

/// `rows` new points, uniform on every dimension except dimension 0, which
/// lies in one random band of width `band`: a burst of writes on one key
/// range, so a cached result whose dimension-0 box misses the band
/// survives the mutation.
sky::Dataset MakeInsertBatch(Rng& rng, int dims, size_t rows, double band);

/// `rows` distinct current ids whose dimension-0 value lies in one random
/// band (widened until it holds enough rows).
std::vector<sky::PointId> PickDeleteBatch(Rng& rng, const Mirror& mirror,
                                          size_t rows, double band);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
