// Percentiles for the end-to-end benchmark.
//
// Nearest rank, the rule the query engine uses (src/query/engine.cpp): the
// p-th percentile of n sorted samples is the ceil(n*p/100)-th smallest.  A
// percentile is only reported when at least ten samples lie beyond it, so
// p90 needs 100 samples and p99 needs 1000; below that the helper refuses
// rather than print a tail made of one or two values.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace causeway::bench {

// Samples beyond a reported percentile, at the least.
inline constexpr std::size_t kMinSamplesBeyond = 10;

// Smallest sample count for which percentile `pct` (1..99) is reported.
inline std::size_t min_samples_for(int pct) {
  // Samples beyond rank r are n - r with r = ceil(n*pct/100); solve for the
  // smallest n with n - r >= kMinSamplesBeyond.
  std::size_t n = 1;
  while (n - (n * static_cast<std::size_t>(pct) + 99) / 100 <
         kMinSamplesBeyond) {
    ++n;
  }
  return n;
}

class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void reserve(std::size_t n) { values_.reserve(n); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double sum() const {
    double s = 0;
    for (const double v : values_) s += v;
    return s;
  }
  double mean() const { return values_.empty() ? 0.0 : sum() / size(); }

  // Nearest-rank percentile, or nullopt when fewer than kMinSamplesBeyond
  // samples would lie beyond it.
  std::optional<double> percentile(int pct) const {
    if (values_.empty() || size() < min_samples_for(pct)) return std::nullopt;
    return nearest_rank(pct);
  }

  // Nearest-rank median of a handful of repetitions (set-up times), where
  // the ten-beyond rule cannot apply; 0 when empty.
  double median() const { return values_.empty() ? 0.0 : nearest_rank(50); }

  // The highest of p99, p90 and p50 the sample count supports; `pct`
  // receives which one (0 and a value of 0 when not even p50 is).
  double tail(int* pct = nullptr) const {
    for (const int p : {99, 90, 50}) {
      if (const auto v = percentile(p)) {
        if (pct) *pct = p;
        return *v;
      }
    }
    if (pct) *pct = 0;
    return 0.0;
  }

 private:
  double nearest_rank(int pct) const {
    sort();
    const std::size_t n = values_.size();
    std::size_t rank = (n * static_cast<std::size_t>(pct) + 99) / 100;
    if (rank == 0) rank = 1;
    return values_[rank - 1];
  }

  void sort() const {
    if (sorted_) return;
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }

  mutable std::vector<double> values_;
  mutable bool sorted_{true};
};

}  // namespace causeway::bench
