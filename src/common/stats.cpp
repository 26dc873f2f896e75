#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace spotfi {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  SPOTFI_EXPECTS(n_ > 0, "mean of empty sample");
  return mean_;
}

double RunningStats::population_variance() const {
  SPOTFI_EXPECTS(n_ > 0, "variance of empty sample");
  return m2_ / static_cast<double>(n_);
}

double RunningStats::sample_variance() const {
  SPOTFI_EXPECTS(n_ > 1, "sample variance needs at least two points");
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::min() const {
  SPOTFI_EXPECTS(n_ > 0, "min of empty sample");
  return min_;
}

double RunningStats::max() const {
  SPOTFI_EXPECTS(n_ > 0, "max of empty sample");
  return max_;
}

double percentile(std::span<const double> sample, double p) {
  std::vector<double> sorted(sample.begin(), sample.end());
  return percentile_in_place(sorted, p);
}

double percentile_in_place(std::span<double> sorted, double p) {
  SPOTFI_EXPECTS(!sorted.empty(), "percentile of empty sample");
  SPOTFI_EXPECTS(p >= 0.0 && p <= 100.0, "percentile p must be in [0, 100]");
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double median(std::span<const double> sample) {
  return percentile(sample, 50.0);
}

std::vector<CdfPoint> empirical_cdf(std::span<const double> sample) {
  SPOTFI_EXPECTS(!sample.empty(), "CDF of empty sample");
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<CdfPoint> cdf;
  cdf.reserve(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    cdf.push_back({sorted[i], static_cast<double>(i + 1) /
                                  static_cast<double>(sorted.size())});
  }
  return cdf;
}

std::vector<CdfPoint> empirical_cdf(std::span<const double> sample,
                                    std::size_t n_points) {
  SPOTFI_EXPECTS(n_points >= 2, "downsampled CDF needs >= 2 points");
  std::vector<CdfPoint> cdf;
  cdf.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    const double p =
        100.0 * static_cast<double>(i) / static_cast<double>(n_points - 1);
    cdf.push_back({percentile(sample, p), p / 100.0});
  }
  return cdf;
}

}  // namespace spotfi
