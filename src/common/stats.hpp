// Summary statistics used by the experiment harness: running mean/variance
// (Welford), percentiles, and the CDF series the paper's figures plot.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace spotfi {

/// Numerically stable running mean / variance accumulator.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  /// Population variance (divide by n), as Eq. 8 of the paper uses.
  [[nodiscard]] double population_variance() const;
  /// Sample variance (divide by n-1).
  [[nodiscard]] double sample_variance() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile with linear interpolation between order statistics.
/// `p` in [0, 100]. Requires a non-empty sample.
[[nodiscard]] double percentile(std::span<const double> sample, double p);

/// percentile() that sorts `sample` in place instead of copying it.
[[nodiscard]] double percentile_in_place(std::span<double> sample, double p);

/// Median shorthand.
[[nodiscard]] double median(std::span<const double> sample);

/// One point of an empirical CDF.
struct CdfPoint {
  double value = 0.0;
  double probability = 0.0;
};

/// Empirical CDF of a sample, evaluated at every order statistic.
[[nodiscard]] std::vector<CdfPoint> empirical_cdf(
    std::span<const double> sample);

/// Empirical CDF downsampled to `n_points` evenly spaced probabilities —
/// the series format the figure benches print.
[[nodiscard]] std::vector<CdfPoint> empirical_cdf(
    std::span<const double> sample, std::size_t n_points);

}  // namespace spotfi
