// Shared helpers for the figure-reproduction benches: consistent table
// and CDF printing so every bench emits the same row format the paper's
// figures plot, and the per-AP stage as the figures run it.
#pragma once

#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/ap_processor.hpp"

namespace spotfi::bench {

/// One AP's packet group through ApProcessor::process_robust, held to
/// the paper's estimator: a group that left its primary stage would plot
/// a different experiment, so it throws NumericalError with the note.
inline ApResult primary_result(const ApProcessor& processor,
                               std::span<const CsiPacket> packets, Rng& rng) {
  ApOutcome outcome = processor.process_robust(packets, rng);
  if (outcome.stage != ApStage::kPrimary) {
    throw NumericalError(std::string("ap group left the primary estimator: ") +
                         outcome.note);
  }
  return std::move(outcome.result);
}

/// Prints "name: median=… p80=… mean=… n=…" summary row.
inline void print_summary(const std::string& name,
                          std::span<const double> errors,
                          const char* unit = "m") {
  RunningStats s;
  for (double e : errors) s.add(e);
  std::printf("%-28s median=%6.2f %s   p80=%6.2f %s   mean=%6.2f %s   n=%zu\n",
              name.c_str(), median(errors), unit, percentile(errors, 80.0),
              unit, s.mean(), unit, errors.size());
}

/// Prints a CDF as rows "p value" for the given series.
inline void print_cdf(const std::string& name, std::span<const double> errors,
                      std::size_t points = 11) {
  std::printf("CDF %s\n", name.c_str());
  for (const auto& pt : empirical_cdf(errors, points)) {
    std::printf("  %5.2f  %8.3f\n", pt.probability, pt.value);
  }
}

/// Prints several series side by side at shared probability levels —
/// the figure-friendly format.
inline void print_cdf_table(std::span<const std::string> names,
                            std::span<const std::vector<double>> series,
                            std::size_t points = 11) {
  std::printf("%-6s", "p");
  for (const auto& n : names) std::printf("  %14s", n.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < points; ++i) {
    const double p =
        100.0 * static_cast<double>(i) / static_cast<double>(points - 1);
    std::printf("%-6.2f", p / 100.0);
    for (const auto& s : series) std::printf("  %14.3f", percentile(s, p));
    std::printf("\n");
  }
}

}  // namespace spotfi::bench
