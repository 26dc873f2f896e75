// The three closed-loop workloads of the benchmark, driven through the
// library's public serving API (SessionManager, DurableSessionManager,
// TransportSender/Receiver). See README.md for what each one stresses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the fixed amount of work (see README.md): the fix count of a
  /// workload is a fixed function of this value.
  double seconds = 20.0;
  /// Record spans and report the per-layer metrics.
  bool trace = false;
  /// Where the traced run writes its span file and the durable
  /// workload keeps its journal (relative to the working directory).
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Outcome {
  /// Digest of the workload's fix stream (same seed => same digest).
  std::string digest;
  /// Failed output checks; empty when every check passed.
  std::vector<std::string> violations;
  /// Expected rounds of the timed phase, and those that failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  /// Filled by traced runs only.
  std::vector<Metric> per_layer;
  /// Context: tail percentile and its sample count, lanes, fix count.
  std::vector<Metric> info;
};

/// Runs one workload; throws std::invalid_argument on an unknown name.
[[nodiscard]] Outcome run_workload(const Options& options);

}  // namespace perfbench
