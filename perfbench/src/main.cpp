// perfbench: one closed-loop workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Prints one JSON object on its last stdout line: the digest of the fix
// stream, failed checks, attempted/failed rounds, the end-to-end
// metrics, and (with --trace 1) the per-layer metrics. run.py builds
// this binary and turns that line into the benchmark's result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Metric;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ",";
    out += quoted(ms[i].name) + ":{\"value\":" + number(ms[i].value) +
           ",\"unit\":" + quoted(ms[i].unit) + "}";
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      opt.trace = value == "1";
    } else if (flag == "--out") {
      opt.out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload.empty()) return usage("missing --workload");
  // The engine's lane counts are part of each workload's definition.
  unsetenv("SPOTFI_THREADS");

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::string violations = "[";
  for (std::size_t i = 0; i < out.violations.size(); ++i) {
    if (i > 0) violations += ",";
    violations += quoted(out.violations[i]);
  }
  violations += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"digest\":%s,"
      "\"violations\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"end_to_end\":%s,\"per_layer\":%s,\"info\":%s}\n",
      quoted(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, quoted(out.digest).c_str(), violations.c_str(),
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics(out.end_to_end).c_str(),
      metrics(out.per_layer).c_str(), metrics(out.info).c_str());
  return 0;
}
