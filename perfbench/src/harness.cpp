#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "durability/codec.hpp"

namespace perfbench {

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  // Multiply before dividing so whole ranks stay exact (90 * 10 / 100).
  const double rank = p * static_cast<double>(n - 1) / 100.0;
  const auto below = static_cast<std::size_t>(std::floor(rank));
  return n - 1 - std::min(below, n - 1);
}

TailChoice choose_tail(std::size_t n, std::size_t min_beyond) {
  std::vector<double> ladder = {99.9, 99.5};
  for (int p = 99; p >= 50; --p) ladder.push_back(p);
  for (const double p : ladder) {
    const std::size_t beyond = samples_beyond(n, p);
    if (beyond >= min_beyond) return {p, beyond};
  }
  return {50.0, samples_beyond(n, 50.0)};
}

void Digest::add_bytes(const void* data, std::size_t n) {
  h_ = spotfi::fnv1a64({static_cast<const std::uint8_t*>(data), n}, h_);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::uint64_t RoundLedger::failed() const {
  const std::uint64_t missing = emitted < expected ? expected - emitted : 0;
  return missing + mismatched;
}

double RoundLedger::fail_frac() const {
  return expected == 0 ? 0.0
                       : static_cast<double>(failed()) /
                             static_cast<double>(expected);
}

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::kOffer: return "offer";
    case SpanName::kPump: return "pump";
    case SpanName::kPumpAll: return "pump_all";
    case SpanName::kSend: return "sender.send";
    case SpanName::kSenderTick: return "sender.tick";
    case SpanName::kReceiverTick: return "receiver.tick";
    case SpanName::kSink: return "durable.sink";
    case SpanName::kRecover: return "recover";
    case SpanName::kSanitize: return "stage.sanitize";
    case SpanName::kSubspace: return "stage.subspace";
    case SpanName::kSpectrum: return "stage.spectrum";
    case SpanName::kCluster: return "stage.cluster";
    case SpanName::kLocalize: return "stage.localize";
  }
  return "?";
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double wall = s.end_s - s.start_s;
    self[i] += s.cpu_s >= 0.0 ? s.cpu_s : wall;
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      self[static_cast<std::size_t>(s.parent)] -= wall;
    }
  }
  return self;
}

Tracer::Tracer(bool enabled, std::size_t reserve) : enabled_(enabled) {
  if (!enabled_) return;
  spans_.reserve(reserve);
  child_cursor_.reserve(reserve);
  open_.reserve(16);
}

int Tracer::open(SpanName name, std::uint32_t session, std::uint64_t round,
                 bool with_cpu) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.session = session;
  s.round = round;
  if (with_cpu) s.cpu_s = cpu_now_s();
  s.start_s = wall_now_s();
  const auto index = static_cast<int>(spans_.size());
  spans_.push_back(s);
  child_cursor_.push_back(s.start_s);
  open_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (!enabled_ || index < 0) return;
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_s = wall_now_s();
  if (s.cpu_s >= 0.0) s.cpu_s = cpu_now_s() - s.cpu_s;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::child(int parent, SpanName name, double duration_s,
                   std::uint32_t session, std::uint64_t round) {
  if (!enabled_ || parent < 0) return;
  const auto p = static_cast<std::size_t>(parent);
  Span s;
  s.name = name;
  s.parent = parent;
  s.session = session;
  s.round = round;
  s.start_s = child_cursor_[p];
  s.end_s = s.start_s + duration_s;
  child_cursor_[p] = s.end_s;
  spans_.push_back(s);
  child_cursor_.push_back(s.start_s);
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index,parent,name,session,round,start_us,end_us,cpu_us\n");
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%d,%s,%u,%llu,%.3f,%.3f,%.3f\n", i, s.parent,
                 to_string(s.name), s.session,
                 static_cast<unsigned long long>(s.round),
                 (s.start_s - t0) * 1e6, (s.end_s - t0) * 1e6,
                 s.cpu_s >= 0.0 ? s.cpu_s * 1e6 : -1.0);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
