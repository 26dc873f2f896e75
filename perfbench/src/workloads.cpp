#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/clock.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/workspace.hpp"
#include "core/session_manager.hpp"
#include "durability/durability.hpp"
#include "harness.hpp"
#include "heap.hpp"
#include "music/steering_cache.hpp"
#include "testbed/experiment.hpp"
#include "transport/transport.hpp"

namespace perfbench {
namespace {

using namespace spotfi;

const LinkConfig kLink = LinkConfig::intel5300_40mhz();

/// Set-ups per run; setup_s reports their median.
constexpr std::size_t kSetupReps = 7;
/// Stream-clock spacing of one closed-loop tick on the estimation
/// workloads [s].
constexpr double kPacketInterval = 0.1;
/// The CSI captures are one fixed synthetic recording of the office
/// testbed and every session's random stream has a fixed seed, so the
/// raw fixes, and with them the accuracy metrics, are the same for every
/// --seed (on uplink_durable, up to the rounds the restart defect hits):
/// at the fix counts a run affords, the median error moves by ~20%
/// between random streams, which no bound could absorb. --seed
/// shapes the load instead: the AP order within a tick (office_music),
/// which tenants share a tick (tenants_esprit), and the link faults,
/// hence the crash point (uplink_durable).
constexpr std::uint64_t kCaptureSeed = 2015;
constexpr std::uint64_t kSessionSeed = 77;

/// Fisher-Yates with the library's Rng, so the order is the same on
/// every platform.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform_index(i)]);
  }
}

// Work per second of --seconds. Each workload's fix count is a fixed
// function of --seconds, so a seed fixes the fix stream exactly. At
// --seconds 30 these rates give a 16-30 s timed phase on a 4-vCPU Intel
// Xeon (family 6, model 207) virtual machine, whose speed drifts by up
// to 1.8x over hours.
constexpr double kOfficeFixesPerSecond = 1.6;
constexpr double kEspritFixesPerSecond = 15.0;
constexpr double kUplinkFixesPerSecond = 360.0;

std::size_t sized(double seconds, double per_second, std::size_t floor) {
  return std::max<std::size_t>(
      floor, static_cast<std::size_t>(std::llround(seconds * per_second)));
}

/// Collects failed output checks, one message per kind with a count.
class Checks {
 public:
  void require(bool ok, const char* what) {
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    for (auto& [msg, n] : failures_) {
      if (msg == what) {
        ++n;
        return;
      }
    }
    failures_.emplace_back(what, 1);
  }
  [[nodiscard]] std::vector<std::string> messages() const {
    std::vector<std::string> out;
    for (const auto& [msg, n] : failures_) {
      out.push_back(n == 1 ? msg : msg + " (x" + std::to_string(n) + ")");
    }
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::size_t>> failures_;
};

bool inside(const Deployment& dep, Vec2 p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && p.x >= dep.area_min.x &&
         p.x <= dep.area_max.x && p.y >= dep.area_min.y &&
         p.y <= dep.area_max.y;
}

/// Wall, CPU and live-heap high-water of the timed phase. Harness-only
/// work inside it (extra set-up samples) is bracketed by pause/resume.
class TimedPhase {
 public:
  void start() {
    heap_reset_peak();
    heap0_ = heap_live_bytes();
    wall0_ = wall_now_s();
    cpu0_ = cpu_now_s();
  }
  void pause() {
    pause_wall_ = wall_now_s();
    pause_cpu_ = cpu_now_s();
    peak_ = std::max(peak_, heap_peak_bytes());
  }
  void resume() {
    paused_wall_ += wall_now_s() - pause_wall_;
    paused_cpu_ += cpu_now_s() - pause_cpu_;
    heap_reset_peak();
  }
  void stop() {
    wall_s = wall_now_s() - wall0_ - paused_wall_;
    cpu_s = cpu_now_s() - cpu0_ - paused_cpu_;
    peak_ = std::max(peak_, heap_peak_bytes());
    peak_heap_bytes = peak_ - heap0_;
  }

  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t peak_heap_bytes = 0;

 private:
  double wall0_ = 0.0;
  double cpu0_ = 0.0;
  double pause_wall_ = 0.0;
  double pause_cpu_ = 0.0;
  double paused_wall_ = 0.0;
  double paused_cpu_ = 0.0;
  std::int64_t heap0_ = 0;
  std::int64_t peak_ = 0;
};

/// Per-round outcome counters taken from LocalizationRound diagnostics.
struct RoundCounts {
  std::array<std::uint64_t, 5> ap_groups{};  ///< indexed by ApStage
  std::uint64_t loo_rejected = 0;
  std::uint64_t numerics_events = 0;

  void add(const LocalizationRound& round) {
    for (const ApStage stage : round.ap_stages) {
      ++ap_groups[static_cast<std::size_t>(stage)];
    }
    loo_rejected += round.rejected_aps.size();
    numerics_events += round.numerics.total();
  }
};

/// What the timed phase saw of the fix stream.
struct FixLog {
  Digest digest;
  std::vector<double> fix_ms;  ///< per fix: wall time of its pump call
  std::vector<double> loc_err;
  std::uint64_t emitted = 0;
  RoundCounts rounds;

  void digest_fix(SessionId session, const LocationFix& fix) {
    digest.add(session);
    digest.add(fix.durable_round_index);
    digest.add(fix.raw.x);
    digest.add(fix.raw.y);
  }
};

void add_stage_children(Tracer& tracer, int parent, const StageBreakdown& b,
                        std::uint32_t session, std::uint64_t round) {
  static constexpr SpanName kPhase[kStagePhaseCount] = {
      SpanName::kSanitize, SpanName::kSubspace, SpanName::kSpectrum,
      SpanName::kCluster, SpanName::kLocalize};
  for (std::size_t i = 0; i < kStagePhaseCount; ++i) {
    if (b.seconds[i] > 0.0) {
      tracer.child(parent, kPhase[i], b.seconds[i], session, round);
    }
  }
}

/// The session's bit-level witness for fixes pump_all() does not return:
/// the tracker folds every raw fix in, so equal rng, tracker and counter
/// state means equal fixes (the same witness tests/pipeline_test.cpp
/// uses for cross-session batching).
void digest_state(Digest& d, const SessionDurableState& s) {
  d.add(s.rng.s);
  d.add(s.rng.have_cached_normal);
  d.add(s.rng.cached_normal);
  d.add(s.emitted_fixes);
  d.add(s.applied_packets);
  d.add(s.stats.offered);
  d.add(s.stats.accepted);
  d.add(s.stats.shed_packets);
  d.add(s.stats.fixes);
  d.add(s.stats.rounds_full);
  d.add(s.stats.rounds_degraded);
  d.add(s.stats.rounds_shed);
  d.add(s.stats.failed_rounds);
  d.add(s.streaming.fix_count);
  d.add(s.streaming.last_fix_time_s);
  d.add(s.streaming.tracker.initialized);
  d.add(s.streaming.tracker.last_rejected);
  d.add(s.streaming.tracker.last_t);
  d.add(s.streaming.tracker.state);
  d.add(s.streaming.tracker.cov);
}

std::uint64_t state_digest(const SessionDurableState& s) {
  Digest d;
  digest_state(d, s);
  return d.value();
}

/// A session manager on virtual time.
struct Engine {
  std::unique_ptr<FakeClock> clock;
  std::unique_ptr<SessionManager> manager;
};

Engine make_engine(std::size_t lanes) {
  Engine e;
  e.clock = std::make_unique<FakeClock>();
  SessionManagerConfig config;
  config.num_threads = lanes;
  config.clock = e.clock.get();
  e.manager = std::make_unique<SessionManager>(kLink, config);
  return e;
}

SessionConfig base_session(const Deployment& dep, std::uint64_t seed) {
  SessionConfig cfg;
  cfg.streaming.server.localizer.area_min = dep.area_min;
  cfg.streaming.server.localizer.area_max = dep.area_max;
  cfg.seed = seed;
  return cfg;
}

std::size_t arena_high_water(const SessionManager& manager) {
  std::size_t total = thread_workspace().stats().high_water_bytes;
  if (const auto pool = manager.pool()) {
    for (const WorkspaceStats& s : pool->worker_workspace_stats()) {
      total += s.high_water_bytes;
    }
  }
  return total;
}

void check_admission(Checks& checks, const SessionStats& s) {
  checks.require(s.offered == s.accepted + s.shed_packets,
                 "session offered != accepted + shed_packets");
}

// -- metric assembly ----------------------------------------------------------

struct EndToEnd {
  const TimedPhase* timed = nullptr;
  const FixLog* log = nullptr;
  RoundLedger ledger;
  std::vector<double> setup_s;
};

void emit_end_to_end(Outcome& out, const EndToEnd& e, std::size_t lanes) {
  const TimedPhase& t = *e.timed;
  const FixLog& log = *e.log;
  const double fixes = static_cast<double>(std::max<std::uint64_t>(log.emitted, 1));
  const TailChoice tail = choose_tail(log.fix_ms.size());
  const auto pct = [](const std::vector<double>& v, double p) {
    return v.empty() ? 0.0 : percentile(v, p);
  };
  out.attempted = e.ledger.expected;
  out.failed = e.ledger.failed();
  out.end_to_end = {
      {"fixes_per_s", "1/s", static_cast<double>(log.emitted) / t.wall_s},
      {"fix_ms_p50", "ms", pct(log.fix_ms, 50.0)},
      {"fix_ms_tail", "ms", pct(log.fix_ms, tail.percentile)},
      {"cpu_ms_per_fix", "ms", t.cpu_s * 1e3 / fixes},
      {"loc_error_m_p50", "m", pct(log.loc_err, 50.0)},
      {"loc_error_m_p80", "m", pct(log.loc_err, 80.0)},
      {"fix_frac", "ratio", 1.0 - e.ledger.fail_frac()},
      {"setup_s", "s", e.setup_s.empty() ? 0.0 : median(e.setup_s)},
      {"peak_heap_mb", "MB", static_cast<double>(t.peak_heap_bytes) / 1e6},
  };
  out.info = {
      {"tail_percentile", "pct", tail.percentile},
      {"tail_beyond", "count", static_cast<double>(tail.beyond)},
      {"fixes", "count", static_cast<double>(log.emitted)},
      {"loc_error_samples", "count", static_cast<double>(log.loc_err.size())},
      {"fail_frac", "ratio", e.ledger.fail_frac()},
      {"lanes", "count", static_cast<double>(lanes)},
      {"timed_wall_s", "s", t.wall_s},
      {"setup_samples", "count", static_cast<double>(e.setup_s.size())},
  };
}

/// Everything the per-layer table needs beyond the spans.
struct LayerCounters {
  std::uint64_t fixes = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t lanes = 1;
  std::size_t arena_bytes = 0;
  std::size_t steering_misses = 0;
  std::uint64_t batched_rounds = 0;
  SessionStats sessions;
  RoundCounts rounds;
  TransportStats tx;
  TransportStats rx;
  double journal_bytes_per_packet = 0.0;
  std::uint64_t snapshots = 0;
  std::uint64_t replayed_packets = 0;
  std::uint64_t fix_mismatches = 0;
};

/// The counters every workload takes the same way.
LayerCounters base_counters(const TimedPhase& timed, const FixLog& log,
                            const SessionManager& manager, std::size_t lanes) {
  LayerCounters c;
  c.fixes = log.emitted;
  c.wall_s = timed.wall_s;
  c.cpu_s = timed.cpu_s;
  c.lanes = lanes;
  c.arena_bytes = arena_high_water(manager);
  c.steering_misses = SteeringTableCache::stats().misses;
  c.batched_rounds = manager.batched_rounds();
  c.sessions = manager.global_stats();
  c.rounds = log.rounds;
  return c;
}

std::vector<Metric> per_layer_metrics(const Tracer& tracer,
                                      const LayerCounters& c) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = self_times(spans);
  std::array<double, kSpanNameCount> dur{};
  std::array<double, kSpanNameCount> self_sum{};
  std::array<double, kSpanNameCount> cpu{};
  std::array<double, kSpanNameCount> count{};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto n = static_cast<std::size_t>(spans[i].name);
    dur[n] += spans[i].end_s - spans[i].start_s;
    self_sum[n] += self[i];
    if (spans[i].cpu_s >= 0.0) cpu[n] += spans[i].cpu_s;
    count[n] += 1.0;
  }
  const auto at = [](SpanName n) { return static_cast<std::size_t>(n); };
  const double fixes = static_cast<double>(std::max<std::uint64_t>(c.fixes, 1));
  const auto per_fix_ms = [&](SpanName n) { return dur[at(n)] * 1e3 / fixes; };
  const auto mean_us = [&](double total, double n) {
    return n > 0.0 ? total * 1e6 / n : 0.0;
  };
  const double pump_cpu = cpu[at(SpanName::kPump)] + cpu[at(SpanName::kPumpAll)];
  const double pump_self =
      self_sum[at(SpanName::kPump)] + self_sum[at(SpanName::kPumpAll)];
  const double ticks =
      count[at(SpanName::kSenderTick)] + count[at(SpanName::kReceiverTick)];
  const double tick_self = self_sum[at(SpanName::kSenderTick)] +
                           self_sum[at(SpanName::kReceiverTick)];
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto g = [&](ApStage s) {
    return n(c.rounds.ap_groups[static_cast<std::size_t>(s)]);
  };
  const double recovers = count[at(SpanName::kRecover)];
  return {
      {"music.spectrum_ms", "ms", per_fix_ms(SpanName::kSpectrum)},
      {"music.subspace_ms", "ms", per_fix_ms(SpanName::kSubspace)},
      {"localize.solve_ms", "ms", per_fix_ms(SpanName::kLocalize)},
      {"csi.sanitize_ms", "ms", per_fix_ms(SpanName::kSanitize)},
      {"cluster.cluster_ms", "ms", per_fix_ms(SpanName::kCluster)},
      {"core.pump_ms", "ms", pump_cpu * 1e3 / fixes},
      {"core.self_ms", "ms", pump_self * 1e3 / fixes},
      {"core.offer_us", "us",
       mean_us(dur[at(SpanName::kOffer)], count[at(SpanName::kOffer)])},
      {"transport.send_us", "us",
       mean_us(dur[at(SpanName::kSend)], count[at(SpanName::kSend)])},
      {"transport.tick_us", "us", mean_us(tick_self, ticks)},
      {"durability.sink_us", "us",
       mean_us(dur[at(SpanName::kSink)], count[at(SpanName::kSink)])},
      {"durability.recover_ms", "ms",
       recovers > 0.0 ? dur[at(SpanName::kRecover)] * 1e3 / recovers : 0.0},
      {"common.lane_busy_frac", "ratio",
       c.cpu_s / (c.wall_s * static_cast<double>(c.lanes))},
      {"common.arena_peak_kb", "KB", static_cast<double>(c.arena_bytes) / 1e3},
      {"music.steering_cache_misses", "count", n(c.steering_misses)},
      {"core.batched_rounds", "count", n(c.batched_rounds)},
      {"core.rounds_full", "count", n(c.sessions.rounds_full)},
      {"core.rounds_degraded", "count", n(c.sessions.rounds_degraded)},
      {"core.rounds_shed", "count", n(c.sessions.rounds_shed)},
      {"core.rounds_failed", "count", n(c.sessions.failed_rounds)},
      {"core.shed_packets", "count", n(c.sessions.shed_packets)},
      {"core.queue_high_water", "count",
       static_cast<double>(c.sessions.queue_high_water)},
      {"core.ap_groups_primary", "count", g(ApStage::kPrimary)},
      {"core.ap_groups_relaxed_music", "count", g(ApStage::kRelaxedMusic)},
      {"core.ap_groups_esprit", "count", g(ApStage::kEsprit)},
      {"core.ap_groups_rssi_only", "count", g(ApStage::kRssiOnly)},
      {"core.ap_groups_failed", "count", g(ApStage::kFailed)},
      {"core.loo_rejected_aps", "count", n(c.rounds.loo_rejected)},
      {"linalg.numerics_events", "count", n(c.rounds.numerics_events)},
      {"transport.retransmit_frac", "ratio",
       c.tx.transmissions > 0
           ? n(c.tx.retransmissions) / n(c.tx.transmissions)
           : 0.0},
      {"transport.reconnects", "count", n(c.tx.reconnects)},
      {"transport.backpressure_deferrals", "count",
       n(c.rx.backpressure_deferrals)},
      {"transport.failed_frames", "count", n(c.tx.failed)},
      {"durability.journal_bytes_per_packet", "B", c.journal_bytes_per_packet},
      {"durability.snapshots", "count", n(c.snapshots)},
      {"durability.replayed_packets", "count", n(c.replayed_packets)},
      {"durability.fix_mismatches", "count", n(c.fix_mismatches)},
  };
}

void write_trace(Outcome& out, const Options& opt, const Tracer& tracer,
                 Checks& checks) {
  if (!tracer.enabled()) return;
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string path = opt.out_dir + "/trace-" + opt.workload + ".csv";
  checks.require(tracer.write_csv(path), "could not write the span file");
  out.info.push_back({"spans", "count", static_cast<double>(tracer.spans().size())});
}

// -- office_music --------------------------------------------------------------

constexpr std::size_t kOfficeGroup = 10;
constexpr std::size_t kOfficeLanes = 2;

Outcome run_office_music(const Options& opt) {
  Outcome out;
  Checks checks;
  const Deployment dep = office_deployment();
  const std::size_t naps = dep.aps.size();
  const std::size_t rounds = sized(opt.seconds, kOfficeFixesPerSecond, 20);

  // Inputs: group 0 feeds the set-ups, groups 1..rounds the timed phase;
  // targets cycle through the deployment's list.
  ExperimentConfig ecfg;
  ecfg.packets_per_group = kOfficeGroup;
  const ExperimentRunner runner(kLink, dep, ecfg);
  Rng rng(kCaptureSeed);
  Rng schedule(opt.seed);
  std::vector<Vec2> truth(rounds + 1);
  std::vector<std::vector<ApCapture>> input(rounds + 1);
  std::vector<std::vector<std::size_t>> ap_order(rounds + 1);
  for (std::size_t r = 0; r <= rounds; ++r) {
    truth[r] = dep.targets[r % dep.targets.size()];
    input[r] = runner.simulate_captures(truth[r], rng);
    for (std::size_t a = 0; a < naps; ++a) ap_order[r].push_back(a);
    shuffle(ap_order[r], schedule);
  }
  SessionConfig cfg = base_session(dep, kSessionSeed);
  cfg.streaming.group_size = kOfficeGroup;
  cfg.aps = dep.aps;

  Tracer untraced(false);
  Tracer tracer(opt.trace, (rounds + 1) * kOfficeGroup * (naps + 8));
  FixLog log;
  Engine engine;
  SessionId id = 0;
  std::uint64_t tick = 0;
  std::vector<std::pair<double, double>> setup_fixes;

  // One group = kOfficeGroup ticks; each tick offers one packet per AP
  // and then pumps, so the next packets wait for the pump (closed loop).
  const auto run_group = [&](std::size_t r, Tracer& tr, bool timed) {
    for (std::size_t p = 0; p < kOfficeGroup; ++p) {
      const double t = static_cast<double>(tick++) * kPacketInterval;
      engine.clock->set(t);
      for (const std::size_t a : ap_order[r]) {
        CsiPacket packet = input[r][a].packets[p];
        packet.timestamp_s = t;
        const ScopedSpan span(tr, SpanName::kOffer, static_cast<std::uint32_t>(id), r);
        checks.require(engine.manager->offer(id, a, std::move(packet)).admitted(),
                       "offer not admitted");
      }
      const int span = tr.open(SpanName::kPump, static_cast<std::uint32_t>(id), r, true);
      const double t0 = wall_now_s();
      std::vector<LocationFix> fixes = engine.manager->pump(id);
      const double ms = (wall_now_s() - t0) * 1e3;
      tr.close(span);
      checks.require(fixes.size() <= 1, "more than one fix from one group");
      for (const LocationFix& fix : fixes) {
        checks.require(inside(dep, fix.raw), "fix not finite or outside the area");
        if (!timed) {
          setup_fixes.emplace_back(fix.raw.x, fix.raw.y);
          continue;
        }
        log.digest_fix(id, fix);
        log.fix_ms.push_back(ms);
        log.loc_err.push_back(distance(fix.raw, truth[r]));
        ++log.emitted;
        log.rounds.add(fix.round);
        add_stage_children(tr, span, fix.round.stage_breakdown,
                           static_cast<std::uint32_t>(id), fix.durable_round_index);
      }
    }
  };

  // Set-up: construction to first fix, on cold steering tables each time.
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    engine = Engine{};
    SteeringTableCache::clear();
    tick = 0;
    const double t0 = wall_now_s();
    engine = make_engine(kOfficeLanes);
    id = engine.manager->open_session(cfg);
    run_group(0, untraced, false);
    setup_s.push_back(wall_now_s() - t0);
  }
  checks.require(setup_fixes.size() == kSetupReps, "a set-up emitted no first fix");
  for (const auto& f : setup_fixes) {
    checks.require(f == setup_fixes.front(), "set-ups disagree on the first fix");
  }
  if (!setup_fixes.empty()) {
    log.digest.add(setup_fixes.back().first);
    log.digest.add(setup_fixes.back().second);
  }

  TimedPhase timed;
  timed.start();
  for (std::size_t r = 1; r <= rounds; ++r) run_group(r, tracer, true);
  timed.stop();

  check_admission(checks, engine.manager->global_stats());
  EndToEnd e2e{&timed, &log, {rounds, log.emitted, 0}, setup_s};
  emit_end_to_end(out, e2e, kOfficeLanes);
  checks.require(!log.loc_err.empty() && median(log.loc_err) < 2.0,
                 "office_music median error is not under 2 m");

  if (opt.trace) {
    out.per_layer = per_layer_metrics(
        tracer, base_counters(timed, log, *engine.manager, kOfficeLanes));
    write_trace(out, opt, tracer, checks);
  }
  out.digest = log.digest.hex();
  out.violations = checks.messages();
  return out;
}

// -- tenants_esprit ------------------------------------------------------------

constexpr std::size_t kEspritTenants = 32;
constexpr std::size_t kEspritGroup = 4;
constexpr std::size_t kEspritLanes = 2;
/// Each tenant starts offering at its phase tick (0..3, a quarter of the
/// tenants per phase), so a quarter of them complete a group on every
/// tick.
constexpr std::size_t kEspritPhases = kEspritGroup;
/// Tenants whose fixes are regenerated with per-session pump() after the
/// timed phase (pump_all() returns only a count): four targets across
/// the room, on both AP triples.
constexpr std::array<std::size_t, 4> kReplayTenants = {0, 7, 14, 21};

/// Two AP triples (left/right plus bottom or top) so every tenant sees
/// the room from both sides.
constexpr std::array<std::array<std::size_t, 3>, 2> kTriples = {
    {{0, 1, 2}, {0, 1, 3}}};

/// A stationary tenant: its target, its per-AP captures from the fixed
/// recording, and its session config.
struct Tenant {
  Vec2 target;
  std::vector<ApCapture> captures;
  SessionConfig cfg;
};

/// Tenant i stands at target i (cycling) and uses AP triple i % 2.
std::vector<Tenant> make_tenants(const Deployment& dep, std::size_t n,
                                 std::size_t packets_per_ap, std::size_t group) {
  std::vector<ExperimentRunner> runners;
  for (const auto& triple : kTriples) {
    ExperimentConfig ecfg;
    ecfg.packets_per_group = packets_per_ap;
    ecfg.ap_indices.assign(triple.begin(), triple.end());
    runners.emplace_back(kLink, dep, ecfg);
  }
  Rng rng(kCaptureSeed);
  std::vector<Tenant> tenants(n);
  for (std::size_t i = 0; i < n; ++i) {
    Tenant& t = tenants[i];
    t.target = dep.targets[i % dep.targets.size()];
    t.captures = runners[i % kTriples.size()].simulate_captures(t.target, rng);
    t.cfg = base_session(dep, kSessionSeed + i);
    t.cfg.streaming.group_size = group;
    for (const ApCapture& c : t.captures) t.cfg.aps.push_back(c.pose);
  }
  return tenants;
}

Outcome run_tenants_esprit(const Options& opt) {
  Outcome out;
  Checks checks;
  const Deployment dep = office_deployment();
  const std::size_t groups =
      std::max<std::size_t>(2, sized(opt.seconds, kEspritFixesPerSecond, 64) /
                                   kEspritTenants);
  const std::size_t per_ap = kEspritGroup * groups;
  const std::size_t last_tick = (kEspritPhases - 1) + per_ap - 1;

  std::vector<Tenant> tenants = make_tenants(dep, kEspritTenants, per_ap, kEspritGroup);
  for (Tenant& t : tenants) t.cfg.streaming.server.ap.front_end = FrontEnd::kEsprit;
  // Tenant i starts offering at tick phase[i].
  std::vector<std::size_t> phase(kEspritTenants);
  for (std::size_t i = 0; i < kEspritTenants; ++i) phase[i] = i % kEspritPhases;
  Rng schedule(opt.seed);
  shuffle(phase, schedule);

  const auto packet_at = [&](std::size_t i, std::size_t a, std::size_t k) {
    CsiPacket packet = tenants[i].captures[a].packets[k];
    packet.timestamp_s = static_cast<double>(phase[i] + k) * kPacketInterval;
    return packet;
  };
  // One tick offers one packet per AP to every tenant whose stream is
  // running; the caller then drains (closed loop).
  const auto offer_tick = [&](SessionManager& m, const std::vector<std::size_t>& who,
                              const std::vector<SessionId>& ids, std::size_t tick,
                              Tracer& tr) {
    for (std::size_t j = 0; j < who.size(); ++j) {
      const std::size_t i = who[j];
      if (tick < phase[i] || tick - phase[i] >= per_ap) continue;
      const std::size_t k = tick - phase[i];
      for (std::size_t a = 0; a < tenants[i].captures.size(); ++a) {
        const ScopedSpan span(tr, SpanName::kOffer,
                              static_cast<std::uint32_t>(ids[j]), k / kEspritGroup);
        checks.require(m.offer(ids[j], a, packet_at(i, a, k)).admitted(),
                       "offer not admitted");
      }
    }
  };
  std::vector<std::size_t> everyone(kEspritTenants);
  for (std::size_t i = 0; i < kEspritTenants; ++i) everyone[i] = i;

  Tracer untraced(false);
  Tracer tracer(opt.trace, (last_tick + 1) * kEspritTenants * 4);
  Engine engine;
  std::vector<SessionId> ids;

  // Set-up: construction to the first fix (tick 3, when the phase-0
  // tenants complete their first group), on cold steering tables.
  std::vector<double> setup_s;
  std::vector<std::uint64_t> setup_states;
  std::size_t setup_ticks = 0;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    engine = Engine{};
    SteeringTableCache::clear();
    const double t0 = wall_now_s();
    engine = make_engine(kEspritLanes);
    ids.clear();
    for (const Tenant& t : tenants) ids.push_back(engine.manager->open_session(t.cfg));
    std::size_t fired = 0;
    for (setup_ticks = 0; fired == 0 && setup_ticks <= last_tick; ++setup_ticks) {
      engine.clock->set(static_cast<double>(setup_ticks) * kPacketInterval);
      offer_tick(*engine.manager, everyone, ids, setup_ticks, untraced);
      fired = engine.manager->pump_all();
    }
    setup_s.push_back(wall_now_s() - t0);
    Digest d;
    for (const SessionId sid : ids) d.add(state_digest(engine.manager->export_session_state(sid)));
    setup_states.push_back(d.value());
  }
  for (const std::uint64_t s : setup_states) {
    checks.require(s == setup_states.front(), "set-ups disagree on session state");
  }
  const std::size_t first_timed_tick = setup_ticks;
  std::uint64_t setup_rounds = 0;
  for (const std::size_t p : phase) {
    if (first_timed_tick >= p + kEspritGroup) ++setup_rounds;
  }

  FixLog log;
  // pump_all() returns no fixes, so traced runs take the phase split from
  // re-running each fired round's captures through try_localize(),
  // configured like the session, on its own seeded stream. The re-run
  // follows its batch at once, so both see the same machine speed, and
  // the timed phase is paused around it.
  ServerConfig server_cfg = tenants.front().cfg.streaming.server;
  server_cfg.shared_pool = engine.manager->pool();
  const SpotFiServer server(kLink, server_cfg);
  const auto rerun_batch = [&](int span, std::size_t tick) {
    for (std::size_t i = 0; i < kEspritTenants; ++i) {
      const Tenant& t = tenants[i];
      if (tick < phase[i] + kEspritGroup - 1) continue;
      const std::size_t k_last = tick - phase[i];
      if (k_last >= per_ap || (k_last + 1) % kEspritGroup != 0) continue;
      const std::size_t g = k_last / kEspritGroup;
      std::vector<ApCapture> captures;
      for (std::size_t a = 0; a < t.captures.size(); ++a) {
        ApCapture c;
        c.pose = t.captures[a].pose;
        for (std::size_t k = g * kEspritGroup; k <= k_last; ++k) {
          c.packets.push_back(packet_at(i, a, k));
        }
        captures.push_back(std::move(c));
      }
      Rng stream(kSessionSeed * 7919 + i * 104729 + g);
      const auto round = server.try_localize(captures, stream);
      if (!round.has_value()) continue;
      checks.require(inside(dep, round->location.position),
                     "re-run fix not finite or outside the area");
      log.rounds.add(*round);
      add_stage_children(tracer, span, round->stage_breakdown,
                         static_cast<std::uint32_t>(ids[i]), g);
    }
  };
  const std::uint64_t expected = kEspritTenants * groups - setup_rounds;
  TimedPhase timed;
  timed.start();
  for (std::size_t tick = first_timed_tick; tick <= last_tick; ++tick) {
    engine.clock->set(static_cast<double>(tick) * kPacketInterval);
    offer_tick(*engine.manager, everyone, ids, tick, tracer);
    const int span = tracer.open(SpanName::kPumpAll, 0, tick, true);
    const double t0 = wall_now_s();
    const std::size_t fired = engine.manager->pump_all();
    const double ms = (wall_now_s() - t0) * 1e3;
    tracer.close(span);
    log.fix_ms.insert(log.fix_ms.end(), fired, ms);
    log.emitted += fired;
    if (tracer.enabled()) {
      timed.pause();
      rerun_batch(span, tick);
      timed.resume();
    }
  }
  timed.stop();

  std::vector<std::uint64_t> states(kEspritTenants);
  for (std::size_t i = 0; i < kEspritTenants; ++i) {
    const SessionDurableState s = engine.manager->export_session_state(ids[i]);
    states[i] = state_digest(s);
    log.digest.add(states[i]);
    check_admission(checks, s.stats);
  }

  // loc_error: pump_all() returns only a count, so regenerate the
  // replay tenants' fixes with per-session pump() on a fresh manager, and
  // require their final session state to equal the batched run's, bit
  // for bit.
  {
    Engine replay = make_engine(kEspritLanes);
    const std::vector<std::size_t> who(kReplayTenants.begin(), kReplayTenants.end());
    std::vector<SessionId> rids;
    for (const std::size_t i : who) rids.push_back(replay.manager->open_session(tenants[i].cfg));
    for (std::size_t tick = 0; tick <= last_tick; ++tick) {
      replay.clock->set(static_cast<double>(tick) * kPacketInterval);
      offer_tick(*replay.manager, who, rids, tick, untraced);
      for (std::size_t j = 0; j < who.size(); ++j) {
        for (const LocationFix& fix : replay.manager->pump(rids[j])) {
          checks.require(inside(dep, fix.raw), "fix not finite or outside the area");
          log.loc_err.push_back(distance(fix.raw, tenants[who[j]].target));
        }
      }
    }
    for (std::size_t j = 0; j < who.size(); ++j) {
      checks.require(state_digest(replay.manager->export_session_state(rids[j])) ==
                         states[who[j]],
                     "per-session pump() replay disagrees with pump_all()");
    }
  }

  EndToEnd e2e{&timed, &log, {expected, log.emitted, 0}, setup_s};
  emit_end_to_end(out, e2e, kEspritLanes);

  if (opt.trace) {
    out.per_layer = per_layer_metrics(
        tracer, base_counters(timed, log, *engine.manager, kEspritLanes));
    write_trace(out, opt, tracer, checks);
  }
  out.digest = log.digest.hex();
  out.violations = checks.messages();
  return out;
}

// -- uplink_durable ------------------------------------------------------------

constexpr std::size_t kUplinkTenants = 32;
constexpr std::size_t kUplinkAps = 3;
constexpr std::size_t kUplinkGroup = 5;
constexpr std::size_t kUplinkLanes = 1;
/// Distinct packet groups generated per (tenant, AP), cycled by the
/// sender; RSSI-only rounds are cheap, so fresh CSI per round would only
/// make input generation dominate the run.
constexpr std::size_t kUplinkPoolGroups = 32;
constexpr double kTick = 0.01;
constexpr std::uint64_t kSnapshotEvery = 64;

struct Wire {
  std::unique_ptr<LinkSimulator> link;
  std::unique_ptr<TransportSender> sender;
  TransportConfig config;
};

/// The crashable half: the durable manager and its receivers.
struct Server {
  std::unique_ptr<DurableSessionManager> manager;
  std::vector<std::unique_ptr<TransportReceiver>> receivers;

  /// Drops everything without close(): receivers first (their sinks
  /// point into the manager).
  void crash() {
    receivers.clear();
    manager.reset();
  }
};

std::uint64_t report_digest(const RecoveryReport& r) {
  Digest d;
  d.add(r.packets_replayed);
  d.add(r.fix_mismatches);
  d.add(r.sessions_recovered);
  for (const auto& [sid, fix] : r.recovered_fixes) {
    d.add(sid);
    d.add(fix.durable_round_index);
    d.add(fix.raw.x);
    d.add(fix.raw.y);
  }
  return d.value();
}

Outcome run_uplink_durable(const Options& opt) {
  Outcome out;
  Checks checks;
  const Deployment dep = office_deployment();
  const std::size_t groups = std::max<std::size_t>(
      4, sized(opt.seconds, kUplinkFixesPerSecond, 0) / kUplinkTenants);
  const std::size_t n_links = kUplinkTenants * kUplinkAps;

  std::vector<Tenant> tenants = make_tenants(
      dep, kUplinkTenants, kUplinkGroup * kUplinkPoolGroups, kUplinkGroup);
  for (Tenant& t : tenants) {
    t.cfg.streaming.server.ap.fallback.entry_stage = ApStage::kRssiOnly;
  }

  // Links: 2% loss, 20 ms jitter, 5 ms delay; every fifth link has one
  // 1.2 s outage, the outages spread over the expected run.
  // A group takes ~14 ticks to be delivered and acked on these links.
  const double expected_run_s = static_cast<double>(groups) * 14 * kTick;
  std::vector<Wire> wires(n_links);
  for (std::size_t k = 0; k < n_links; ++k) {
    LinkFaultModel model;
    model.delay_s = 0.005;
    model.jitter_s = 0.020;
    model.drop_prob = 0.02;
    if (k % 5 == 0) {
      const double start =
          0.3 + static_cast<double>(k / 5) * expected_run_s / 20.0;
      model.down_windows = {{start, start + 1.2}};
    }
    wires[k].link = std::make_unique<LinkSimulator>(model, opt.seed * 7919 + k);
    wires[k].config.seed = opt.seed * 104729 + k;
    wires[k].sender = std::make_unique<TransportSender>(*wires[k].link, wires[k].config);
  }

  const std::string dir =
      opt.out_dir + "/journal-uplink_durable-seed" + std::to_string(opt.seed);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  DurabilityConfig dcfg;
  dcfg.enabled = true;
  dcfg.dir = dir;
  dcfg.snapshot_every_fixes = kSnapshotEvery;

  FakeClock clock;
  SessionManagerConfig mcfg;
  mcfg.num_threads = kUplinkLanes;
  mcfg.clock = &clock;
  const auto config_of = [&](SessionId sid) { return tenants[sid - 1].cfg; };
  const auto session_of = [](std::size_t link) {
    return static_cast<SessionId>(link / kUplinkAps + 1);
  };

  Tracer untraced(false);
  Tracer tracer(opt.trace, groups * kUplinkTenants * 140);

  // Receivers deliver through the durable sink (traced runs wrap it);
  // recovered ones resume from the journal-proven delivery mark.
  const auto attach_receivers = [&](Server& s, Tracer& tr) {
    for (std::size_t k = 0; k < n_links; ++k) {
      TransportSink sink = s.manager->make_sink(session_of(k), k + 1);
      if (tr.enabled()) {
        sink = [&tr, inner = std::move(sink), sid = session_of(k)](
                   std::size_t ap, CsiPacket& packet) {
          const ScopedSpan span(tr, SpanName::kSink, static_cast<std::uint32_t>(sid));
          return inner(ap, packet);
        };
      }
      auto rx = std::make_unique<TransportReceiver>(*wires[k].link, std::move(sink),
                                                    wires[k].config);
      if (!s.manager->restore_receiver(k + 1, *rx)) {
        s.manager->bind_receiver(k + 1, rx.get());
      }
      s.receivers.push_back(std::move(rx));
    }
  };
  const auto start_server = [&](const std::string& at, Tracer& tr,
                                RecoveryReport& report) {
    Server s;
    DurabilityConfig cfg = dcfg;
    cfg.dir = at;
    s.manager = std::make_unique<DurableSessionManager>(kLink, mcfg, cfg);
    {
      const ScopedSpan span(tr, SpanName::kRecover);
      report = s.manager->recover(config_of);
    }
    attach_receivers(s, tr);
    return s;
  };

  RecoveryReport fresh;
  Server server = start_server(dir, untraced, fresh);
  for (const Tenant& t : tenants) {
    checks.require(server.manager->open_session(t.cfg) != 0, "open_session failed");
  }
  std::uint64_t snapshots_before_crash = 0;

  FixLog log;
  RecoveryReport live;
  std::vector<double> setup_s;
  std::vector<std::uint64_t> setup_reports;
  std::vector<std::size_t> sent(kUplinkTenants, 0);
  const std::size_t total_groups = groups * kUplinkTenants;
  const std::size_t crash_at = total_groups / 2;
  std::size_t total_sent = 0;
  bool crashed = false;
  std::uint64_t snapshots_seen = 0;
  std::uint64_t fixes_at_snapshot = 0;
  const std::uint64_t max_ticks = 100000 + groups * 100;

  TimedPhase timed;
  timed.start();
  std::uint64_t tick = 0;
  for (;; ++tick) {
    const double now = static_cast<double>(tick) * kTick;
    clock.set(now);
    // Closed loop: a tenant sends its next group only once every packet
    // of the previous one was acked, i.e. delivered and journaled.
    for (std::size_t i = 0; i < kUplinkTenants; ++i) {
      if (sent[i] == groups) continue;
      bool idle = true;
      for (std::size_t a = 0; a < kUplinkAps; ++a) {
        idle = idle && wires[i * kUplinkAps + a].sender->quiescent();
      }
      if (!idle) continue;
      const std::size_t g = sent[i] % kUplinkPoolGroups;
      for (std::size_t a = 0; a < kUplinkAps; ++a) {
        TransportSender& tx = *wires[i * kUplinkAps + a].sender;
        for (std::size_t p = 0; p < kUplinkGroup; ++p) {
          CsiPacket packet = tenants[i].captures[a].packets[g * kUplinkGroup + p];
          packet.timestamp_s = now + static_cast<double>(p) * 1e-3;
          const ScopedSpan span(tracer, SpanName::kSend,
                                static_cast<std::uint32_t>(i + 1), sent[i]);
          checks.require(tx.send(a, packet, now).has_value(), "sender refused a frame");
        }
      }
      ++sent[i];
      ++total_sent;
    }
    for (std::size_t k = 0; k < n_links; ++k) {
      {
        const ScopedSpan span(tracer, SpanName::kSenderTick);
        wires[k].sender->tick(now);
      }
      const ScopedSpan span(tracer, SpanName::kReceiverTick);
      server.receivers[k]->tick(now);
    }
    for (std::size_t i = 0; i < kUplinkTenants; ++i) {
      const auto sid = static_cast<SessionId>(i + 1);
      const int span = tracer.open(SpanName::kPump, static_cast<std::uint32_t>(sid), sent[i], true);
      const double t0 = wall_now_s();
      std::vector<LocationFix> fixes = server.manager->pump(sid);
      const double ms = (wall_now_s() - t0) * 1e3;
      tracer.close(span);
      for (const LocationFix& fix : fixes) {
        checks.require(inside(dep, fix.raw), "fix not finite or outside the area");
        log.digest_fix(sid, fix);
        log.fix_ms.push_back(ms);
        log.loc_err.push_back(distance(fix.raw, tenants[i].target));
        ++log.emitted;
        log.rounds.add(fix.round);
        add_stage_children(tracer, span, fix.round.stage_breakdown,
                           static_cast<std::uint32_t>(sid), fix.durable_round_index);
      }
      if (server.manager->snapshots_written() != snapshots_seen) {
        snapshots_seen = server.manager->snapshots_written();
        fixes_at_snapshot = log.emitted;
      }
    }

    // Crash once past the midpoint, at a tick that ends with half a
    // snapshot interval of fixes (+8) journaled since the last snapshot,
    // so every seed's recovery replays a similar journal suffix. The
    // server and its receivers vanish without close(); the links and the
    // AP-side senders live on.
    const std::uint64_t since_snapshot = log.emitted - fixes_at_snapshot;
    if (!crashed && total_sent >= crash_at && since_snapshot >= kSnapshotEvery / 2 &&
        since_snapshot < kSnapshotEvery / 2 + 8) {
      crashed = true;
      snapshots_before_crash = server.manager->snapshots_written();
      checks.require(server.manager->journal_failures() == 0, "journal append failed");
      server.crash();
      // Extra set-up samples recover copies of the crashed directory.
      timed.pause();
      for (std::size_t rep = 1; rep < kSetupReps; ++rep) {
        const std::string copy = dir + "-replica";
        std::filesystem::remove_all(copy, ec);
        std::filesystem::copy(dir, copy, std::filesystem::copy_options::recursive, ec);
        checks.require(!ec, "could not copy the journal directory");
        RecoveryReport report;
        const double t0 = wall_now_s();
        Server replica = start_server(copy, untraced, report);
        setup_s.push_back(wall_now_s() - t0);
        setup_reports.push_back(report_digest(report));
        replica.crash();
        std::filesystem::remove_all(copy, ec);
      }
      timed.resume();
      const double t0 = wall_now_s();
      server = start_server(dir, tracer, live);
      setup_s.push_back(wall_now_s() - t0);
      for (const std::uint64_t r : setup_reports) {
        checks.require(r == report_digest(live), "recoveries of one directory disagree");
      }
      checks.require(live.snapshot_loaded, "recovery found no snapshot");
      for (const auto& [sid, fix] : live.recovered_fixes) log.digest_fix(sid, fix);
    }

    bool done = total_sent == total_groups;
    for (std::size_t k = 0; done && k < n_links; ++k) {
      done = wires[k].sender->quiescent() && server.receivers[k]->quiescent();
    }
    if (done) break;
    if (tick >= max_ticks) {
      checks.fail("the closed loop did not drain");
      break;
    }
  }
  timed.stop();

  // Layer invariants: the transport partitions and the session/transport
  // tie-out, per link and per tenant.
  TransportStats tx_total;
  TransportStats rx_total;
  std::vector<std::uint64_t> delivered(kUplinkTenants, 0);
  for (std::size_t k = 0; k < n_links; ++k) {
    const TransportStats tx = wires[k].sender->stats();
    const TransportStats rx = server.receivers[k]->stats();
    // TransportSender::stats() derives pending as sent - acked - failed,
    // so sent == acked + pending + failed holds by construction. At
    // drain every sender is quiescent (nothing pending): check its own
    // counters say so, and that the receiver delivered exactly what the
    // sender saw acked.
    checks.require(tx.sent == tx.acked + tx.failed, "drained sender sent != acked + failed");
    checks.require(tx.acked == rx.delivered, "sender acked != receiver delivered");
    checks.require(rx.received == rx.delivered + rx.duplicates + rx.out_of_window +
                                      rx.corrupt + rx.buffered,
                   "receiver received != delivered + duplicates + out_of_window + "
                   "corrupt + buffered");
    delivered[k / kUplinkAps] += rx.delivered;
    tx_total.merge(tx);
    rx_total.merge(rx);
  }
  for (std::size_t i = 0; i < kUplinkTenants; ++i) {
    const SessionStats s =
        server.manager->manager().session_stats(static_cast<SessionId>(i + 1));
    check_admission(checks, s);
    checks.require(s.accepted == delivered[i],
                   "session accepted != transport delivered");
  }
  checks.require(server.manager->journal_failures() == 0, "journal append failed");
  checks.require(crashed, "the run ended before the crash point");

  EndToEnd e2e{&timed, &log, {total_groups, log.emitted, live.fix_mismatches}, setup_s};
  emit_end_to_end(out, e2e, kUplinkLanes);
  out.info.push_back({"ticks", "count", static_cast<double>(tick + 1)});

  if (opt.trace) {
    LayerCounters c = base_counters(timed, log, server.manager->manager(), kUplinkLanes);
    c.tx = tx_total;
    c.rx = rx_total;
    const auto journal_bytes = std::filesystem::file_size(dir + "/journal.wal", ec);
    c.journal_bytes_per_packet =
        ec || c.sessions.accepted == 0
            ? 0.0
            : static_cast<double>(journal_bytes) /
                  static_cast<double>(c.sessions.accepted);
    c.snapshots = snapshots_before_crash + server.manager->snapshots_written();
    c.replayed_packets = live.packets_replayed;
    c.fix_mismatches = live.fix_mismatches;
    out.per_layer = per_layer_metrics(tracer, c);
    write_trace(out, opt, tracer, checks);
  }
  server.crash();
  std::filesystem::remove_all(dir, ec);
  out.digest = log.digest.hex();
  out.violations = checks.messages();
  return out;
}

}  // namespace

Outcome run_workload(const Options& options) {
  if (options.workload == "office_music") return run_office_music(options);
  if (options.workload == "tenants_esprit") return run_tenants_esprit(options);
  if (options.workload == "uplink_durable") return run_uplink_durable(options);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
