// End-to-end pipeline performance: per-AP packet-group processing
// (Algorithm 2 lines 2-10), the localization solve (line 12), and one
// full 6-AP localization round, as the figures run it and as the session
// layer serves it (with leave-one-out rejection) — the numbers behind
// "SpotFi is lightweight" (Sec. 4.4.4 wants small packet counts partly
// for latency).
//
// The group/round benches are parameterized by thread count (the bench
// arg, shown as e.g. BM_FullRound6Aps/threads:4): thread counts are set
// explicitly per benchmark here, so run these WITHOUT SPOTFI_THREADS in
// the environment — the env var would override every parameterization
// with one global value.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/parallel.hpp"
#include "core/session_manager.hpp"
#include "csi/sanitize.hpp"
#include "testbed/experiment.hpp"

namespace {

using namespace spotfi;

struct Fixture {
  LinkConfig link = LinkConfig::intel5300_40mhz();
  ExperimentRunner runner{link, office_deployment(), make_config()};
  std::vector<ApCapture> captures;
  std::vector<ApObservation> observations;

  static ExperimentConfig make_config() {
    ExperimentConfig config;
    config.packets_per_group = 10;
    return config;
  }

  Fixture() {
    Rng rng(3);
    captures = runner.simulate_captures({6.0, 3.5}, rng);
    const SpotFiServer server(link, runner.config().server);
    const auto round = server.try_localize(captures, rng);
    for (const auto& r : round->ap_results) {
      observations.push_back(r.observation);
    }
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_ApProcessorGroup10(benchmark::State& state) {
  auto& f = fixture();
  const auto threads = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(threads);
  ApProcessorConfig cfg;
  cfg.pool = threads > 1 ? &pool : nullptr;
  const ApProcessor processor(f.link, f.captures[0].pose, cfg);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        processor.process_robust(f.captures[0].packets, rng));
  }
}
BENCHMARK(BM_ApProcessorGroup10)->ArgName("threads")->Arg(1)->Arg(4);

void BM_LocalizeSolve(benchmark::State& state) {
  auto& f = fixture();
  LocalizerConfig cfg;
  cfg.area_min = f.runner.deployment().area_min;
  cfg.area_max = f.runner.deployment().area_max;
  const SpotFiLocalizer localizer(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(localizer.locate(f.observations));
  }
}
BENCHMARK(BM_LocalizeSolve);

/// uplink_durable's solve: the first three APs, each at the fallback
/// chain's RSSI-only rung, so every residual evaluation skips the bearing.
void BM_LocalizeSolveRssiOnly3Aps(benchmark::State& state) {
  auto& f = fixture();
  LocalizerConfig cfg;
  cfg.area_min = f.runner.deployment().area_min;
  cfg.area_max = f.runner.deployment().area_max;
  const SpotFiLocalizer localizer(cfg);
  std::vector<ApObservation> observations(f.observations.begin(),
                                          f.observations.begin() + 3);
  for (ApObservation& obs : observations) {
    obs.has_aoa = false;
    obs.likelihood = kRssiOnlyLikelihood;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(localizer.locate(observations));
  }
}
BENCHMARK(BM_LocalizeSolveRssiOnly3Aps);

void BM_FullRound6Aps(benchmark::State& state) {
  auto& f = fixture();
  ServerConfig cfg = f.runner.config().server;
  cfg.num_threads = static_cast<std::size_t>(state.range(0));
  const SpotFiServer server(f.link, cfg);
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.try_localize(f.captures, rng));
  }
}
BENCHMARK(BM_FullRound6Aps)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(6);

/// The served round: the same six captures with leave-one-out rejection
/// on, the session layer's default, so the fusion stage's primary solve
/// and one subset solve per AP run as one pool batch after the per-AP
/// fan-out.
void BM_ServedRound6Aps(benchmark::State& state) {
  auto& f = fixture();
  ServerConfig cfg = f.runner.config().server;
  cfg.fusion.loo_rejection = true;
  cfg.num_threads = static_cast<std::size_t>(state.range(0));
  const SpotFiServer server(f.link, cfg);
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.try_localize(f.captures, rng));
  }
}
BENCHMARK(BM_ServedRound6Aps)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4);

// --- stage-level benches (DESIGN.md §15) -------------------------------
// One number per StageBreakdown phase — the kernel each phase meters:
// sanitize_tof, the estimator's stage_subspace/stage_spectrum entry
// points for the two MUSIC phases, cluster_path_estimates plus
// select_spotfi, and the localizer solve — so the eig-vs-sweep cost
// split the ROADMAP items 2-3 target is visible stage by stage, not just
// in the end-to-end group numbers above.

void BM_Stage_Sanitize(benchmark::State& state) {
  auto& f = fixture();
  const CsiPacket& packet = f.captures[0].packets[0];
  Workspace ws;
  for (auto _ : state) {
    Workspace::Frame frame(ws);
    benchmark::DoNotOptimize(
        sanitize_tof(ConstCMatrixView(packet.csi), f.link, ws));
  }
}
BENCHMARK(BM_Stage_Sanitize);

void BM_Stage_Subspace(benchmark::State& state) {
  // Smoothing + eigendecomposition + noise-subspace split (smoothing is
  // folded into the subspace phase, matching the telemetry buckets).
  auto& f = fixture();
  const JointMusicEstimator est(f.link, JointMusicConfig{});
  const CsiPacket& packet = f.captures[0].packets[0];
  Workspace ws;
  for (auto _ : state) {
    Workspace::Frame frame(ws);
    benchmark::DoNotOptimize(
        est.stage_subspace(ConstCMatrixView(packet.csi), ws));
  }
}
BENCHMARK(BM_Stage_Subspace);

void BM_Stage_Spectrum(benchmark::State& state) {
  // The grid sweep alone: subspaces are computed once into an enclosing
  // frame, each iteration sweeps the pseudospectrum and extracts peaks.
  // swept_cols counts the ToF columns the sweep computes (of 320): the
  // rest are proved below the peak floor by their bound.
  auto& f = fixture();
  const JointMusicEstimator est(f.link, JointMusicConfig{});
  const CsiPacket& packet = f.captures[0].packets[0];
  Workspace ws;
  Workspace::Frame outer(ws);
  const SubspacesRef sub =
      est.stage_subspace(ConstCMatrixView(packet.csi), ws);
  std::vector<PathEstimate> out(est.config().max_paths);
  for (auto _ : state) {
    Workspace::Frame frame(ws);
    benchmark::DoNotOptimize(est.stage_spectrum(sub, ws, out));
  }
  Workspace::Frame frame(ws);
  state.counters["swept_cols"] = benchmark::Counter(
      static_cast<double>(est.sweep_spectrum(sub, ws).grid.swept.size()));
}
BENCHMARK(BM_Stage_Spectrum);

void BM_Stage_Cluster(benchmark::State& state) {
  // Clustering + direct-path selection over one group's pooled
  // estimates (the kCluster telemetry bucket end to end).
  auto& f = fixture();
  const JointMusicEstimator est(f.link, JointMusicConfig{});
  std::vector<PathEstimate> pooled;
  for (const auto& packet : f.captures[0].packets) {
    const std::vector<PathEstimate> estimates = est.estimate(packet.csi);
    pooled.insert(pooled.end(), estimates.begin(), estimates.end());
  }
  Workspace ws;
  Rng rng(21);
  const std::size_t n_packets = f.captures[0].packets.size();
  for (auto _ : state) {
    Workspace::Frame frame(ws);
    const auto clusters = cluster_path_estimates(pooled, f.link, n_packets,
                                                 rng, DirectPathConfig{}, ws);
    benchmark::DoNotOptimize(select_spotfi(clusters));
  }
}
BENCHMARK(BM_Stage_Cluster);

void BM_Stage_Localize(benchmark::State& state) {
  auto& f = fixture();
  LocalizerConfig cfg;
  cfg.area_min = f.runner.deployment().area_min;
  cfg.area_max = f.runner.deployment().area_max;
  const SpotFiLocalizer localizer(cfg);
  Workspace ws;
  for (auto _ : state) {
    Workspace::Frame frame(ws);
    benchmark::DoNotOptimize(localizer.locate(
        std::span<const ApObservation>(f.observations), ws));
  }
}
BENCHMARK(BM_Stage_Localize);

// --- cross-session batch scheduling ------------------------------------

/// pump_all() over N tenants with one full group queued each: every
/// iteration gathers N prepared rounds into one shared batch (steering
/// tables interned process-wide, arenas reused across tenants) and
/// executes it on the manager's pool. Same workload shape as
/// perf_sessions' BM_SessionRounds (3 APs, group of 2, ESPRIT rung), so
/// the two series read side by side as batched vs per-session pumping.
void BM_BatchedPump(benchmark::State& state) {
  const auto n_sessions = static_cast<std::size_t>(state.range(0));
  auto& f = fixture();
  constexpr std::size_t kGroup = 2;
  constexpr std::size_t kAps = 3;

  SessionManager manager(f.link);
  std::vector<SessionId> ids;
  ids.reserve(n_sessions);
  for (std::size_t s = 0; s < n_sessions; ++s) {
    SessionConfig cfg;
    cfg.streaming.group_size = kGroup;
    cfg.streaming.server.localizer.area_min = f.runner.deployment().area_min;
    cfg.streaming.server.localizer.area_max = f.runner.deployment().area_max;
    cfg.streaming.server.ap.fallback.entry_stage = ApStage::kEsprit;
    for (std::size_t a = 0; a < kAps; ++a) {
      cfg.aps.push_back(f.captures[a].pose);
    }
    cfg.overload.queue_capacity = 2 * kAps * kGroup;
    cfg.seed = 100 + s;
    ids.push_back(manager.open_session(cfg));
  }

  std::size_t rounds = 0;
  for (auto _ : state) {
    for (const SessionId id : ids) {
      for (std::size_t a = 0; a < kAps; ++a) {
        for (std::size_t p = 0; p < kGroup; ++p) {
          benchmark::DoNotOptimize(
              manager.offer(id, a, f.captures[a].packets[p]));
        }
      }
    }
    benchmark::DoNotOptimize(manager.pump_all());
    rounds += n_sessions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
  state.counters["sessions"] =
      benchmark::Counter(static_cast<double>(n_sessions));
}
BENCHMARK(BM_BatchedPump)
    ->ArgName("sessions")
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);
// Few iterations fit the time budget at 100 tenants: repeat, and report
// the median and its coefficient of variation.
BENCHMARK(BM_BatchedPump)
    ->ArgName("sessions")
    ->Arg(100)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMillisecond);

void BM_ChannelSynthesis(benchmark::State& state) {
  auto& f = fixture();
  Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.runner.simulate_captures({6.0, 3.5}, rng));
  }
}
BENCHMARK(BM_ChannelSynthesis);

}  // namespace

BENCHMARK_MAIN();
