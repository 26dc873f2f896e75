// Tests for the concurrency substrate (common/parallel) and the
// determinism contract of the parallel localization engine: a round run
// with 1 thread and with N threads must produce identical estimates,
// notes, and numerics digests, because per-task Rng streams are forked
// before dispatch and all results are folded in index order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/server.hpp"
#include "testbed/deployment.hpp"
#include "testbed/experiment.hpp"

namespace spotfi {
namespace {

// --- thread-count resolution ---

TEST(ResolveThreads, ZeroMapsToHardwareConcurrency) {
  unsetenv("SPOTFI_THREADS");
  const std::size_t resolved = ThreadPool::resolve_threads(0);
  EXPECT_GE(resolved, 1u);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_EQ(resolved, hw);
  }
}

TEST(ResolveThreads, ExplicitCountPassesThrough) {
  unsetenv("SPOTFI_THREADS");
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(7), 7u);
}

TEST(ResolveThreads, EnvOverrideWins) {
  setenv("SPOTFI_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::resolve_threads(1), 3u);
  EXPECT_EQ(ThreadPool::resolve_threads(0), 3u);
  setenv("SPOTFI_THREADS", "0", 1);
  EXPECT_GE(ThreadPool::resolve_threads(5), 1u);  // 0 -> hardware
  unsetenv("SPOTFI_THREADS");
}

TEST(ResolveThreads, MalformedEnvValuesThrowInsteadOfBeingIgnored) {
  // An operator typo must fail at startup, not silently fall back to the
  // configured count. One case per distinct failure shape.
  const char* bad[] = {
      "",                      // empty string
      "not-a-number",          // pure garbage
      "3x",                    // trailing junk after valid digits
      "x3",                    // leading junk
      "-1",                    // negative (strtoull would wrap it)
      "+4",                    // explicit sign is not "plain digits"
      " 4",                    // leading whitespace
      "4 ",                    // trailing whitespace
      "0x10",                  // hex is not base-10
      "3.5",                   // fractional
  };
  for (const char* value : bad) {
    setenv("SPOTFI_THREADS", value, 1);
    EXPECT_THROW((void)ThreadPool::resolve_threads(5), ContractViolation)
        << "value: \"" << value << '"';
  }
  unsetenv("SPOTFI_THREADS");
}

TEST(ResolveThreads, OutOfRangeEnvValuesThrow) {
  // Above the sanity cap but representable.
  setenv("SPOTFI_THREADS",
         std::to_string(ThreadPool::kMaxEnvThreads + 1).c_str(), 1);
  EXPECT_THROW((void)ThreadPool::resolve_threads(1), ContractViolation);
  // Overflows unsigned long long entirely (ERANGE path).
  setenv("SPOTFI_THREADS", "99999999999999999999999999", 1);
  EXPECT_THROW((void)ThreadPool::resolve_threads(1), ContractViolation);
  // The cap itself is accepted.
  setenv("SPOTFI_THREADS",
         std::to_string(ThreadPool::kMaxEnvThreads).c_str(), 1);
  EXPECT_EQ(ThreadPool::resolve_threads(1), ThreadPool::kMaxEnvThreads);
  unsetenv("SPOTFI_THREADS");
}

// --- ThreadPool mechanics ---

TEST(ThreadPool, SingleLanePoolSpawnsNoWorkersAndRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  pool.parallel_for(8, [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t kN = 250;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ZeroAndOneTaskDegenerateCases) {
  ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
  int calls = 0;
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder) {
  ThreadPool pool(4);
  const auto out =
      pool.parallel_map(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, LowestIndexExceptionWinsAndAllIndicesStillRun) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  try {
    pool.parallel_for(kN, [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 10 || i == 40) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "expected the exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 10");
  }
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, NestedSubmitRunsInlineOnTheWorker) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  std::atomic<int> outer_on_worker{0};
  std::atomic<int> nested_inline{0};
  pool.parallel_for(8, [&](std::size_t) {
    const auto outer_thread = std::this_thread::get_id();
    const bool on_worker = ThreadPool::on_worker_thread();
    if (on_worker) outer_on_worker.fetch_add(1);
    pool.parallel_for(5, [&](std::size_t) {
      inner_total.fetch_add(1);
      if (on_worker && std::this_thread::get_id() == outer_thread) {
        nested_inline.fetch_add(1);
      }
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 5);
  // Every inner iteration dispatched from a worker must run inline on
  // that same worker — never re-queued. (How many outer iterations land
  // on workers vs the participating caller is scheduler-dependent; on a
  // single-core machine the caller may claim all of them, so the exact
  // split is asserted rather than a worker share.)
  EXPECT_EQ(nested_inline.load(), outer_on_worker.load() * 5);
}

TEST(ThreadPool, SurvivesManySmallBatches) {
  ThreadPool pool(3);
  std::size_t total = 0;
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(7, [&](std::size_t i) { sum.fetch_add(i + 1); });
    total += sum.load();
  }
  EXPECT_EQ(total, 200u * (7u * 8u / 2u));
}

// --- shutdown contract ---

TEST(ThreadPoolShutdown, IdempotentAndSubmitAfterShutdownRunsInline) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  pool.shutdown();
  pool.shutdown();  // second call must be a no-op, not a crash
  EXPECT_EQ(pool.size(), 1u);

  // Submit-after-shutdown: well-defined, correct, and inline-serial.
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.parallel_for(16, [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);

  const auto out = pool.parallel_map(8, [](std::size_t i) { return 2 * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 2 * i);
}

TEST(ThreadPoolShutdown, ShutdownWithTasksStillQueuedLosesNoIndex) {
  // Destroy/shutdown racing an in-flight batch: the dispatching thread
  // must still see every index run exactly once — workers that observe
  // the stop flag abandon the queue and the caller finishes inline.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    constexpr std::size_t kN = 64;
    std::vector<std::atomic<int>> hits(kN);
    std::atomic<bool> started{false};
    std::thread submitter([&] {
      pool.parallel_for(kN, [&](std::size_t i) {
        started.store(true);
        // Slow tasks keep the batch alive across the shutdown call.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        hits[i].fetch_add(1);
      });
    });
    while (!started.load()) std::this_thread::yield();
    pool.shutdown();
    submitter.join();
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(ThreadPoolShutdown, DestroyAfterMidBatchShutdownIsClean) {
  // The documented teardown order for a pool with work in flight on
  // another thread: shutdown() (safe concurrently), join the
  // dispatching thread (its parallel_for drains the batch inline), then
  // destroy. The destructor re-runs shutdown on an already-stopped pool
  // — the idempotent path — and must neither hang nor double-join.
  constexpr std::size_t kN = 48;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<bool> started{false};
  {
    ThreadPool pool(4);
    std::thread submitter([&] {
      pool.parallel_for(kN, [&](std::size_t i) {
        started.store(true);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        hits[i].fetch_add(1);
      });
    });
    while (!started.load()) std::this_thread::yield();
    pool.shutdown();
    submitter.join();
  }  // ~ThreadPool after an explicit mid-batch shutdown
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

// --- pipeline determinism: 1 thread vs 4 threads, same seed ---

struct RoundPair {
  LocalizationRound serial;
  LocalizationRound parallel;
};

/// One office round on `threads` lanes, localized with Rng(99).
LocalizationRound localize_on_lanes(const ExperimentRunner& runner,
                                    std::span<const ApCapture> captures,
                                    std::size_t threads, bool loo_rejection) {
  ServerConfig cfg;
  cfg.num_threads = threads;
  cfg.localizer.area_min = runner.deployment().area_min;
  cfg.localizer.area_max = runner.deployment().area_max;
  cfg.fusion.loo_rejection = loo_rejection;
  const SpotFiServer server(runner.link(), cfg);
  EXPECT_EQ(server.num_threads(), threads);
  Rng rng(99);
  auto result = server.try_localize(captures, rng);
  if (!result.has_value()) {
    ADD_FAILURE() << result.error().reason;
    return {};
  }
  return std::move(result.value());
}

RoundPair run_round_both_ways(bool loo_rejection, bool poison_one_ap) {
  unsetenv("SPOTFI_THREADS");
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  ExperimentConfig exp_cfg;
  exp_cfg.packets_per_group = 6;
  const ExperimentRunner runner(link, office_deployment(), exp_cfg);
  Rng capture_rng(2024);
  auto captures = runner.simulate_captures({6.0, 3.5}, capture_rng);
  if (poison_one_ap) captures[2].packets.clear();
  return {localize_on_lanes(runner, captures, 1, loo_rejection),
          localize_on_lanes(runner, captures, 4, loo_rejection)};
}

void expect_rounds_identical(const LocalizationRound& a,
                             const LocalizationRound& b) {
  // Bitwise-equal location: the parallel engine must not reorder a
  // single floating-point operation relative to the serial path.
  EXPECT_EQ(a.location.position.x, b.location.position.x);
  EXPECT_EQ(a.location.position.y, b.location.position.y);
  ASSERT_EQ(a.ap_results.size(), b.ap_results.size());
  for (std::size_t i = 0; i < a.ap_results.size(); ++i) {
    EXPECT_EQ(a.ap_results[i].observation.direct_aoa_rad,
              b.ap_results[i].observation.direct_aoa_rad);
    EXPECT_EQ(a.ap_results[i].observation.likelihood,
              b.ap_results[i].observation.likelihood);
    EXPECT_EQ(a.ap_results[i].observation.rssi_dbm,
              b.ap_results[i].observation.rssi_dbm);
    EXPECT_EQ(a.ap_results[i].pooled_estimates.size(),
              b.ap_results[i].pooled_estimates.size());
  }
  EXPECT_EQ(a.ap_stages, b.ap_stages);
  EXPECT_EQ(a.notes, b.notes);
  EXPECT_EQ(a.rejected_aps, b.rejected_aps);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.numerics.summary(), b.numerics.summary());
  EXPECT_EQ(a.numerics.total(), b.numerics.total());
}

TEST(ParallelDeterminism, StrictLocalizeIdenticalAcrossThreadCounts) {
  // The figures' configuration (ExperimentRunner): leave-one-out off,
  // every AP on its primary estimator.
  const RoundPair pair = run_round_both_ways(/*loo_rejection=*/false,
                                             /*poison_one_ap=*/false);
  expect_rounds_identical(pair.serial, pair.parallel);
  for (const ApStage stage : pair.serial.ap_stages) {
    EXPECT_EQ(stage, ApStage::kPrimary);
  }
}

TEST(ParallelDeterminism, RobustRoundIdenticalAcrossThreadCounts) {
  const RoundPair pair = run_round_both_ways(/*loo_rejection=*/true,
                                             /*poison_one_ap=*/false);
  expect_rounds_identical(pair.serial, pair.parallel);
}

TEST(ParallelDeterminism, DegradedRoundIdenticalAcrossThreadCounts) {
  // An empty capture forces a degradation note and an AP-stage fold —
  // the bookkeeping must also be thread-count invariant.
  const RoundPair pair = run_round_both_ways(/*loo_rejection=*/true,
                                             /*poison_one_ap=*/true);
  EXPECT_TRUE(pair.serial.degraded);
  expect_rounds_identical(pair.serial, pair.parallel);
}

TEST(ParallelDeterminism, RejectingRoundIdenticalAcrossThreadCounts) {
  // A round whose leave-one-out check rejects APs, so a later pass of
  // subset solves runs across lanes as well as pass 1: the sixth office
  // capture drawn from Rng(2024), target (4.0, 3.5) in groups of 6,
  // rejects 2 APs.
  unsetenv("SPOTFI_THREADS");
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  ExperimentConfig exp_cfg;
  exp_cfg.packets_per_group = 6;
  const ExperimentRunner runner(link, office_deployment(), exp_cfg);
  Rng capture_rng(2024);
  std::vector<ApCapture> captures;
  for (std::size_t t = 0; t <= 5; ++t) {
    captures = runner.simulate_captures(runner.deployment().targets[t],
                                        capture_rng);
  }

  std::vector<LocalizationRound> rounds;
  for (const std::size_t threads : {1, 2, 4}) {
    rounds.push_back(localize_on_lanes(runner, captures, threads,
                                       /*loo_rejection=*/true));
  }

  const LocalizationRound& serial = rounds[0];
  ASSERT_FALSE(serial.rejected_aps.empty());
  for (std::size_t k = 1; k < rounds.size(); ++k) {
    const LocalizationRound& other = rounds[k];
    expect_rounds_identical(serial, other);
    EXPECT_EQ(serial.location.cost, other.location.cost);
    EXPECT_EQ(serial.workspace_peak_bytes, other.workspace_peak_bytes);
    for (std::size_t p = 0; p < kStagePhaseCount; ++p) {
      EXPECT_EQ(serial.stage_breakdown.workspace_peak_bytes[p],
                other.stage_breakdown.workspace_peak_bytes[p])
          << to_string(static_cast<StagePhase>(p));
    }
  }
}

TEST(ParallelDeterminism, CallerRngAdvancesIdentically) {
  // After a round, the caller's generator must be in the same state for
  // every thread count (exactly n forks), so downstream draws stay
  // reproducible when threading is toggled.
  unsetenv("SPOTFI_THREADS");
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  ExperimentConfig exp_cfg;
  exp_cfg.packets_per_group = 5;
  const ExperimentRunner runner(link, office_deployment(), exp_cfg);
  Rng capture_rng(7);
  const auto captures = runner.simulate_captures({5.0, 4.0}, capture_rng);

  std::vector<std::uint64_t> next_draw;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ServerConfig cfg;
    cfg.num_threads = threads;
    cfg.localizer.area_min = runner.deployment().area_min;
    cfg.localizer.area_max = runner.deployment().area_max;
    const SpotFiServer server(link, cfg);
    Rng rng(42);
    (void)server.try_localize(captures, rng);
    next_draw.push_back(rng());
  }
  ASSERT_EQ(next_draw.size(), 2u);
  EXPECT_EQ(next_draw[0], next_draw[1]);
}

}  // namespace
}  // namespace spotfi
