// LocalizerOracleCorpus: the served Eq. 9 solve must return exactly what
// the textbook localizer (tests/localizer_oracle.hpp) returns, with the
// same seeds and the same LM: position, cost, fitted path-loss model,
// `converged` and `starts_rejected`, compared with EXPECT_EQ. The corpus,
// per deployment (office, high-NLoS, corridor): the usable observations
// of kRounds served rounds, every leave-one-out subset of each, and all
// of those sets again with every observation marked RSSI-only.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "localizer_oracle.hpp"
#include "testbed/deployment.hpp"
#include "testbed/experiment.hpp"

namespace spotfi {
namespace {

const LinkConfig kLink = LinkConfig::intel5300_40mhz();
constexpr std::size_t kRounds = 8;

// One deployment's corpus. PrintTo names the case after the deployment
// in ctest (a printed function pointer would change on every build).
struct CorpusCase {
  const char* name;
  Deployment (*deployment)();
  std::uint64_t seed;
};

void PrintTo(const CorpusCase& c, std::ostream* os) { *os << c.name; }

using ObservationSet = std::vector<ApObservation>;

/// The solver inputs of one deployment, and the localizer configuration
/// its served rounds ran with.
struct Corpus {
  LocalizerConfig config;
  std::vector<ObservationSet> inputs;
  std::size_t rounds = 0;
};

Corpus corpus(const CorpusCase& c) {
  ExperimentConfig cfg;
  cfg.packets_per_group = 5;
  const ExperimentRunner runner(kLink, c.deployment(), cfg);
  const SpotFiServer server(kLink, runner.config().server);
  Corpus out;
  out.config = runner.config().server.localizer;
  Rng rng(c.seed);
  std::vector<ObservationSet> sets;
  for (const Vec2 target : runner.deployment().targets) {
    const auto round =
        server.try_localize(runner.simulate_captures(target, rng), rng);
    if (!round) continue;
    ObservationSet usable;
    for (std::size_t i = 0; i < round->ap_results.size(); ++i) {
      if (round->ap_stages[i] != ApStage::kFailed) {
        usable.push_back(round->ap_results[i].observation);
      }
    }
    sets.push_back(usable);
    for (std::size_t drop = 0; drop < usable.size() && usable.size() > 2;
         ++drop) {
      ObservationSet subset = usable;
      subset.erase(subset.begin() + static_cast<std::ptrdiff_t>(drop));
      sets.push_back(subset);
    }
    if (++out.rounds == kRounds) break;
  }
  out.inputs = sets;
  for (ObservationSet set : sets) {
    for (ApObservation& obs : set) obs.has_aoa = false;
    out.inputs.push_back(set);
  }
  return out;
}

class LocalizerOracleCorpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(LocalizerOracleCorpus, ServedSolveEqualsTextbookBitForBit) {
  const Corpus c = corpus(GetParam());
  ASSERT_EQ(c.rounds, kRounds);
  const SpotFiLocalizer localizer(c.config);
  Workspace ws;
  std::size_t solved = 0;
  for (std::size_t k = 0; k < c.inputs.size(); ++k) {
    SCOPED_TRACE("input " + std::to_string(k));
    std::optional<LocationEstimate> got;
    std::optional<LocationEstimate> want;
    try {
      got = localizer.locate(c.inputs[k], ws);
    } catch (const NumericalError&) {
    }
    try {
      want = oracle::locate(c.inputs[k], c.config);
    } catch (const NumericalError&) {
    }
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got) continue;
    ++solved;
    EXPECT_EQ(got->position.x, want->position.x);
    EXPECT_EQ(got->position.y, want->position.y);
    EXPECT_EQ(got->cost, want->cost);
    EXPECT_EQ(got->path_loss.p0_dbm, want->path_loss.p0_dbm);
    EXPECT_EQ(got->path_loss.exponent, want->path_loss.exponent);
    EXPECT_EQ(got->path_loss.d0_m, want->path_loss.d0_m);
    EXPECT_EQ(got->converged, want->converged);
    EXPECT_EQ(got->starts_tried, want->starts_tried);
    EXPECT_EQ(got->starts_rejected, want->starts_rejected);
  }
  EXPECT_EQ(solved, c.inputs.size());
}

INSTANTIATE_TEST_SUITE_P(
    Deployments, LocalizerOracleCorpus,
    ::testing::Values(CorpusCase{"office", &office_deployment, 31},
                      CorpusCase{"high-nlos", &high_nlos_deployment, 32},
                      CorpusCase{"corridor", &corridor_deployment, 33}));

}  // namespace
}  // namespace spotfi
