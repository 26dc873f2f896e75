// Kernel-level oracle gates over fixed corpora of sanitized packets from
// the office, high-NLoS and corridor deployments.
//
// EighOracleCorpus: the served subspace stage and the spectrum stage
// built on it must agree with a textbook Jacobi oracle
// (tests/jacobi_oracle.hpp):
//
//  * eigenvalues within 1e-12 * lambda_max;
//  * the same model order;
//  * the same noise projector E_n E_n^H, within 1e-10;
//  * the same MUSIC peak cells, in order, as a reference pseudospectrum
//    that projects every joint steering vector onto the oracle's noise
//    basis directly (refine_peaks off, so estimates sit on grid cells).
//
// DirectPathOracleCorpus: per group of packets, the served spectrum
// stage's refined estimates and those of a reference pseudospectrum that
// projects every joint steering vector onto the served noise basis
// directly, clustered on equal random streams, select the same
// direct-path cluster (Algorithm 2 lines 6-10): equal size, mean AoA
// within 1e-9 rad.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "cluster/direct_path.hpp"
#include "csi/sanitize.hpp"
#include "csi/smoothing.hpp"
#include "jacobi_oracle.hpp"
#include "music/estimators.hpp"
#include "music/peaks.hpp"
#include "music/steering.hpp"
#include "testbed/deployment.hpp"
#include "testbed/experiment.hpp"

namespace spotfi {
namespace {

const LinkConfig kLink = LinkConfig::intel5300_40mhz();
constexpr std::size_t kPacketsPerDeployment = 24;

// One deployment's corpus. PrintTo names the case after the deployment
// in ctest (a printed function pointer would change on every build).
struct CorpusCase {
  const char* name;
  Deployment (*deployment)();
  std::uint64_t seed;
};

void PrintTo(const CorpusCase& c, std::ostream* os) { *os << c.name; }

/// The first kPacketsPerDeployment packets (two per AP per target, targets
/// in deployment order), sanitized by Algorithm 1 as the served path does
/// before estimation.
std::vector<CMatrix> corpus(const CorpusCase& c) {
  ExperimentConfig cfg;
  cfg.packets_per_group = 2;
  const Deployment deployment = c.deployment();
  const ExperimentRunner runner(kLink, deployment, cfg);
  Rng rng(c.seed);
  std::vector<CMatrix> out;
  for (const Vec2 target : deployment.targets) {
    for (const ApCapture& capture : runner.simulate_captures(target, rng)) {
      for (const CsiPacket& packet : capture.packets) {
        out.push_back(sanitize_tof(packet.csi, kLink).csi);
        if (out.size() == kPacketsPerDeployment) return out;
      }
    }
  }
  return out;
}

/// Algorithm 2 line 5's model order, applied to the oracle's eigenvalues:
/// the eigenvalues above relative_threshold * lambda_max, within the
/// configured signal and noise dimension caps.
std::size_t threshold_order(const RVector& ascending,
                            const SubspaceConfig& cfg) {
  const std::size_t dim = ascending.size();
  const double cut = cfg.relative_threshold * std::max(ascending.back(), 0.0);
  std::size_t k = 0;
  while (k < dim && ascending[dim - 1 - k] > cut) ++k;
  k = std::min({k, cfg.max_signal_dims, dim - cfg.min_noise_dims});
  return std::max<std::size_t>(k, 1);
}

/// The pseudospectrum by direct projection: 1 / max(||E_n^H a||^2, 1e-12)
/// for every grid point's joint steering vector a (the basis conjugated
/// and transposed once, so each projection is a contiguous dot product).
RMatrix projected_spectrum(const JointMusicEstimator& est,
                           ConstCMatrixView noise) {
  const JointMusicConfig& cfg = est.config();
  const std::size_t ant_len = cfg.smoothing.ant_len;
  const std::size_t sub_len = cfg.smoothing.sub_len;
  const std::size_t dim = ant_len * sub_len;
  std::vector<cplx> basis(noise.cols() * dim);
  for (std::size_t e = 0; e < noise.cols(); ++e)
    for (std::size_t r = 0; r < dim; ++r)
      basis[e * dim + r] = std::conj(noise(r, e));
  RMatrix values(est.aoa_grid().size(), est.tof_grid().size());
  std::vector<cplx> a(dim);
  for (std::size_t i = 0; i < values.rows(); ++i) {
    for (std::size_t j = 0; j < values.cols(); ++j) {
      joint_steering_into(est.aoa_grid()[i], est.tof_grid()[j], ant_len,
                          sub_len, kLink, a);
      double denom = 0.0;
      for (std::size_t e = 0; e < noise.cols(); ++e) {
        const cplx* b = &basis[e * dim];
        cplx proj{};
        for (std::size_t r = 0; r < dim; ++r) proj += b[r] * a[r];
        denom += std::norm(proj);
      }
      values(i, j) = 1.0 / std::max(denom, 1e-12);
    }
  }
  return values;
}

class EighOracleCorpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(EighOracleCorpus, MatchesTextbookJacobi) {
  const std::vector<CMatrix> packets = corpus(GetParam());
  ASSERT_EQ(packets.size(), kPacketsPerDeployment);

  JointMusicConfig cfg;
  cfg.refine_peaks = false;
  ASSERT_EQ(cfg.subspace.order_method, OrderMethod::kThreshold);
  const JointMusicEstimator est(kLink, cfg);
  const RVector& aoa_grid = est.aoa_grid();
  const RVector& tof_grid = est.tof_grid();
  const std::size_t dim = cfg.smoothing.ant_len * cfg.smoothing.sub_len;

  Workspace ws;
  for (std::size_t n = 0; n < packets.size(); ++n) {
    SCOPED_TRACE(::testing::Message() << "packet " << n);
    Workspace::Frame frame(ws);
    const SubspacesRef sub =
        est.stage_subspace(ConstCMatrixView(packets[n]), ws);
    const oracle::JacobiEig ref =
        oracle::jacobi_eigh(smoothed_csi(packets[n], cfg.smoothing).gram());
    ASSERT_TRUE(ref.converged);
    ASSERT_EQ(ref.eigenvalues.size(), dim);
    ASSERT_EQ(sub.eigenvalues.size(), dim);

    const double lambda_max = ref.eigenvalues.back();
    for (std::size_t k = 0; k < dim; ++k) {
      EXPECT_NEAR(sub.eigenvalues[k], ref.eigenvalues[k], 1e-12 * lambda_max)
          << "k=" << k;
    }

    const std::size_t order = threshold_order(ref.eigenvalues, cfg.subspace);
    ASSERT_EQ(sub.n_signal, order);
    const std::size_t n_noise = dim - order;
    ASSERT_EQ(sub.noise.cols(), n_noise);

    double worst = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        cplx got{};
        cplx want{};
        for (std::size_t e = 0; e < n_noise; ++e) {
          got += sub.noise(i, e) * std::conj(sub.noise(j, e));
          want += ref.eigenvectors(i, e) * std::conj(ref.eigenvectors(j, e));
        }
        worst = std::max(worst, std::abs(got - want));
      }
    }
    EXPECT_LE(worst, 1e-10) << "noise projector";

    // Reference pseudospectrum: every joint steering vector projected onto
    // the oracle's noise basis.
    const RMatrix want = projected_spectrum(
        est, ConstCMatrixView(ref.eigenvectors).block(0, 0, dim, n_noise));
    const std::span<const GridPeak> ref_peaks =
        find_peaks_2d(want, est.tof_axis_wraps(), 2 * cfg.max_paths,
                      cfg.min_relative_peak, ws);
    std::vector<std::pair<std::size_t, std::size_t>> want_cells;
    for (const GridPeak& pk : ref_peaks) {
      if (pk.i == 0 || pk.i + 1 == aoa_grid.size()) continue;
      if (want_cells.size() == cfg.max_paths) break;
      want_cells.emplace_back(pk.i, pk.j);
    }
    ASSERT_FALSE(want_cells.empty());

    std::vector<PathEstimate> out(cfg.max_paths);
    const std::size_t n_out = est.stage_spectrum(sub, ws, out);
    std::vector<std::pair<std::size_t, std::size_t>> got_cells;
    for (std::size_t k = 0; k < n_out; ++k) {
      const auto i = static_cast<std::size_t>(
          std::find(aoa_grid.begin(), aoa_grid.end(), out[k].aoa_rad) -
          aoa_grid.begin());
      const auto j = static_cast<std::size_t>(
          std::find(tof_grid.begin(), tof_grid.end(), out[k].tof_s) -
          tof_grid.begin());
      got_cells.emplace_back(i, j);
    }
    EXPECT_EQ(got_cells, want_cells);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Deployments, EighOracleCorpus,
    ::testing::Values(CorpusCase{"office", &office_deployment, 21},
                      CorpusCase{"high-nlos", &high_nlos_deployment, 22},
                      CorpusCase{"corridor", &corridor_deployment, 23}));

/// The first kGroups AP captures over the deployment's targets in order,
/// kGroupPackets packets each, sanitized as for corpus().
constexpr std::size_t kGroups = 4;
constexpr std::size_t kGroupPackets = 5;

std::vector<std::vector<CMatrix>> group_corpus(const CorpusCase& c) {
  ExperimentConfig cfg;
  cfg.packets_per_group = kGroupPackets;
  const Deployment deployment = c.deployment();
  const ExperimentRunner runner(kLink, deployment, cfg);
  Rng rng(c.seed);
  std::vector<std::vector<CMatrix>> out;
  for (const Vec2 target : deployment.targets) {
    for (const ApCapture& capture : runner.simulate_captures(target, rng)) {
      std::vector<CMatrix>& group = out.emplace_back();
      for (const CsiPacket& packet : capture.packets) {
        group.push_back(sanitize_tof(packet.csi, kLink).csi);
      }
      if (out.size() == kGroups) return out;
    }
  }
  return out;
}

/// stage_spectrum's peak extraction and parabolic refinement, restated
/// over a reference pseudospectrum of the default configuration (ToF
/// axis wraps, AoA edge rows excluded).
std::vector<PathEstimate> refined_estimates(const JointMusicEstimator& est,
                                            const RMatrix& values,
                                            Workspace& ws) {
  const JointMusicConfig& cfg = est.config();
  const std::size_t n_aoa = values.rows();
  const std::size_t n_tof = values.cols();
  Workspace::Frame frame(ws);
  std::vector<PathEstimate> out;
  for (const GridPeak& pk :
       find_peaks_2d(values, /*wrap_cols=*/true, 2 * cfg.max_paths,
                     cfg.min_relative_peak, ws)) {
    if (pk.i == 0 || pk.i + 1 == n_aoa) continue;
    if (out.size() == cfg.max_paths) break;
    const double di = parabolic_offset(values(pk.i - 1, pk.j),
                                       values(pk.i, pk.j),
                                       values(pk.i + 1, pk.j));
    const double dj =
        parabolic_offset(values(pk.i, (pk.j + n_tof - 1) % n_tof),
                         values(pk.i, pk.j), values(pk.i, (pk.j + 1) % n_tof));
    PathEstimate path;
    path.power = pk.value;
    path.aoa_rad = est.aoa_grid()[pk.i] + di * cfg.aoa_step_rad;
    path.tof_s = est.tof_grid()[pk.j] + dj * cfg.tof_step_s;
    out.push_back(path);
  }
  return out;
}

class DirectPathOracleCorpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(DirectPathOracleCorpus, SelectsTheSameClusterPerGroup) {
  const std::vector<std::vector<CMatrix>> groups = group_corpus(GetParam());
  ASSERT_EQ(groups.size(), kGroups);

  const JointMusicEstimator est(kLink);
  ASSERT_TRUE(est.config().refine_peaks);
  ASSERT_TRUE(est.config().exclude_aoa_edges);
  ASSERT_TRUE(est.tof_axis_wraps());
  Workspace ws;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    SCOPED_TRACE(::testing::Message() << "group " << g);
    ASSERT_EQ(groups[g].size(), kGroupPackets);
    std::vector<PathEstimate> served;
    std::vector<PathEstimate> reference;
    for (const CMatrix& packet : groups[g]) {
      Workspace::Frame frame(ws);
      const SubspacesRef sub = est.stage_subspace(ConstCMatrixView(packet), ws);
      std::vector<PathEstimate> out(est.config().max_paths);
      out.resize(est.stage_spectrum(sub, ws, out));
      served.insert(served.end(), out.begin(), out.end());
      const std::vector<PathEstimate> ref =
          refined_estimates(est, projected_spectrum(est, sub.noise), ws);
      reference.insert(reference.end(), ref.begin(), ref.end());
    }
    ASSERT_EQ(served.size(), reference.size());
    ASSERT_FALSE(served.empty());

    Rng served_rng(GetParam().seed + g);
    Rng reference_rng(GetParam().seed + g);
    const std::vector<ClusterSummary> got = cluster_path_estimates(
        served, kLink, kGroupPackets, served_rng, {}, ws);
    const std::vector<ClusterSummary> want = cluster_path_estimates(
        reference, kLink, kGroupPackets, reference_rng, {}, ws);
    const ClusterSummary& got_direct = got[select_spotfi(got)];
    const ClusterSummary& want_direct = want[select_spotfi(want)];
    EXPECT_EQ(got_direct.count, want_direct.count);
    EXPECT_NEAR(got_direct.mean_aoa_rad, want_direct.mean_aoa_rad, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Deployments, DirectPathOracleCorpus,
    ::testing::Values(CorpusCase{"office", &office_deployment, 21},
                      CorpusCase{"high-nlos", &high_nlos_deployment, 22},
                      CorpusCase{"corridor", &corridor_deployment, 23}));

}  // namespace
}  // namespace spotfi
