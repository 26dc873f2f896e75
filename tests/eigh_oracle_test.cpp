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
//
// PrunedSweepCorpus: the served spectrum stage sweeps only the ToF
// columns whose bound can reach the peak floor. Its estimates must equal,
// bit for bit, those of the full grid of spectrum() under the same peak
// search and refinement (tests/spectrum_reference.hpp), on raw and
// sanitized packets, for the default grid, a non-wrapping ToF range, a
// 3 x 10 subarray and min_relative_peak = 0, with refinement on and off.
// Every column's bound must be at least each of its cells, and every
// swept cell must equal the full grid's.
//
// SplitRealKernels: eigh, the complex gram_into and the MUSIC sweep
// tables multiply as split real arithmetic on interleaved (re, im)
// doubles. Each must reproduce, bit for bit, the std::complex kernel it
// replaced (tests/complex_kernel_reference.hpp): on the corpus packets
// above, on random low-rank-plus-noise covariances, on inputs that put
// eigh's scale exponent and its Hermitian bound on a knife edge, and
// through JointMusicEstimator::spectrum() and MusicAoaEstimator's.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <utility>
#include <vector>

#include "cluster/direct_path.hpp"
#include "common/rng.hpp"
#include "complex_kernel_reference.hpp"
#include "csi/sanitize.hpp"
#include "csi/smoothing.hpp"
#include "jacobi_oracle.hpp"
#include "linalg/hermitian_eig.hpp"
#include "spectrum_reference.hpp"
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
/// before estimation, or raw.
std::vector<CMatrix> corpus(const CorpusCase& c, bool sanitized = true) {
  ExperimentConfig cfg;
  cfg.packets_per_group = 2;
  const Deployment deployment = c.deployment();
  const ExperimentRunner runner(kLink, deployment, cfg);
  Rng rng(c.seed);
  std::vector<CMatrix> out;
  for (const Vec2 target : deployment.targets) {
    for (const ApCapture& capture : runner.simulate_captures(target, rng)) {
      for (const CsiPacket& packet : capture.packets) {
        out.push_back(sanitized ? sanitize_tof(packet.csi, kLink).csi
                                : packet.csi);
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
  k = std::min({k, cfg.max_signal_dims, dim - kMinNoiseDims});
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

class PrunedSweepCorpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(PrunedSweepCorpus, StageSpectrumEqualsTheFullGridBitForBit) {
  std::vector<CMatrix> inputs = corpus(GetParam(), /*sanitized=*/false);
  for (CMatrix& csi : corpus(GetParam())) inputs.push_back(std::move(csi));
  ASSERT_EQ(inputs.size(), 2 * kPacketsPerDeployment);

  std::vector<JointMusicConfig> configs(4);
  configs[1].tof_min_s = -50e-9;  // does not wrap; off the period grid
  configs[1].tof_max_s = 300e-9;
  configs[1].tof_step_s = 1e-9;
  configs[2].smoothing = SmoothingConfig{.sub_len = 10, .ant_len = 3};
  configs[3].min_relative_peak = 0.0;  // nothing may be skipped
  Workspace ws;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    JointMusicConfig refined = configs[c];
    JointMusicConfig on_grid = configs[c];
    on_grid.refine_peaks = false;
    const JointMusicEstimator est(kLink, refined);
    const JointMusicEstimator est_on_grid(kLink, on_grid);
    const std::size_t n_tof = est.tof_grid().size();
    std::size_t swept_total = 0;
    for (std::size_t n = 0; n < inputs.size(); ++n) {
      SCOPED_TRACE(::testing::Message() << "config " << c << " input " << n);
      Workspace::Frame frame(ws);
      const AoaTofSpectrum full = est.spectrum(inputs[n]);
      const SubspacesRef sub =
          est.stage_subspace(ConstCMatrixView(inputs[n]), ws);
      const SweptSpectrum swept = est.sweep_spectrum(sub, ws);
      ASSERT_EQ(swept.grid.col.size(), n_tof);
      ASSERT_EQ(swept.grid.rows, full.values.rows());
      swept_total += swept.grid.swept.size();
      for (std::size_t j = 0; j < n_tof; ++j) {
        const double* col = swept.grid.col[j];
        for (std::size_t i = 0; i < full.values.rows(); ++i) {
          const double cell = full.values(i, j);
          ASSERT_LE(cell, swept.bound[j]) << "cell (" << i << ", " << j << ")";
          if (col != nullptr) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(col[i]),
                      std::bit_cast<std::uint64_t>(cell))
                << "cell (" << i << ", " << j << ")";
          }
        }
      }
      for (const JointMusicEstimator* e : {&est, &est_on_grid}) {
        std::vector<PathEstimate> got(e->config().max_paths);
        got.resize(e->stage_spectrum(sub, ws, got));
        const std::vector<PathEstimate> want =
            full_grid_estimates(*e, full.values, ws);
        ASSERT_FALSE(want.empty());
        EXPECT_TRUE(same_bits(got, want))
            << "refine " << e->config().refine_peaks << ": " << got.size()
            << " vs " << want.size() << " estimates";
      }
    }
    if (configs[c].min_relative_peak == 0.0) {
      EXPECT_EQ(swept_total, inputs.size() * n_tof);
    } else if (configs[c].smoothing.ant_len == 2) {
      // The saving this stage exists for: with two antennas per subarray
      // the bound is the exact minimum over unit-modulus weights, and
      // most columns are skipped. (Pairwise, it is looser for three.)
      EXPECT_LT(swept_total, inputs.size() * n_tof / 10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Deployments, PrunedSweepCorpus,
    ::testing::Values(CorpusCase{"office", &office_deployment, 21},
                      CorpusCase{"high-nlos", &high_nlos_deployment, 22},
                      CorpusCase{"corridor", &corridor_deployment, 23}));

/// True when the two arrays hold the same bytes.
template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool same_bytes(const RMatrix& a, const RMatrix& b) {
  return a.rows() == b.rows() && same_bytes<double>(a.flat(), b.flat());
}

/// gram_into on x, served and reference, byte for byte.
void expect_gram_matches_reference(const CMatrix& x) {
  CMatrix got(x.rows(), x.rows());
  CMatrix want(x.rows(), x.rows());
  gram_into<cplx>(x, got.view());
  complex_reference::gram_into(x, want.view());
  EXPECT_TRUE(same_bytes<cplx>(got.flat(), want.flat())) << "gram";
}

/// eigh on a, served and reference, byte for byte: eigenvalues,
/// eigenvectors, max_residual, rcond and converged.
void expect_eigh_matches_reference(ConstCMatrixView a, Workspace& ws) {
  Workspace::Frame frame(ws);
  const EighResult got = eigh(a, ws);
  const EighResult want = complex_reference::eigh(a, ws);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_residual),
            std::bit_cast<std::uint64_t>(want.max_residual));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.rcond),
            std::bit_cast<std::uint64_t>(want.rcond));
  EXPECT_TRUE(same_bytes<double>(got.eigenvalues, want.eigenvalues))
      << "eigenvalues";
  bool vectors = true;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    vectors = vectors && same_bytes<cplx>(got.eigenvectors.row(i),
                                          want.eigenvectors.row(i));
  }
  EXPECT_TRUE(vectors) << "eigenvectors";
}

/// A random Hermitian n x n matrix, entries of unit order.
CMatrix random_hermitian(std::size_t n, Rng& rng) {
  CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = rng.normal();
    for (std::size_t j = 0; j < i; ++j) {
      a(i, j) = cplx(rng.normal(), rng.normal());
      a(j, i) = std::conj(a(i, j));
    }
  }
  return a;
}

TEST(SplitRealKernels, GramAndEighMatchComplexReferenceOnCorpus) {
  const SmoothingConfig smoothing;
  Workspace ws;
  std::size_t checked = 0;
  for (const CorpusCase& c :
       {CorpusCase{"office", &office_deployment, 21},
        CorpusCase{"high-nlos", &high_nlos_deployment, 22},
        CorpusCase{"corridor", &corridor_deployment, 23}}) {
    for (const CMatrix& packet : corpus(c)) {
      SCOPED_TRACE(::testing::Message() << c.name << " packet " << checked);
      const CMatrix x = smoothed_csi(packet, smoothing);
      expect_gram_matches_reference(x);
      expect_eigh_matches_reference(x.gram(), ws);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 3 * kPacketsPerDeployment);
}

TEST(SplitRealKernels, GramAndEighMatchComplexReferenceOnLowRankCovariances) {
  // X = S + noise with S of rank 1-8, 30 x 32 like the smoothed CSI; every
  // fifth scaled by 1e-3, and every seventh of another (odd or tiny) shape
  // so the two-wide loops run their tails.
  Rng rng(28);
  Workspace ws;
  constexpr std::size_t kShapes[][2] = {{29, 31}, {7, 9}, {3, 2}, {2, 5},
                                        {1, 1},   {17, 17}};
  for (std::size_t t = 0; t < 200; ++t) {
    SCOPED_TRACE(::testing::Message() << "covariance " << t);
    std::size_t rows = 30;
    std::size_t cols = 32;
    if (t % 7 == 6) {
      rows = kShapes[(t / 7) % std::size(kShapes)][0];
      cols = kShapes[(t / 7) % std::size(kShapes)][1];
    }
    const std::size_t rank = 1 + t % 8;
    CMatrix left(rows, rank);
    CMatrix right(rank, cols);
    for (cplx& v : left.flat()) v = cplx(rng.normal(), rng.normal());
    for (cplx& v : right.flat()) v = cplx(rng.normal(), rng.normal());
    CMatrix x = left * right;
    const double noise = 1e-2 * (1.0 + static_cast<double>(t % 5));
    for (cplx& v : x.flat()) {
      v += noise * cplx(rng.normal(), rng.normal());
      if (t % 5 == 0) v *= 1e-3;
    }
    expect_gram_matches_reference(x);
    expect_eigh_matches_reference(x.gram(), ws);
  }
}

TEST(SplitRealKernels, ScaleExponentEdgesMatchComplexReference) {
  // eigh's scale is the largest |a_ij| after symmetrizing; its
  // power-of-two exponent must be the one std::abs would give.
  Rng rng(281);
  const std::size_t n = 30;
  Workspace ws;
  const double pow2 = std::ldexp(1.0, 3);
  for (const double top : {std::nextafter(pow2, 0.0), pow2,
                           std::nextafter(pow2, 2.0 * pow2)}) {
    for (const bool diagonal : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "largest entry " << top
                                        << (diagonal ? " on" : " off")
                                        << " the diagonal");
      CMatrix a = random_hermitian(n, rng);  // |a_ij| well below 8
      if (diagonal) {
        a(4, 4) = top;
      } else {
        a(4, 9) = top;
        a(9, 4) = top;
      }
      expect_eigh_matches_reference(a, ws);
    }
  }

  // One entry at 2^600 in a unit-scale matrix: its square overflows.
  CMatrix spike = random_hermitian(n, rng);
  spike(5, 2) = cplx(std::ldexp(1.0, 600), std::ldexp(0.75, 600));
  spike(2, 5) = std::conj(spike(5, 2));
  expect_eigh_matches_reference(spike, ws);

  // Entries at 2^600 and 2^-600 mixed: squares overflow and underflow.
  CMatrix mixed = random_hermitian(n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const int power = (i + 2 * j) % 3 == 0 ? 600 : -600;
      mixed(i, j) = cplx(std::ldexp(mixed(i, j).real(), power),
                         std::ldexp(mixed(i, j).imag(), power));
      mixed(j, i) = std::conj(mixed(i, j));
    }
  }
  expect_eigh_matches_reference(mixed, ws);
}

TEST(SplitRealKernels, HermitianBoundIsDecidedAsByTheComplexReference) {
  // scale = 3 (the diagonal), every other |avg| below it; the one
  // asymmetric pair has a(1, 2) = 0 and a(2, 1) = delta, so the asymmetry
  // is |delta| exactly. The bound is asym <= 1e-8 * 3.
  Rng rng(282);
  const std::size_t n = 30;
  Workspace ws;
  const double bound = 1e-8 * 3.0;
  for (const double delta :
       {0.5 * bound, std::nextafter(bound, 0.0), bound,
        std::nextafter(bound, 1.0), 2.0 * bound}) {
    SCOPED_TRACE(::testing::Message() << "asymmetry " << delta);
    CMatrix a = random_hermitian(n, rng);
    for (cplx& v : a.flat()) v *= 0.25;
    a(0, 0) = 3.0;
    a(1, 2) = 0.0;
    a(2, 1) = delta;
    if (delta > bound) {
      EXPECT_THROW((void)eigh(a, ws), ContractViolation);
      EXPECT_THROW((void)complex_reference::eigh(a, ws), ContractViolation);
    } else {
      expect_eigh_matches_reference(a, ws);
    }
  }
}

TEST(SplitRealKernels, SpectrumCellsMatchComplexReference) {
  // spectrum() composes gram_into, eigh and the sweep tables; the
  // reference composes their std::complex forms with the threshold model
  // order, on the default 2 x 15 subarray and on a 3 x 10 one.
  std::vector<JointMusicConfig> configs(2);
  configs[1].smoothing = SmoothingConfig{.sub_len = 10, .ant_len = 3};
  Workspace ws;
  for (const JointMusicConfig& cfg : configs) {
    const JointMusicEstimator est(kLink, cfg);
    const std::size_t ant_len = cfg.smoothing.ant_len;
    const std::size_t sub_len = cfg.smoothing.sub_len;
    const std::size_t dim = ant_len * sub_len;
    CMatrix ant(est.aoa_grid().size(), ant_len);
    for (std::size_t i = 0; i < ant.rows(); ++i) {
      const CVector v = aoa_steering(est.aoa_grid()[i], ant_len, kLink);
      std::copy(v.begin(), v.end(), ant.row(i).begin());
    }
    CMatrix sub(est.tof_grid().size(), sub_len);
    for (std::size_t j = 0; j < sub.rows(); ++j) {
      const CVector v = tof_steering(est.tof_grid()[j], sub_len, kLink);
      std::copy(v.begin(), v.end(), sub.row(j).begin());
    }
    for (const CorpusCase& c :
         {CorpusCase{"office", &office_deployment, 21},
          CorpusCase{"high-nlos", &high_nlos_deployment, 22},
          CorpusCase{"corridor", &corridor_deployment, 23}}) {
      const std::vector<CMatrix> packets = corpus(c);
      for (std::size_t n = 0; n < packets.size(); ++n) {
        SCOPED_TRACE(::testing::Message() << c.name << " packet " << n
                                          << " ant_len " << ant_len);
        Workspace::Frame frame(ws);
        const CMatrix x = smoothed_csi(packets[n], cfg.smoothing);
        const CMatrixView g = workspace_matrix<cplx>(ws, dim, dim);
        complex_reference::gram_into(x, g);
        const EighResult eig = complex_reference::eigh(g, ws);
        ASSERT_TRUE(eig.converged);
        const std::size_t order = threshold_order(
            RVector(eig.eigenvalues.begin(), eig.eigenvalues.end()),
            cfg.subspace);
        const RMatrix want = complex_reference::sweep_cells(
            complex_reference::sweep_tables(
                ConstCMatrixView(eig.eigenvectors)
                    .block(0, 0, dim, dim - order),
                ant, sub));
        EXPECT_TRUE(same_bytes(est.spectrum(packets[n]).values, want));
      }
    }
  }
}

TEST(SplitRealKernels, AntennaMusicCellsMatchComplexReference) {
  // MusicAoaEstimator: the raw 3 x 30 CSI as the measurement, its
  // spectrum the sweep's one-column case.
  const MusicAoaEstimator est(kLink);
  const MusicAoaConfig& cfg = est.config();
  SubspaceConfig sub_cfg = cfg.subspace;
  sub_cfg.max_signal_dims =
      std::min(sub_cfg.max_signal_dims, kLink.n_antennas - 1);
  const cplx one{1.0, 0.0};
  Workspace ws;
  for (const CorpusCase& c :
       {CorpusCase{"office", &office_deployment, 21},
        CorpusCase{"corridor", &corridor_deployment, 23}}) {
    const std::vector<CMatrix> packets = corpus(c);
    for (std::size_t n = 0; n < packets.size(); ++n) {
      SCOPED_TRACE(::testing::Message() << c.name << " packet " << n);
      const AoaSpectrum sp = est.spectrum(packets[n]);
      CMatrix ant(sp.aoa_grid_rad.size(), kLink.n_antennas);
      for (std::size_t i = 0; i < ant.rows(); ++i) {
        const CVector v =
            aoa_steering(sp.aoa_grid_rad[i], kLink.n_antennas, kLink);
        std::copy(v.begin(), v.end(), ant.row(i).begin());
      }
      Workspace::Frame frame(ws);
      const std::size_t dim = kLink.n_antennas;
      const CMatrixView g = workspace_matrix<cplx>(ws, dim, dim);
      complex_reference::gram_into(packets[n], g);
      const EighResult eig = complex_reference::eigh(g, ws);
      ASSERT_TRUE(eig.converged);
      const std::size_t order = threshold_order(
          RVector(eig.eigenvalues.begin(), eig.eigenvalues.end()), sub_cfg);
      const RMatrix want = complex_reference::sweep_cells(
          complex_reference::sweep_tables(
              ConstCMatrixView(eig.eigenvectors).block(0, 0, dim, dim - order),
              ant, ConstCMatrixView(&one, 1, 1)));
      EXPECT_TRUE(same_bytes<double>(sp.values, want.flat()));
    }
  }
}

}  // namespace
}  // namespace spotfi
