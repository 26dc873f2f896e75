// Tests for the MUSIC estimators: steering-vector algebra, subspace
// splitting, peak finding, and — the heart of the reproduction — recovery
// of known multipath parameters from synthesized CSI by SpotFi's joint
// AoA/ToF super-resolution algorithm and by the classic MUSIC-AoA
// baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "channel/csi_synthesis.hpp"
#include "common/angles.hpp"
#include "csi/sanitize.hpp"
#include "linalg/hermitian_eig.hpp"
#include "music/crlb.hpp"
#include "music/esprit.hpp"
#include "music/estimators.hpp"
#include "music/steering.hpp"
#include "spectrum_reference.hpp"
#include "testbed/deployment.hpp"
#include "testbed/experiment.hpp"

namespace spotfi {
namespace {

const LinkConfig kLink = LinkConfig::intel5300_40mhz();

CsiSynthesizer ideal_synth() {
  ImpairmentConfig imp;
  imp.sto_base_s = 0.0;
  imp.sto_jitter_s = 0.0;
  imp.random_common_phase = false;
  imp.quantize_8bit = false;
  imp.noise_floor_dbm = -300.0;
  imp.rssi_shadowing_db = 0.0;
  return {kLink, imp};
}

PathComponent make_path(double aoa_deg, double tof_ns, double gain_db,
                        double phase = 0.0) {
  PathComponent p;
  p.aoa_rad = deg_to_rad(aoa_deg);
  p.tof_s = tof_ns * 1e-9;
  p.gain_db = gain_db;
  p.phase_rad = phase;
  return p;
}

// --- steering vectors ---

TEST(Steering, PhiMatchesEq1) {
  const double theta = deg_to_rad(30.0);
  const cplx phi = phi_factor(theta, kLink);
  EXPECT_NEAR(std::abs(phi), 1.0, 1e-12);
  const double expected = -2.0 * kPi * kLink.antenna_spacing_m * 0.5 *
                          kLink.carrier_hz / kSpeedOfLight;
  EXPECT_NEAR(std::arg(phi), wrap_pi(expected), 1e-9);
}

TEST(Steering, HalfWavelengthBroadsideIsUnity) {
  EXPECT_NEAR(std::abs(phi_factor(0.0, kLink) - cplx(1.0, 0.0)), 0.0, 1e-12);
}

TEST(Steering, OmegaMatchesEq6) {
  const double tof = 10e-9;
  const cplx omega = omega_factor(tof, kLink);
  EXPECT_NEAR(std::arg(omega),
              wrap_pi(-2.0 * kPi * kLink.subcarrier_spacing_hz * tof), 1e-12);
}

TEST(Steering, VectorsAreGeometricProgressions) {
  const double theta = deg_to_rad(-20.0);
  const double tof = 35e-9;
  const CVector a = aoa_steering(theta, 3, kLink);
  const CVector t = tof_steering(tof, 5, kLink);
  EXPECT_EQ(a[0], cplx(1.0, 0.0));
  EXPECT_NEAR(std::abs(a[2] - a[1] * phi_factor(theta, kLink)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(t[4] - t[3] * omega_factor(tof, kLink)), 0.0, 1e-12);
}

TEST(Steering, JointIsKroneckerProduct) {
  const double theta = deg_to_rad(40.0);
  const double tof = 60e-9;
  const CVector joint = joint_steering(theta, tof, 2, 15, kLink);
  const CVector ant = aoa_steering(theta, 2, kLink);
  const CVector sub = tof_steering(tof, 15, kLink);
  ASSERT_EQ(joint.size(), 30u);
  for (std::size_t a = 0; a < 2; ++a) {
    for (std::size_t s = 0; s < 15; ++s) {
      EXPECT_NEAR(std::abs(joint[a * 15 + s] - ant[a] * sub[s]), 0.0, 1e-12);
    }
  }
}

TEST(Steering, TofPeriodMatchesSpacing) {
  EXPECT_NEAR(tof_period(kLink), 800e-9, 1e-12);
}

// --- subspace ---

/// Hermitian inner product of column i of u with column j of v.
cplx column_dot(ConstCMatrixView u, std::size_t i, ConstCMatrixView v,
                std::size_t j) {
  cplx acc{};
  for (std::size_t r = 0; r < u.rows(); ++r) {
    acc += std::conj(u(r, i)) * v(r, j);
  }
  return acc;
}

TEST(Subspace, SinglePathYieldsOneSignalDimension) {
  const auto synth = ideal_synth();
  const auto p = make_path(10.0, 40.0, 0.0);
  const CMatrix x =
      smoothed_csi(synth.ideal_csi(std::span<const PathComponent>(&p, 1)));
  Workspace ws;
  const SubspacesRef sub = noise_subspace(x, {}, ws);
  EXPECT_EQ(sub.n_signal, 1u);
  EXPECT_EQ(sub.noise.cols(), x.rows() - 1);
}

TEST(Subspace, ThreePathsYieldThreeSignalDimensions) {
  const auto synth = ideal_synth();
  const std::vector<PathComponent> paths{make_path(-30.0, 30.0, 0.0),
                                         make_path(10.0, 90.0, -2.0),
                                         make_path(55.0, 160.0, -4.0)};
  const CMatrix x = smoothed_csi(synth.ideal_csi(paths));
  Workspace ws;
  const SubspacesRef sub = noise_subspace(x, {}, ws);
  EXPECT_EQ(sub.n_signal, 3u);
}

TEST(Subspace, NoiseVectorsOrthogonalToSteering) {
  // The MUSIC property: noise eigenvectors are orthogonal to the steering
  // vectors of the true paths, which therefore lie in the signal
  // subspace ESPRIT reads. The two bases partition one orthonormal
  // eigenbasis.
  const auto synth = ideal_synth();
  const std::vector<PathComponent> paths{make_path(-25.0, 50.0, 0.0),
                                         make_path(35.0, 120.0, -3.0)};
  const CMatrix x = smoothed_csi(synth.ideal_csi(paths));
  Workspace ws;
  const SubspacesRef sub = noise_subspace(x, {}, ws);
  ASSERT_EQ(sub.n_signal, 2u);
  ASSERT_EQ(sub.signal.cols(), sub.n_signal);
  EXPECT_EQ(sub.noise.cols() + sub.signal.cols(), x.rows());
  for (const auto& p : paths) {
    const CVector a = joint_steering(p.aoa_rad, p.tof_s, 2, 15, kLink);
    const ConstCMatrixView a_col(a.data(), a.size(), 1);
    for (std::size_t e = 0; e < sub.noise.cols(); ++e) {
      const cplx proj = column_dot(sub.noise, e, a_col, 0);
      EXPECT_LT(std::abs(proj), 1e-6) << "path and noise vector " << e;
    }
    // Residual of a after projection onto span(signal).
    CVector residual = a;
    for (std::size_t k = 0; k < sub.signal.cols(); ++k) {
      const cplx c = column_dot(sub.signal, k, a_col, 0);
      for (std::size_t i = 0; i < residual.size(); ++i) {
        residual[i] -= c * sub.signal(i, k);
      }
    }
    EXPECT_LE(norm2(residual), 1e-6 * norm2(a)) << "path off the signal span";
  }
  for (std::size_t k = 0; k < sub.signal.cols(); ++k) {
    for (std::size_t l = 0; l < sub.signal.cols(); ++l) {
      const double expected = k == l ? 1.0 : 0.0;
      EXPECT_LT(std::abs(column_dot(sub.signal, k, sub.signal, l) - expected),
                1e-10)
          << "signal columns " << k << ", " << l;
    }
    for (std::size_t e = 0; e < sub.noise.cols(); ++e) {
      EXPECT_LT(std::abs(column_dot(sub.signal, k, sub.noise, e)), 1e-10)
          << "signal column " << k << ", noise column " << e;
    }
  }
}

TEST(Subspace, FixedSplitHonored) {
  // max_signal_dims pins the split whenever more paths than that clear
  // the eigenvalue threshold: five resolvable paths, a split fixed at 4.
  const auto synth = ideal_synth();
  const std::vector<PathComponent> paths{
      make_path(-60.0, 20.0, 0.0), make_path(-30.0, 70.0, 0.0),
      make_path(0.0, 120.0, 0.0), make_path(30.0, 170.0, 0.0),
      make_path(60.0, 220.0, 0.0)};
  const CMatrix x = smoothed_csi(synth.ideal_csi(paths));
  Workspace ws;
  ASSERT_EQ(noise_subspace(x, {}, ws).n_signal, 5u);
  SubspaceConfig cfg;
  cfg.max_signal_dims = 4;
  const SubspacesRef sub = noise_subspace(x, cfg, ws);
  EXPECT_EQ(sub.n_signal, 4u);
  EXPECT_EQ(sub.noise.cols(), x.rows() - 4);
  EXPECT_EQ(sub.signal.cols(), 4u);
}

TEST(Subspace, BadThresholdThrows) {
  SubspaceConfig cfg;
  cfg.relative_threshold = 0.0;
  Workspace ws;
  EXPECT_THROW((void)noise_subspace(CMatrix(4, 4), cfg, ws),
               ContractViolation);
}

// --- peaks ---

TEST(Peaks, FindsSingle1dPeak) {
  const std::vector<double> f{0.0, 1.0, 4.0, 1.0, 0.0};
  const auto peaks = find_peaks_1d(f, 5);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].i, 2u);
}

TEST(Peaks, SortsByHeightAndRespectsFloor) {
  const std::vector<double> f{0.0, 3.0, 0.0, 10.0, 0.0, 0.05, 0.0};
  const auto peaks = find_peaks_1d(f, 5, 0.001);
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_EQ(peaks[0].i, 3u);
  EXPECT_EQ(peaks[1].i, 1u);
  // 0.05 < 0.01 * 10.0: dropped by the relative floor.
  const auto filtered = find_peaks_1d(f, 5, 0.01);
  EXPECT_EQ(filtered.size(), 2u);
}

TEST(Peaks, EdgesCanPeak) {
  const std::vector<double> f{5.0, 1.0, 0.5, 2.0};
  const auto peaks = find_peaks_1d(f, 5);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0].i, 0u);
  EXPECT_EQ(peaks[1].i, 3u);
}

TEST(Peaks1d, RisingPlateauIsNotAPeak) {
  // The run {5, 5} rises to 7 on its right: only 7 is a local maximum.
  const std::vector<double> rising{0.0, 5.0, 5.0, 7.0, 1.0};
  const auto peaks = find_peaks_1d(rising, 5);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].i, 3u);
  // Mirrored: the run falls on its right but rises on its left.
  const std::vector<double> mirrored{1.0, 7.0, 5.0, 5.0, 0.0};
  const auto mirror_peaks = find_peaks_1d(mirrored, 5);
  ASSERT_EQ(mirror_peaks.size(), 1u);
  EXPECT_EQ(mirror_peaks[0].i, 1u);

  // A run that falls on both sides counts once, at its first index; one
  // that meets a grid end counts when it falls on its other side.
  const std::vector<double> runs{0.0, 5.0, 5.0, 5.0, 1.0, 3.0, 3.0};
  const auto run_peaks = find_peaks_1d(runs, 5);
  ASSERT_EQ(run_peaks.size(), 2u);
  EXPECT_EQ(run_peaks[0].i, 1u);
  EXPECT_EQ(run_peaks[1].i, 5u);
  const std::vector<double> left_run{4.0, 4.0, 1.0};
  const auto left_peaks = find_peaks_1d(left_run, 5);
  ASSERT_EQ(left_peaks.size(), 1u);
  EXPECT_EQ(left_peaks[0].i, 0u);

  EXPECT_TRUE(find_peaks_1d(std::vector<double>{2.0, 2.0, 2.0}, 5).empty());
  EXPECT_EQ(find_peaks_1d(std::vector<double>{2.0}, 5).size(), 1u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(find_peaks_1d(std::vector<double>{0.0, 3.0, nan}, 5).empty());
}

TEST(Peaks1d, EqualPeaksKeepIndexOrder) {
  // 40 equal peaks (more than an insertion-sort run) in between two
  // higher ones: equal values come back in index order, and the cap keeps
  // the lowest indices.
  std::vector<double> f(85, 0.0);
  for (std::size_t k = 0; k < 40; ++k) f[2 * k + 3] = 1.0;
  f[1] = 2.0;
  f[83] = 3.0;
  const auto peaks = find_peaks_1d(f, 100);
  ASSERT_EQ(peaks.size(), 42u);
  EXPECT_EQ(peaks[0].i, 83u);
  EXPECT_EQ(peaks[1].i, 1u);
  for (std::size_t k = 0; k < 40; ++k) {
    EXPECT_EQ(peaks[k + 2].i, 2 * k + 3) << "peak " << k + 2;
  }
  const auto capped = find_peaks_1d(f, 5);
  ASSERT_EQ(capped.size(), 5u);
  EXPECT_EQ(capped[4].i, 7u);
}

TEST(Peaks, TwoDimensionalWithWrap) {
  RMatrix g(3, 6);
  g(1, 0) = 5.0;   // peak on the wrap column boundary
  g(2, 3) = 3.0;
  Workspace ws;
  Workspace::Frame frame(ws);
  const auto wrapped = find_peaks_2d(g, /*wrap_cols=*/true, 5, 0.0, ws);
  ASSERT_EQ(wrapped.size(), 2u);
  EXPECT_EQ(wrapped[0].i, 1u);
  EXPECT_EQ(wrapped[0].j, 0u);
}

TEST(Peaks, ConstantGridHasNoPeaks) {
  RMatrix g(4, 4, 1.0);
  Workspace ws;
  Workspace::Frame frame(ws);
  EXPECT_TRUE(find_peaks_2d(g, false, 5, 0.0, ws).empty());
}

// Brute-force reference for find_peaks_2d: the 8-neighbour test at every
// cell (a neighbour exceeding the cell blocks it, one below it is
// required; NaN compares false both ways), a stable descending sort, the
// floor at min_relative * max|grid|, then the cap.
std::vector<GridPeak> peaks_oracle(const RMatrix& g, bool wrap_cols,
                                   std::size_t max_peaks,
                                   double min_relative) {
  const auto rows = static_cast<std::ptrdiff_t>(g.rows());
  const auto cols = static_cast<std::ptrdiff_t>(g.cols());
  auto at = [&](std::ptrdiff_t i, std::ptrdiff_t j) {
    return g(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
  };
  std::vector<GridPeak> peaks;
  double global_max = 0.0;
  for (std::ptrdiff_t i = 0; i < rows; ++i) {
    for (std::ptrdiff_t j = 0; j < cols; ++j) {
      const double v = at(i, j);
      if (std::abs(v) > global_max) global_max = std::abs(v);
      bool higher = false;
      bool lower = false;
      for (std::ptrdiff_t ii = i - 1; ii <= i + 1; ++ii) {
        for (std::ptrdiff_t jj = j - 1; jj <= j + 1; ++jj) {
          if ((ii == i && jj == j) || ii < 0 || ii >= rows) continue;
          if (!wrap_cols && (jj < 0 || jj >= cols)) continue;
          const double nb = at(ii, (jj + cols) % cols);
          higher = higher || nb > v;
          lower = lower || nb < v;
        }
      }
      if (!higher && lower) {
        peaks.push_back(
            {static_cast<std::size_t>(i), static_cast<std::size_t>(j), v});
      }
    }
  }
  std::stable_sort(peaks.begin(), peaks.end(),
                   [](const GridPeak& a, const GridPeak& b) {
                     return a.value > b.value;
                   });
  std::erase_if(peaks, [&](const GridPeak& p) {
    return p.value < min_relative * global_max;
  });
  if (peaks.size() > max_peaks) peaks.resize(max_peaks);
  return peaks;
}

TEST(Peaks, OnePassMatchesBruteForceOracle) {
  struct Shape {
    std::size_t rows;
    std::size_t cols;
    // Plant max|grid| in one of the last four columns, a different one
    // per grid. With a column count that is not a multiple of 4 these are
    // the tail past the finder's four-lane blocks and lanes 3, 2 and 1 of
    // the last block, so a lost tail or lane fails the 0.5-floor cases.
    bool tail_max = false;
  };
  const Shape shapes[] = {{1, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 3}, {181, 320},
                          {7, 13, /*tail_max=*/true}};
  Rng rng(19);
  Workspace ws;
  for (const Shape& shape : shapes) {
    RMatrix random(shape.rows, shape.cols);
    for (std::size_t i = 0; i < shape.rows; ++i) {
      for (std::size_t j = 0; j < shape.cols; ++j) {
        random(i, j) = rng.uniform(-1.0, 1.0);
      }
    }
    // Three levels: exact ties between separate peaks, and plateaus.
    RMatrix quantized = random;
    for (std::size_t i = 0; i < shape.rows; ++i) {
      for (double& v : quantized.row(i)) v = std::floor(v * 1.5);
    }
    std::vector<RMatrix> grids{random, quantized};
    for (std::size_t b = 0; b < 2; ++b) {
      RMatrix holed = grids[b];
      for (std::size_t i = 0; i < shape.rows; ++i) {
        for (double& v : holed.row(i)) {
          if (rng.uniform() < 0.1) v = std::numeric_limits<double>::quiet_NaN();
        }
      }
      grids.push_back(std::move(holed));
    }
    if (shape.tail_max) {
      for (std::size_t k = 0; k < grids.size(); ++k) {
        grids[k](shape.rows / 2, shape.cols - 1 - k) = -4.0;
      }
    }
    for (std::size_t k = 0; k < grids.size(); ++k) {
      for (const bool wrap : {false, true}) {
        for (const std::size_t max_peaks : {std::size_t{1}, std::size_t{16},
                                            std::size_t{100000}}) {
          for (const double min_relative : {0.0, 0.5}) {
            SCOPED_TRACE(::testing::Message()
                         << shape.rows << "x" << shape.cols << " grid " << k
                         << " wrap " << wrap << " max_peaks " << max_peaks
                         << " floor " << min_relative);
            const std::vector<GridPeak> want =
                peaks_oracle(grids[k], wrap, max_peaks, min_relative);
            Workspace::Frame frame(ws);
            const std::span<const GridPeak> got =
                find_peaks_2d(grids[k], wrap, max_peaks, min_relative, ws);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t p = 0; p < want.size(); ++p) {
              ASSERT_EQ(got[p].i, want[p].i) << "peak " << p;
              ASSERT_EQ(got[p].j, want[p].j) << "peak " << p;
              ASSERT_EQ(got[p].value, want[p].value) << "peak " << p;
            }
          }
        }
      }
    }
  }
}

TEST(Peaks, ColumnGridMatchesFullGrid) {
  // The ColumnGrid finder, with every column skipped that its contract
  // allows (all cells non-NaN with |c| < min(min_relative, 1) * max|grid|),
  // returns what the full-grid finder returns on the whole grid. Random
  // and quantized grids (ties, plateaus), with NaN holes, in both signs.
  Rng rng(41);
  Workspace ws;
  std::size_t skipped_total = 0;
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{1, 1},
                                   {1, 9},
                                   {9, 1},
                                   {2, 2},
                                   {5, 7},
                                   {37, 64}}) {
    for (std::size_t variant = 0; variant < 4; ++variant) {
      RMatrix g(rows, cols);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
          // A sparse field of bumps so that whole columns sit low.
          double v = rng.uniform(-0.1, 0.1);
          if (rng.uniform() < 0.05) v = rng.uniform(-1.0, 1.0) * 10.0;
          if (variant % 2 == 1) v = std::floor(v);
          if (variant >= 2 && rng.uniform() < 0.05) {
            v = std::numeric_limits<double>::quiet_NaN();
          }
          g(i, j) = v;
        }
      }
      double max_abs = 0.0;
      for (std::size_t i = 0; i < rows; ++i) {
        for (const double v : g.row(i)) max_abs = std::max(max_abs, std::abs(v));
      }
      // Column-major copies, one per column.
      std::vector<std::vector<double>> columns(cols);
      for (std::size_t j = 0; j < cols; ++j) {
        for (std::size_t i = 0; i < rows; ++i) columns[j].push_back(g(i, j));
      }
      for (const double min_relative : {-1.0, 0.0, 0.05, 0.5, 1.0, 2.0}) {
        const double thr =
            std::max(0.0, std::min(min_relative, 1.0)) * max_abs;
        std::vector<const double*> col(cols, nullptr);
        std::vector<std::size_t> swept;
        for (std::size_t j = 0; j < cols; ++j) {
          const bool skippable = std::all_of(
              columns[j].begin(), columns[j].end(),
              [&](double v) { return std::abs(v) < thr; });
          if (skippable) {
            ++skipped_total;
            continue;
          }
          col[j] = columns[j].data();
          swept.push_back(j);
        }
        const ColumnGrid grid{rows, col, swept};
        for (const bool wrap : {false, true}) {
          for (const std::size_t max_peaks : {std::size_t{1}, std::size_t{8},
                                              std::size_t{100000}}) {
            SCOPED_TRACE(::testing::Message()
                         << rows << "x" << cols << " variant " << variant
                         << " floor " << min_relative << " wrap " << wrap
                         << " max_peaks " << max_peaks);
            Workspace::Frame frame(ws);
            const std::span<const GridPeak> want =
                find_peaks_2d(g, wrap, max_peaks, min_relative, ws);
            const std::span<const GridPeak> got =
                find_peaks_2d(grid, wrap, max_peaks, min_relative, ws);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t p = 0; p < want.size(); ++p) {
              ASSERT_EQ(got[p].i, want[p].i) << "peak " << p;
              ASSERT_EQ(got[p].j, want[p].j) << "peak " << p;
              ASSERT_EQ(got[p].value, want[p].value) << "peak " << p;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(skipped_total, 100u) << "the grids must exercise skipped columns";
}

TEST(Peaks, ArenaUseIndependentOfCandidateCount) {
  // A checkerboard has a strict maximum on every other cell: 28,960 on
  // the default 181 x 320 spectrum grid. The finder's scratch is its
  // top-max_peaks buffer, not the candidate set.
  RMatrix g(181, 320);
  for (std::size_t i = 0; i < g.rows(); ++i) {
    for (std::size_t j = 0; j < g.cols(); ++j) {
      g(i, j) = (i + j) % 2 == 0 ? 1.0 : 0.0;
    }
  }
  constexpr std::size_t kMaxPeaks = 16;
  Workspace ws;
  const std::size_t before = ws.stats().high_water_bytes;
  Workspace::Frame frame(ws);
  const std::span<const GridPeak> peaks =
      find_peaks_2d(g, /*wrap_cols=*/true, kMaxPeaks, 0.0, ws);
  EXPECT_LE(ws.stats().high_water_bytes - before,
            kMaxPeaks * sizeof(GridPeak) + Workspace::kAlign);
  // All candidates tie, so the first kMaxPeaks in row-major order win.
  ASSERT_EQ(peaks.size(), kMaxPeaks);
  for (std::size_t p = 0; p < kMaxPeaks; ++p) {
    EXPECT_EQ(peaks[p].i, 0u);
    EXPECT_EQ(peaks[p].j, 2 * p);
  }
}

TEST(Peaks, ParabolicOffsetExactForQuadratic) {
  // f(x) = -(x - 0.3)^2 sampled at -1, 0, 1.
  auto f = [](double x) { return -(x - 0.3) * (x - 0.3); };
  EXPECT_NEAR(parabolic_offset(f(-1.0), f(0.0), f(1.0)), 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(parabolic_offset(1.0, 1.0, 1.0), 0.0);
}

// --- joint MUSIC recovery ---

struct RecoveryCase {
  double aoa_deg;
  double tof_ns;
};

class JointMusicSinglePath : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(JointMusicSinglePath, RecoversAoaAndTof) {
  const auto [aoa_deg, tof_ns] = GetParam();
  const auto synth = ideal_synth();
  const auto p = make_path(aoa_deg, tof_ns, 0.0, 0.3);
  const CMatrix csi = synth.ideal_csi(std::span<const PathComponent>(&p, 1));
  const JointMusicEstimator estimator(kLink);
  const auto estimates = estimator.estimate(csi);
  ASSERT_FALSE(estimates.empty());
  EXPECT_NEAR(rad_to_deg(estimates[0].aoa_rad), aoa_deg, 0.5);
  EXPECT_NEAR(estimates[0].tof_s * 1e9, tof_ns, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JointMusicSinglePath,
    ::testing::Values(RecoveryCase{0.0, 50.0}, RecoveryCase{-60.0, 20.0},
                      RecoveryCase{60.0, 20.0}, RecoveryCase{-30.0, 140.0},
                      RecoveryCase{30.0, 300.0}, RecoveryCase{15.0, 10.0},
                      RecoveryCase{-75.0, 80.0}, RecoveryCase{45.0, 220.0}));

TEST(JointMusic, ResolvesFivePathsBeyondAntennaLimit) {
  // The headline capability: 5 paths resolved with only 3 antennas, which
  // plain antenna-MUSIC cannot do (Sec. 3.1.2).
  const auto synth = ideal_synth();
  const std::vector<PathComponent> paths{
      make_path(-55.0, 25.0, 0.0, 0.1), make_path(-20.0, 70.0, -2.0, 0.9),
      make_path(5.0, 130.0, -4.0, -0.7), make_path(35.0, 200.0, -5.0, 1.7),
      make_path(65.0, 280.0, -6.0, -2.1)};
  const CMatrix csi = synth.ideal_csi(paths);
  const JointMusicEstimator estimator(kLink);
  const auto estimates = estimator.estimate(csi);
  ASSERT_GE(estimates.size(), 5u);
  for (const auto& truth : paths) {
    const double best = [&] {
      double err = 1e9;
      for (const auto& est : estimates) {
        err = std::min(err, std::abs(rad_to_deg(est.aoa_rad) -
                                     rad_to_deg(truth.aoa_rad)));
      }
      return err;
    }();
    EXPECT_LT(best, 2.0) << "missed path at "
                         << rad_to_deg(truth.aoa_rad) << " deg";
  }
}

TEST(JointMusic, TwoClosePathsResolvedJointly) {
  // Same AoA neighbourhood, different ToF — only the joint estimator can
  // split these (an antenna-only spectrum sees one blob).
  const auto synth = ideal_synth();
  const std::vector<PathComponent> paths{make_path(10.0, 40.0, 0.0),
                                         make_path(18.0, 180.0, -1.0)};
  const CMatrix csi = synth.ideal_csi(paths);
  const JointMusicEstimator estimator(kLink);
  const auto estimates = estimator.estimate(csi);
  ASSERT_GE(estimates.size(), 2u);
  std::vector<double> tofs;
  for (const auto& e : estimates) tofs.push_back(e.tof_s * 1e9);
  std::sort(tofs.begin(), tofs.end());
  EXPECT_NEAR(tofs[0], 40.0, 5.0);
  EXPECT_NEAR(tofs[1], 180.0, 5.0);
}

TEST(JointMusic, NoisyQuantizedCsiStillRecovers) {
  ImpairmentConfig imp;
  imp.sto_base_s = 0.0;
  imp.sto_jitter_s = 0.0;
  imp.random_common_phase = true;
  imp.quantize_8bit = true;
  imp.max_snr_db = 30.0;
  const CsiSynthesizer synth(kLink, imp);
  const std::vector<PathComponent> paths{make_path(-20.0, 50.0, -40.0, 0.4),
                                         make_path(30.0, 120.0, -46.0, 1.2)};
  Rng rng(21);
  const auto packet = synth.synthesize(paths, 0.0, rng);
  const JointMusicEstimator estimator(kLink);
  const auto estimates = estimator.estimate(packet.csi);
  ASSERT_GE(estimates.size(), 1u);
  double best = 1e9;
  for (const auto& e : estimates) {
    best = std::min(best, std::abs(rad_to_deg(e.aoa_rad) + 20.0));
  }
  EXPECT_LT(best, 3.0);
}

TEST(JointMusic, SanitizedCsiShiftsAllTofsEqually) {
  // Sanitization subtracts a common delay: AoAs unchanged, ToF gaps kept.
  const auto synth = ideal_synth();
  const std::vector<PathComponent> paths{make_path(-10.0, 60.0, 0.0),
                                         make_path(40.0, 150.0, -2.0)};
  const CMatrix csi = synth.ideal_csi(paths);
  const CMatrix clean = sanitize_tof(csi, kLink).csi;
  const JointMusicEstimator estimator(kLink);
  const auto raw = estimator.estimate(csi);
  const auto san = estimator.estimate(clean);
  ASSERT_GE(raw.size(), 2u);
  ASSERT_GE(san.size(), 2u);
  auto by_aoa = [](const PathEstimate& a, const PathEstimate& b) {
    return a.aoa_rad < b.aoa_rad;
  };
  auto r = raw;
  auto s = san;
  std::sort(r.begin(), r.end(), by_aoa);
  std::sort(s.begin(), s.end(), by_aoa);
  EXPECT_NEAR(rad_to_deg(r[0].aoa_rad), rad_to_deg(s[0].aoa_rad), 0.6);
  EXPECT_NEAR(rad_to_deg(r[1].aoa_rad), rad_to_deg(s[1].aoa_rad), 0.6);
  const double gap_raw = (r[1].tof_s - r[0].tof_s) * 1e9;
  const double gap_san = (s[1].tof_s - s[0].tof_s) * 1e9;
  EXPECT_NEAR(gap_raw, gap_san, 3.0);
}

TEST(JointMusic, SpectrumGridShapes) {
  const JointMusicEstimator estimator(kLink);
  const auto synth = ideal_synth();
  const auto p = make_path(0.0, 40.0, 0.0);
  const auto sp =
      estimator.spectrum(synth.ideal_csi(std::span<const PathComponent>(&p, 1)));
  EXPECT_EQ(sp.aoa_grid_rad.size(), 181u);
  EXPECT_EQ(sp.values.rows(), sp.aoa_grid_rad.size());
  EXPECT_EQ(sp.values.cols(), sp.tof_grid_s.size());
  EXPECT_TRUE(estimator.tof_axis_wraps());
}

TEST(JointMusic, KroneckerGramSweepMatchesDirectProjection) {
  // The sweep evaluates ||E_n^H a(theta, tau)||^2 as a quadratic form in
  // ant(theta) with a per-ToF Gram matrix of the noise subspace. The
  // reference projects every joint steering vector onto E_n directly.
  std::vector<CMatrix> inputs;
  {
    ExperimentConfig cfg;
    cfg.packets_per_group = 3;
    const ExperimentRunner runner(kLink, office_deployment(), cfg);
    Rng rng(2024);
    const std::vector<ApCapture> captures =
        runner.simulate_captures({6.0, 3.5}, rng);
    for (const auto& packet : captures[0].packets) {
      inputs.push_back(packet.csi);
    }
  }
  {
    ImpairmentConfig imp;
    imp.quantize_8bit = false;
    imp.max_snr_db = 35.0;
    const CsiSynthesizer synth(kLink, imp);
    const PathComponent p = make_path(25.0, 60.0, -40.0);
    Rng rng(35);
    inputs.push_back(
        synth.synthesize(std::span<const PathComponent>(&p, 1), 0.0, rng).csi);
  }
  inputs.push_back(ideal_synth().ideal_csi(std::vector<PathComponent>{
      make_path(-55.0, 25.0, 0.0, 0.1), make_path(-20.0, 70.0, -2.0, 0.9),
      make_path(5.0, 130.0, -4.0, -0.7), make_path(35.0, 200.0, -5.0, 1.7),
      make_path(65.0, 280.0, -6.0, -2.1)}));

  // The default wrapping 2 x 15 grid; a ToF range that does not wrap
  // (columns off the 320-point period grid, 1 ns apart); and a 3 x 10
  // subarray, whose noise Gram has three off-diagonal antenna pairs and
  // 19-term polynomials.
  std::vector<JointMusicConfig> configs(3);
  configs[1].tof_min_s = -50e-9;
  configs[1].tof_max_s = 300e-9;
  configs[1].tof_step_s = 1e-9;
  configs[2].smoothing = SmoothingConfig{.sub_len = 10, .ant_len = 3};
  Workspace ws;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    JointMusicConfig& cfg = configs[c];
    cfg.refine_peaks = false;  // estimates then sit exactly on grid cells
    const JointMusicEstimator est(kLink, cfg);
    EXPECT_EQ(est.tof_axis_wraps(), c != 1);
    const RVector& aoa_grid = est.aoa_grid();
    const RVector& tof_grid = est.tof_grid();
    const std::size_t ant_len = cfg.smoothing.ant_len;
    const std::size_t sub_len = cfg.smoothing.sub_len;
    for (std::size_t n = 0; n < inputs.size(); ++n) {
      SCOPED_TRACE(::testing::Message() << "config " << c << " input " << n);
      Workspace::Frame frame(ws);
      const SubspacesRef sub =
          est.stage_subspace(ConstCMatrixView(inputs[n]), ws);
      RMatrix want(aoa_grid.size(), tof_grid.size());
      std::vector<cplx> a(ant_len * sub_len);
      for (std::size_t i = 0; i < aoa_grid.size(); ++i) {
        for (std::size_t j = 0; j < tof_grid.size(); ++j) {
          joint_steering_into(aoa_grid[i], tof_grid[j], ant_len, sub_len,
                              kLink, a);
          double denom = 0.0;
          for (std::size_t e = 0; e < sub.noise.cols(); ++e) {
            cplx proj{};
            for (std::size_t r = 0; r < a.size(); ++r) {
              proj += std::conj(sub.noise(r, e)) * a[r];
            }
            denom += std::norm(proj);
          }
          want(i, j) = 1.0 / std::max(denom, 1e-12);
        }
      }

      const AoaTofSpectrum got = est.spectrum(inputs[n]);
      double worst = 0.0;
      for (std::size_t i = 0; i < aoa_grid.size(); ++i) {
        for (std::size_t j = 0; j < tof_grid.size(); ++j) {
          worst = std::max(
              worst, std::abs(1.0 / got.values(i, j) - 1.0 / want(i, j)));
        }
      }
      EXPECT_LE(worst, 1e-12) << "denominators are at most ||a||^2 = "
                              << ant_len * sub_len;

      // stage_spectrum keeps the reference grid's peak cells, in order:
      // edge rows skipped, at most max_paths.
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

  // The antenna-only estimator is the same sweep with one ToF column.
  const MusicAoaEstimator classic(kLink);
  for (std::size_t n = 0; n < inputs.size(); ++n) {
    SCOPED_TRACE(::testing::Message() << "MUSIC-AoA input " << n);
    Workspace::Frame frame(ws);
    const CMatrixView x =
        smoothed_csi(ConstCMatrixView(inputs[n]), ws,
                     SmoothingConfig{.sub_len = 1, .ant_len = kLink.n_antennas});
    SubspaceConfig sub_cfg;
    sub_cfg.max_signal_dims = kLink.n_antennas - 1;
    const SubspacesRef sub = noise_subspace(ConstCMatrixView(x), sub_cfg, ws);
    const AoaSpectrum got = classic.spectrum(inputs[n]);
    ASSERT_EQ(got.values.size(), classic.aoa_grid().size());
    double worst = 0.0;
    for (std::size_t i = 0; i < got.values.size(); ++i) {
      const CVector ant =
          aoa_steering(classic.aoa_grid()[i], kLink.n_antennas, kLink);
      double denom = 0.0;
      for (std::size_t e = 0; e < sub.noise.cols(); ++e) {
        cplx proj{};
        for (std::size_t m = 0; m < ant.size(); ++m) {
          proj += std::conj(sub.noise(m, e)) * ant[m];
        }
        denom += std::norm(proj);
      }
      worst = std::max(worst, std::abs(1.0 / got.values[i] -
                                       std::max(denom, 1e-12)));
    }
    EXPECT_LE(worst, 1e-12);
  }
}

// --- the pruned spectrum sweep (constructed cases; the corpora are in
// eigh_oracle_test.cpp) ---

/// The full grid of `est`'s sweep for `sub`: at min_relative_peak = 0
/// the sweep skips no column, and its cells are spectrum()'s
/// (PrunedSweepCorpus), so a constructed noise basis gets the same
/// reference grid a packet's would.
RMatrix full_sweep(const JointMusicEstimator& est, const SubspacesRef& sub,
                   Workspace& ws) {
  JointMusicConfig cfg = est.config();
  cfg.min_relative_peak = 0.0;
  const JointMusicEstimator all_columns(est.link(), cfg);
  Workspace::Frame frame(ws);
  const SweptSpectrum sweep = all_columns.sweep_spectrum(sub, ws);
  RMatrix grid(sweep.grid.rows, sweep.grid.col.size());
  for (std::size_t j = 0; j < grid.cols(); ++j) {
    EXPECT_NE(sweep.grid.col[j], nullptr) << "column " << j;
    if (sweep.grid.col[j] == nullptr) continue;
    for (std::size_t i = 0; i < grid.rows(); ++i) {
      grid(i, j) = sweep.grid.col[j][i];
    }
  }
  return grid;
}

/// stage_spectrum on `sub`, checked bit for bit against the full grid.
std::vector<PathEstimate> checked_stage_spectrum(
    const JointMusicEstimator& est, const SubspacesRef& sub, Workspace& ws) {
  std::vector<PathEstimate> got(est.config().max_paths);
  got.resize(est.stage_spectrum(sub, ws, got));
  const std::vector<PathEstimate> want =
      full_grid_estimates(est, full_sweep(est, sub, ws), ws);
  EXPECT_TRUE(same_bits(got, want))
      << got.size() << " vs " << want.size() << " estimates";
  return got;
}

/// The grid column of an on-grid estimate's ToF.
std::size_t tof_column(const JointMusicEstimator& est, double tof_s) {
  const RVector& grid = est.tof_grid();
  return static_cast<std::size_t>(
      std::min_element(grid.begin(), grid.end(),
                       [&](double a, double b) {
                         return std::abs(a - tof_s) < std::abs(b - tof_s);
                       }) -
      grid.begin());
}

TEST(PrunedSweep, NoiseBasisSpanningEverythingSkipsNothing) {
  // E_n = I: every denominator is ||a||^2 = 30 up to rounding, so every
  // column's bound reaches the floor.
  const JointMusicEstimator est(kLink);
  const std::size_t dim = 30;
  CMatrix eye(dim, dim);
  for (std::size_t k = 0; k < dim; ++k) eye(k, k) = 1.0;
  SubspacesRef sub;
  sub.noise = ConstCMatrixView(eye);
  Workspace ws;
  Workspace::Frame frame(ws);
  EXPECT_EQ(est.sweep_spectrum(sub, ws).grid.swept.size(),
            est.tof_grid().size());
  (void)checked_stage_spectrum(est, sub, ws);
}

TEST(PrunedSweep, NanNoiseBasisSweepsEverythingAndFindsNothing) {
  const JointMusicEstimator est(kLink);
  const CMatrix nan_basis(30, 29,
                          cplx(std::numeric_limits<double>::quiet_NaN(), 0.0));
  SubspacesRef sub;
  sub.noise = ConstCMatrixView(nan_basis);
  Workspace ws;
  Workspace::Frame frame(ws);
  const SweptSpectrum sweep = est.sweep_spectrum(sub, ws);
  EXPECT_EQ(sweep.grid.swept.size(), est.tof_grid().size());
  EXPECT_TRUE(std::isnan(sweep.bound[0]));
  EXPECT_TRUE(checked_stage_spectrum(est, sub, ws).empty());
}

TEST(PrunedSweep, PeakOnTheWrapSeamRefinesAcrossIt) {
  // A clean path at the first ToF column (-T/2): its ToF neighbours are
  // column 1 and, across the seam, the last column. Both lie below the
  // floor, so neither is swept and refinement computes their cells.
  const JointMusicEstimator est(kLink);
  ASSERT_TRUE(est.tof_axis_wraps());
  const double tof_ns = est.tof_grid()[0] * 1e9;
  const CMatrix csi = ideal_synth().ideal_csi(
      std::vector<PathComponent>{make_path(20.0, tof_ns, 0.0)});
  Workspace ws;
  Workspace::Frame frame(ws);
  const SubspacesRef sub = est.stage_subspace(ConstCMatrixView(csi), ws);
  const SweptSpectrum sweep = est.sweep_spectrum(sub, ws);
  const std::size_t last = est.tof_grid().size() - 1;
  const std::vector<PathEstimate> got = checked_stage_spectrum(est, sub, ws);
  ASSERT_FALSE(got.empty());
  const std::size_t j = tof_column(est, got[0].tof_s);
  ASSERT_TRUE(j == 0 || j == last) << j;
  EXPECT_NE(sweep.grid.col[j], nullptr);
  EXPECT_EQ(sweep.grid.col[j == 0 ? last : j - 1], nullptr);
  EXPECT_EQ(sweep.grid.col[j == last ? 0 : j + 1], nullptr);
}

TEST(PrunedSweep, RefinementComputesSkippedNeighbourCells) {
  // A clean path on a ToF column but between AoA rows: its peak is sharp
  // in ToF, so neither neighbour column reaches the floor and refinement
  // computes both cells, while the AoA rows interpolate.
  const JointMusicEstimator est(kLink);
  const std::size_t j_true = 200;
  const CMatrix csi = ideal_synth().ideal_csi(std::vector<PathComponent>{
      make_path(20.37, est.tof_grid()[j_true] * 1e9, 0.0)});
  Workspace ws;
  Workspace::Frame frame(ws);
  const SubspacesRef sub = est.stage_subspace(ConstCMatrixView(csi), ws);
  const SweptSpectrum sweep = est.sweep_spectrum(sub, ws);
  const std::vector<PathEstimate> got = checked_stage_spectrum(est, sub, ws);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(tof_column(est, got[0].tof_s), j_true);
  EXPECT_NEAR(rad_to_deg(got[0].aoa_rad), 20.37, 0.5);
  EXPECT_NE(sweep.grid.col[j_true], nullptr);
  EXPECT_EQ(sweep.grid.col[j_true - 1], nullptr);
  EXPECT_EQ(sweep.grid.col[j_true + 1], nullptr);
}

TEST(PrunedSweep, ExactTiesKeepRowMajorOrder) {
  // Clean on-grid paths drive their denominators below the 1e-12 clamp,
  // so their peaks tie exactly at 1e12.
  const JointMusicEstimator est(kLink);
  const CMatrix csi = ideal_synth().ideal_csi(std::vector<PathComponent>{
      make_path(40.0, 50.0, 0.0), make_path(-35.0, 150.0, 0.0, 1.1),
      make_path(5.0, -100.0, 0.0, 2.3)});
  Workspace ws;
  Workspace::Frame frame(ws);
  const SubspacesRef sub = est.stage_subspace(ConstCMatrixView(csi), ws);
  const std::vector<PathEstimate> got = checked_stage_spectrum(est, sub, ws);
  ASSERT_GE(got.size(), 2u);
  EXPECT_EQ(got[0].power, got[1].power);
  EXPECT_EQ(got[0].power, 1e12);
  // Row-major among equals: ascending AoA.
  for (std::size_t k = 1; k < got.size() && got[k].power == got[0].power;
       ++k) {
    EXPECT_LT(got[k - 1].aoa_rad, got[k].aoa_rad);
  }
}

TEST(JointMusic, WrongCsiShapeThrows) {
  const JointMusicEstimator estimator(kLink);
  EXPECT_THROW(estimator.estimate(CMatrix(2, 30)), ContractViolation);
}

TEST(JointMusic, DefaultGridSizesArePinned) {
  // The default AoA range is an exact multiple of the step (180 x 1 deg)
  // and the default ToF range an exact multiple of 2.5 ns — the grid
  // builder must keep the endpoint on every platform/libm, never gaining
  // or dropping a row. These sizes are part of the determinism contract
  // (steering tables are cached against them at construction).
  const JointMusicEstimator joint(kLink);
  EXPECT_EQ(joint.aoa_grid().size(), 181u);
  EXPECT_EQ(joint.tof_grid().size(), 320u);
  EXPECT_EQ(joint.aoa_grid().front(), -kPi / 2.0);
  EXPECT_EQ(joint.aoa_grid().back(),
            -kPi / 2.0 + 180.0 * (kPi / 180.0));
  const MusicAoaEstimator classic(kLink);
  EXPECT_EQ(classic.aoa_grid().size(), 181u);

  // A range deliberately short of an exact multiple must floor, not snap.
  JointMusicConfig short_cfg;
  short_cfg.aoa_min_rad = 0.0;
  short_cfg.aoa_max_rad = 10.5 * kPi / 180.0;
  short_cfg.aoa_step_rad = kPi / 180.0;
  EXPECT_EQ(JointMusicEstimator(kLink, short_cfg).aoa_grid().size(), 11u);

  // The relaxed fallback grid (2x step over the same span) is the other
  // production configuration; 90 x 2 deg is again an exact multiple.
  JointMusicConfig relaxed;
  relaxed.aoa_step_rad *= 2.0;
  relaxed.tof_step_s *= 2.0;
  const JointMusicEstimator coarse(kLink, relaxed);
  EXPECT_EQ(coarse.aoa_grid().size(), 91u);
  EXPECT_EQ(coarse.tof_grid().size(), 160u);
}

// --- ESPRIT joint estimator ---

class EspritSinglePath : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(EspritSinglePath, RecoversAoaAndTof) {
  const auto [aoa_deg, tof_ns] = GetParam();
  const auto synth = ideal_synth();
  const auto p = make_path(aoa_deg, tof_ns, 0.0, 0.3);
  const CMatrix csi = synth.ideal_csi(std::span<const PathComponent>(&p, 1));
  const JointEspritEstimator estimator(kLink);
  const auto estimates = estimator.estimate(csi);
  ASSERT_FALSE(estimates.empty());
  EXPECT_NEAR(rad_to_deg(estimates[0].aoa_rad), aoa_deg, 0.2);
  EXPECT_NEAR(estimates[0].tof_s * 1e9, tof_ns, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EspritSinglePath,
    ::testing::Values(RecoveryCase{0.0, 50.0}, RecoveryCase{-60.0, 20.0},
                      RecoveryCase{35.0, 150.0}, RecoveryCase{70.0, 300.0},
                      RecoveryCase{-20.0, 10.0}));

TEST(Esprit, ResolvesAndPairsThreePaths) {
  // The pairing property: each (AoA, ToF) estimate must match one true
  // *pair*, not a cross-combination.
  const auto synth = ideal_synth();
  const std::vector<PathComponent> paths{
      make_path(-40.0, 30.0, 0.0, 0.2), make_path(10.0, 120.0, -2.0, 1.0),
      make_path(50.0, 240.0, -4.0, -0.8)};
  const CMatrix csi = synth.ideal_csi(paths);
  const JointEspritEstimator estimator(kLink);
  const auto estimates = estimator.estimate(csi);
  ASSERT_EQ(estimates.size(), 3u);
  for (const auto& truth : paths) {
    double best = 1e9;
    for (const auto& est : estimates) {
      const double aoa_err =
          std::abs(rad_to_deg(est.aoa_rad) - rad_to_deg(truth.aoa_rad));
      const double tof_err = std::abs(est.tof_s - truth.tof_s) * 1e9;
      best = std::min(best, aoa_err + tof_err);
    }
    EXPECT_LT(best, 3.0) << "path at " << rad_to_deg(truth.aoa_rad);
  }
}

TEST(Esprit, PowersRankPaths) {
  const auto synth = ideal_synth();
  const std::vector<PathComponent> paths{make_path(-30.0, 40.0, 0.0),
                                         make_path(30.0, 160.0, -8.0)};
  const CMatrix csi = synth.ideal_csi(paths);
  const JointEspritEstimator estimator(kLink);
  const auto estimates = estimator.estimate(csi);
  ASSERT_EQ(estimates.size(), 2u);
  // Sorted by power: the strong path (-30 deg) first.
  EXPECT_NEAR(rad_to_deg(estimates[0].aoa_rad), -30.0, 1.0);
  EXPECT_GT(estimates[0].power, estimates[1].power);
}

TEST(Esprit, NoisyRecoveryStaysClose) {
  ImpairmentConfig imp;
  imp.sto_base_s = 0.0;
  imp.sto_jitter_s = 0.0;
  imp.random_common_phase = true;
  imp.quantize_8bit = true;
  imp.max_snr_db = 30.0;
  const CsiSynthesizer synth(kLink, imp);
  std::vector<PathComponent> paths{make_path(-20.0, 50.0, -40.0, 0.4)};
  paths[0].is_direct = true;
  Rng rng(35);
  const auto packet = synth.synthesize(paths, 0.0, rng);
  const JointEspritEstimator estimator(kLink);
  const auto estimates = estimator.estimate(packet.csi);
  ASSERT_FALSE(estimates.empty());
  EXPECT_NEAR(rad_to_deg(estimates[0].aoa_rad), -20.0, 2.0);
}

TEST(Esprit, InvalidConfigThrows) {
  EspritConfig cfg;
  cfg.smoothing.ant_len = 1;
  EXPECT_THROW(JointEspritEstimator(kLink, cfg), ContractViolation);
  EXPECT_THROW(JointEspritEstimator(kLink).estimate(CMatrix(2, 30)),
               ContractViolation);
}

// --- Cramér-Rao bounds ---

TEST(Crlb, ScalesInverselyWithAmplitudeSnr) {
  const auto low = single_path_crlb(deg_to_rad(20.0), 50e-9, 10.0, kLink);
  const auto high = single_path_crlb(deg_to_rad(20.0), 50e-9, 30.0, kLink);
  // +20 dB SNR -> 10x tighter standard deviation.
  EXPECT_NEAR(low.sigma_aoa_rad / high.sigma_aoa_rad, 10.0, 0.01);
  EXPECT_NEAR(low.sigma_tof_s / high.sigma_tof_s, 10.0, 0.01);
}

TEST(Crlb, AoaBoundGrowsTowardEndfire) {
  const auto broadside = single_path_crlb(0.0, 50e-9, 20.0, kLink);
  const auto oblique = single_path_crlb(deg_to_rad(60.0), 50e-9, 20.0, kLink);
  // Information scales with cos(theta): bound grows by 1/cos(60) = 2.
  EXPECT_NEAR(oblique.sigma_aoa_rad / broadside.sigma_aoa_rad, 2.0, 0.01);
  // ToF information is unaffected by the AoA.
  EXPECT_NEAR(oblique.sigma_tof_s, broadside.sigma_tof_s, 1e-15);
}

TEST(Crlb, EndfireBoundDiverges) {
  // cos(theta) -> 0 at endfire: the AoA information vanishes and the
  // bound blows up (numerically it may be astronomically large rather
  // than an exact singularity).
  const auto broadside = single_path_crlb(0.0, 50e-9, 20.0, kLink);
  try {
    const auto endfire =
        single_path_crlb(deg_to_rad(89.9), 50e-9, 20.0, kLink);
    EXPECT_GT(endfire.sigma_aoa_rad, 100.0 * broadside.sigma_aoa_rad);
  } catch (const NumericalError&) {
    SUCCEED();  // exactly singular is also acceptable
  }
}

TEST(Crlb, PlausibleMagnitudes) {
  // At 20 dB per-sensor SNR with 90 sensors, sub-degree AoA and
  // sub-nanosecond ToF precision is attainable.
  const auto bound = single_path_crlb(0.0, 50e-9, 20.0, kLink);
  EXPECT_LT(rad_to_deg(bound.sigma_aoa_rad), 1.0);
  EXPECT_GT(rad_to_deg(bound.sigma_aoa_rad), 0.01);
  EXPECT_LT(bound.sigma_tof_s, 1e-9);
  EXPECT_GT(bound.sigma_tof_s, 1e-12);
}

TEST(Crlb, EstimatorRmseInSaneEnvelopeOfBound) {
  // Monte-Carlo RMSE of the joint estimator vs the (unbiased-estimator)
  // CRLB. Note: smoothed MUSIC is slightly biased — the subarray
  // averaging acts as shrinkage — so its variance can sit *below* the
  // unbiased bound, while a brute-force ML estimator lands right on it
  // (bench/crlb_efficiency shows both). The test pins the RMSE to a sane
  // envelope around the bound.
  const double snr_db = 25.0;
  const auto bound = single_path_crlb(deg_to_rad(20.0), 60e-9, snr_db, kLink);

  ImpairmentConfig imp;
  imp.sto_base_s = 0.0;
  imp.sto_jitter_s = 0.0;
  imp.random_common_phase = false;
  imp.quantize_8bit = false;
  imp.max_snr_db = 200.0;
  imp.noise_floor_dbm = -92.0;
  PathComponent p = make_path(20.0, 60.0, 0.0);
  p.gain_db = -92.0 + snr_db - kTxPowerDbm;
  p.is_direct = true;
  const CsiSynthesizer synth(kLink, imp);
  const JointMusicEstimator estimator(kLink);

  Rng rng(55);
  double sq_err = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const auto packet =
        synth.synthesize(std::span<const PathComponent>(&p, 1), 0.0, rng);
    const auto estimates = estimator.estimate(packet.csi);
    ASSERT_FALSE(estimates.empty());
    const double err = estimates[0].aoa_rad - deg_to_rad(20.0);
    sq_err += err * err;
  }
  const double rmse = std::sqrt(sq_err / trials);
  EXPECT_GE(rmse, 0.01 * bound.sigma_aoa_rad);
  EXPECT_LE(rmse, 30.0 * bound.sigma_aoa_rad);
}

// --- MUSIC-AoA baseline ---

class MusicAoaSinglePath : public ::testing::TestWithParam<double> {};

TEST_P(MusicAoaSinglePath, RecoversAoa) {
  const double aoa_deg = GetParam();
  const auto synth = ideal_synth();
  const auto p = make_path(aoa_deg, 60.0, 0.0);
  const CMatrix csi = synth.ideal_csi(std::span<const PathComponent>(&p, 1));
  const MusicAoaEstimator estimator(kLink);
  const auto estimates = estimator.estimate(csi);
  ASSERT_FALSE(estimates.empty());
  EXPECT_NEAR(rad_to_deg(estimates[0].aoa_rad), aoa_deg, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MusicAoaSinglePath,
                         ::testing::Values(-70.0, -45.0, -15.0, 0.0, 10.0,
                                           40.0, 65.0));

TEST(MusicAoa, TwoWellSeparatedPaths) {
  const auto synth = ideal_synth();
  // Different ToFs make the two paths' gains vary across subcarrier
  // snapshots, which is what lets the 3-antenna covariance see rank 2.
  const std::vector<PathComponent> paths{make_path(-40.0, 30.0, 0.0),
                                         make_path(30.0, 150.0, -1.0)};
  const CMatrix csi = synth.ideal_csi(paths);
  const MusicAoaEstimator estimator(kLink);
  const auto estimates = estimator.estimate(csi);
  ASSERT_GE(estimates.size(), 2u);
  std::vector<double> aoas;
  for (const auto& e : estimates) aoas.push_back(rad_to_deg(e.aoa_rad));
  std::sort(aoas.begin(), aoas.end());
  EXPECT_NEAR(aoas.front(), -40.0, 3.0);
  EXPECT_NEAR(aoas.back(), 30.0, 3.0);
}

TEST(JointMusic, WorksOn20MhzLink) {
  // Same machinery on the 20 MHz (uniform-model) configuration: the ToF
  // period doubles to 1.6 us and recovery still works.
  const LinkConfig link20 = LinkConfig::intel5300_20mhz();
  EXPECT_NEAR(tof_period(link20), 1600e-9, 1e-12);
  ImpairmentConfig imp;
  imp.sto_base_s = 0.0;
  imp.sto_jitter_s = 0.0;
  imp.random_common_phase = false;
  imp.quantize_8bit = false;
  imp.noise_floor_dbm = -300.0;
  const CsiSynthesizer synth(link20, imp);
  const auto p = make_path(25.0, 120.0, 0.0);
  const CMatrix csi = synth.ideal_csi(std::span<const PathComponent>(&p, 1));
  const JointMusicEstimator estimator(link20);
  const auto estimates = estimator.estimate(csi);
  ASSERT_FALSE(estimates.empty());
  EXPECT_NEAR(rad_to_deg(estimates[0].aoa_rad), 25.0, 0.6);
  EXPECT_NEAR(estimates[0].tof_s * 1e9, 120.0, 3.0);
}

TEST(MusicAoa, BreaksDownWithManyPaths) {
  // The motivating failure: 5 paths with 3 antennas — the baseline cannot
  // recover them all (it reports at most 2 well-resolved AoAs); this is
  // exactly why SpotFi exists. We only assert it does not crash and
  // returns a small number of peaks.
  const auto synth = ideal_synth();
  const std::vector<PathComponent> paths{
      make_path(-55.0, 25.0, 0.0), make_path(-20.0, 70.0, -1.0),
      make_path(5.0, 130.0, -2.0), make_path(35.0, 200.0, -2.5),
      make_path(65.0, 280.0, -3.0)};
  const CMatrix csi = synth.ideal_csi(paths);
  const MusicAoaEstimator estimator(kLink);
  const auto estimates = estimator.estimate(csi);
  EXPECT_LE(estimates.size(), 3u);
}

}  // namespace
}  // namespace spotfi
