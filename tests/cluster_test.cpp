// Tests for clustering: k-means++ and the Gaussian mixture EM that
// implements the paper's "Gaussian mean clustering" (Sec. 3.2.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "cluster/gmm.hpp"
#include "geom/vec2.hpp"

namespace spotfi {
namespace {

/// Three well-separated blobs in 2-D.
RMatrix three_blobs(Rng& rng, std::size_t per_blob = 40) {
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  RMatrix points(3 * per_blob, 2);
  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      points(b * per_blob + i, 0) = centers[b][0] + rng.normal(0.0, 0.5);
      points(b * per_blob + i, 1) = centers[b][1] + rng.normal(0.0, 0.5);
    }
  }
  return points;
}

TEST(KMeans, RecoversWellSeparatedBlobs) {
  Workspace ws;
  Rng rng(1);
  const RMatrix points = three_blobs(rng);
  const KMeansResult result = kmeans(points, 3, rng, {}, ws);
  ASSERT_EQ(result.centroids.rows(), 3u);
  // Each true center should be close to some centroid.
  for (const auto& truth : {Vec2{0.0, 0.0}, Vec2{10.0, 0.0}, Vec2{0.0, 10.0}}) {
    double best = 1e9;
    for (std::size_t c = 0; c < 3; ++c) {
      best = std::min(best, std::hypot(result.centroids(c, 0) - truth.x,
                                       result.centroids(c, 1) - truth.y));
    }
    EXPECT_LT(best, 0.5);
  }
  // Points in the same blob share an assignment.
  for (std::size_t b = 0; b < 3; ++b) {
    const std::size_t ref = result.assignment[b * 40];
    for (std::size_t i = 1; i < 40; ++i) {
      EXPECT_EQ(result.assignment[b * 40 + i], ref);
    }
  }
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  Workspace ws;
  Rng rng(2);
  const RMatrix points = three_blobs(rng);
  Rng r1(3), r2(3);
  const double inertia1 = kmeans(points, 1, r1, {}, ws).inertia;
  const double inertia3 = kmeans(points, 3, r2, {}, ws).inertia;
  EXPECT_GT(inertia1, 5.0 * inertia3);
}

TEST(KMeans, MoreClustersThanPointsShrinks) {
  Workspace ws;
  RMatrix points(2, 2);
  points(0, 0) = 1.0;
  points(1, 0) = 5.0;
  Rng rng(4);
  const KMeansResult result = kmeans(points, 10, rng, {}, ws);
  EXPECT_LE(result.centroids.rows(), 2u);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KMeans, DuplicatePointsCollapse) {
  Workspace ws;
  RMatrix points(5, 1, 3.0);  // five identical points
  Rng rng(5);
  const KMeansResult result = kmeans(points, 3, rng, {}, ws);
  EXPECT_EQ(result.centroids.rows(), 1u);
  EXPECT_NEAR(result.centroids(0, 0), 3.0, 1e-12);
}

TEST(KMeans, SinglePoint) {
  Workspace ws;
  RMatrix points(1, 2);
  points(0, 0) = 7.0;
  points(0, 1) = -2.0;
  Rng rng(6);
  const KMeansResult result = kmeans(points, 5, rng, {}, ws);
  ASSERT_EQ(result.centroids.rows(), 1u);
  EXPECT_DOUBLE_EQ(result.centroids(0, 0), 7.0);
}

TEST(KMeans, EmptyInputThrows) {
  Workspace ws;
  Rng rng(7);
  EXPECT_THROW(kmeans(RMatrix(0, 2), 3, rng, {}, ws), ContractViolation);
  EXPECT_THROW(kmeans(RMatrix(3, 2), 0, rng, {}, ws), ContractViolation);
}

TEST(KMeans, DeterministicGivenRngState) {
  Workspace ws;
  Rng rng(8);
  const RMatrix points = three_blobs(rng);
  Rng r1(9), r2(9);
  const KMeansResult a = kmeans(points, 3, r1, {}, ws);
  const KMeansResult b = kmeans(points, 3, r2, {}, ws);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(Gmm, RecoversBlobMeansAndVariances) {
  Workspace ws;
  Rng rng(10);
  const RMatrix points = three_blobs(rng, 80);
  const GmmResult result = fit_gmm(points, 3, rng, {}, ws);
  ASSERT_EQ(result.components.size(), 3u);
  for (const auto& truth : {Vec2{0.0, 0.0}, Vec2{10.0, 0.0}, Vec2{0.0, 10.0}}) {
    double best = 1e9;
    std::size_t best_c = 0;
    for (std::size_t c = 0; c < 3; ++c) {
      const double d = std::hypot(result.components[c].mean[0] - truth.x,
                                  result.components[c].mean[1] - truth.y);
      if (d < best) {
        best = d;
        best_c = c;
      }
    }
    EXPECT_LT(best, 0.3);
    // True per-axis variance is 0.25.
    EXPECT_NEAR(result.components[best_c].variance[0], 0.25, 0.15);
    EXPECT_NEAR(result.components[best_c].variance[1], 0.25, 0.15);
    EXPECT_NEAR(result.components[best_c].weight, 1.0 / 3.0, 0.05);
  }
}

TEST(Gmm, SoftClusteringSeparatesOverlappingBlobsByWeight) {
  Workspace ws;
  // Two blobs with very different populations.
  Rng rng(11);
  RMatrix points(120, 1);
  for (std::size_t i = 0; i < 100; ++i) {
    points(i, 0) = rng.normal(0.0, 1.0);
  }
  for (std::size_t i = 100; i < 120; ++i) {
    points(i, 0) = rng.normal(8.0, 1.0);
  }
  const GmmResult result = fit_gmm(points, 2, rng, {}, ws);
  ASSERT_EQ(result.components.size(), 2u);
  const auto& big = result.components[0].weight > result.components[1].weight
                        ? result.components[0]
                        : result.components[1];
  EXPECT_NEAR(big.weight, 100.0 / 120.0, 0.08);
  EXPECT_NEAR(big.mean[0], 0.0, 0.5);
}

TEST(Gmm, LogLikelihoodIsMonotone) {
  Workspace ws;
  // EM must not decrease the data log-likelihood; we check the final value
  // beats the k-means initialization by running with 1 vs many iterations.
  Rng rng(12);
  const RMatrix points = three_blobs(rng);
  Rng r1(13), r2(13);
  GmmConfig one_iter;
  one_iter.max_iterations = 1;
  const GmmResult early = fit_gmm(points, 3, r1, one_iter, ws);
  const GmmResult late = fit_gmm(points, 3, r2, {}, ws);
  EXPECT_GE(late.log_likelihood, early.log_likelihood - 1e-9);
}

TEST(Gmm, VarianceFloorPreventsCollapse) {
  Workspace ws;
  // Many identical points + one outlier: components must keep a positive
  // variance.
  RMatrix points(20, 1, 2.0);
  points(19, 0) = 9.0;
  Rng rng(14);
  const GmmResult result = fit_gmm(points, 2, rng, {}, ws);
  for (const auto& c : result.components) {
    EXPECT_GT(c.variance[0], 0.0);
  }
}

TEST(Gmm, AssignmentCoversAllComponentsOfSeparatedData) {
  Workspace ws;
  Rng rng(15);
  const RMatrix points = three_blobs(rng);
  const GmmResult result = fit_gmm(points, 3, rng, {}, ws);
  std::set<std::size_t> used(result.assignment.begin(),
                             result.assignment.end());
  EXPECT_EQ(used.size(), 3u);
}

TEST(Gmm, InvalidArgumentsThrow) {
  Workspace ws;
  Rng rng(16);
  EXPECT_THROW(fit_gmm(RMatrix(0, 2), 2, rng, {}, ws), ContractViolation);
  EXPECT_THROW(fit_gmm(RMatrix(4, 2), 0, rng, {}, ws), ContractViolation);
}

}  // namespace
}  // namespace spotfi
