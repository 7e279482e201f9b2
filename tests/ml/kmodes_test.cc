#include "ml/kmodes.h"

#include <gtest/gtest.h>

#include "testutil.h"

namespace smeter::ml {
namespace {

// Three clean nominal clusters: all attributes equal the cluster id.
Dataset ThreeClusters(size_t per_cluster, uint64_t seed, double noise = 0.1) {
  std::vector<std::string> categories = {"0", "1", "2"};
  std::vector<Attribute> attributes;
  for (int a = 0; a < 6; ++a) {
    // Appended, not `"f" + std::to_string(a)`: GCC 12 at -O3 flags that
    // front insert with a false -Wrestrict (fatal under -Werror).
    std::string name = "f";
    name += std::to_string(a);
    attributes.push_back(Attribute::Nominal(name, categories));
  }
  attributes.push_back(Attribute::Nominal("label", categories));
  Dataset d = Dataset::Create("clusters", attributes, 6).value();
  Rng rng(seed);
  for (size_t c = 0; c < 3; ++c) {
    for (size_t i = 0; i < per_cluster; ++i) {
      std::vector<double> row(7, static_cast<double>(c));
      for (int a = 0; a < 6; ++a) {
        if (rng.Bernoulli(noise)) {
          row[static_cast<size_t>(a)] = static_cast<double>(rng.UniformInt(3));
        }
      }
      (void)d.Add(std::move(row));
    }
  }
  return d;
}

std::vector<size_t> TrueLabels(const Dataset& d) {
  std::vector<size_t> labels;
  for (size_t r = 0; r < d.num_instances(); ++r) {
    labels.push_back(d.ClassOf(r).value());
  }
  return labels;
}

TEST(KModesTest, RecoversCleanClusters) {
  Dataset d = ThreeClusters(30, 3);
  KModesOptions options;
  options.k = 3;
  options.seed = 1;
  KModes km(options);
  ASSERT_OK(km.Fit(d));
  ASSERT_OK_AND_ASSIGN(double ari,
                       AdjustedRandIndex(km.assignments(), TrueLabels(d)));
  EXPECT_GT(ari, 0.9);
}

TEST(KModesTest, CostDecreasesWithMoreClusters) {
  Dataset d = ThreeClusters(30, 5, /*noise=*/0.3);
  KModesOptions options;
  options.seed = 2;
  options.k = 1;
  KModes one(options);
  ASSERT_OK(one.Fit(d));
  options.k = 3;
  KModes three(options);
  ASSERT_OK(three.Fit(d));
  EXPECT_LT(three.cost(), one.cost());
}

TEST(KModesTest, PredictAssignsToNearestMode) {
  Dataset d = ThreeClusters(30, 7, /*noise=*/0.0);
  KModesOptions options;
  options.k = 3;
  KModes km(options);
  ASSERT_OK(km.Fit(d));
  // A pure cluster-1 row must land in the same cluster as training row of
  // cluster 1.
  std::vector<double> probe(7, 1.0);
  probe[6] = kMissing;  // class ignored anyway
  ASSERT_OK_AND_ASSIGN(size_t cluster, km.Predict(probe));
  EXPECT_EQ(cluster, km.assignments()[30]);  // rows 30..59 are cluster 1
}

TEST(KModesTest, HandlesMissingValues) {
  Dataset d = ThreeClusters(20, 9);
  // Blank out some cells.
  Dataset with_missing = d.EmptyCopy();
  Rng rng(4);
  for (size_t r = 0; r < d.num_instances(); ++r) {
    std::vector<double> row = d.row(r);
    for (size_t a = 0; a < 6; ++a) {
      if (rng.Bernoulli(0.1)) row[a] = kMissing;
    }
    ASSERT_OK(with_missing.Add(std::move(row)));
  }
  KModesOptions options;
  options.k = 3;
  KModes km(options);
  ASSERT_OK(km.Fit(with_missing));
  ASSERT_OK_AND_ASSIGN(
      double ari, AdjustedRandIndex(km.assignments(), TrueLabels(d)));
  EXPECT_GT(ari, 0.7);
}

TEST(KModesTest, Validates) {
  Dataset d = ThreeClusters(2, 11);
  KModesOptions options;
  options.k = 0;
  EXPECT_FALSE(KModes(options).Fit(d).ok());
  options.k = 100;
  EXPECT_FALSE(KModes(options).Fit(d).ok());

  // No nominal attributes.
  Dataset numeric =
      Dataset::Create("n", {Attribute::Numeric("x"),
                            Attribute::Nominal("c", {"a", "b"})},
                      1)
          .value();
  ASSERT_OK(numeric.Add({1.0, 0.0}));
  ASSERT_OK(numeric.Add({2.0, 1.0}));
  options.k = 2;
  EXPECT_FALSE(KModes(options).Fit(numeric).ok());

  KModes unfitted(options);
  EXPECT_FALSE(unfitted.Predict({0.0}).ok());
}

TEST(KModesTest, DeterministicGivenSeed) {
  Dataset d = ThreeClusters(25, 13, 0.2);
  KModesOptions options;
  options.k = 3;
  options.seed = 42;
  KModes a(options), b(options);
  ASSERT_OK(a.Fit(d));
  ASSERT_OK(b.Fit(d));
  EXPECT_EQ(a.assignments(), b.assignments());
  EXPECT_DOUBLE_EQ(a.cost(), b.cost());
}

TEST(AdjustedRandIndexTest, KnownValues) {
  ASSERT_OK_AND_ASSIGN(double identical,
                       AdjustedRandIndex({0, 0, 1, 1}, {1, 1, 0, 0}));
  EXPECT_DOUBLE_EQ(identical, 1.0);  // label names don't matter
  ASSERT_OK_AND_ASSIGN(double self, AdjustedRandIndex({0, 1, 2}, {0, 1, 2}));
  EXPECT_DOUBLE_EQ(self, 1.0);
  // Orthogonal partitions of 4 items score <= 0.
  ASSERT_OK_AND_ASSIGN(double bad,
                       AdjustedRandIndex({0, 0, 1, 1}, {0, 1, 0, 1}));
  EXPECT_LE(bad, 0.0);
}

TEST(AdjustedRandIndexTest, Validates) {
  EXPECT_FALSE(AdjustedRandIndex({0, 1}, {0}).ok());
  EXPECT_FALSE(AdjustedRandIndex({}, {}).ok());
}

}  // namespace
}  // namespace smeter::ml
