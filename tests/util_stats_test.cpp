#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace parcl::util {
namespace {

TEST(RunningStats, MatchesClosedForm) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, DegenerateCases) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  stats.add(3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
}

TEST(Quantile, InterpolatesLinearly) {
  std::vector<double> values{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({5.0}, 0.5), 5.0);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW(quantile({}, 0.5), ConfigError);
  EXPECT_THROW(quantile({1.0}, -0.1), ConfigError);
  EXPECT_THROW(quantile({1.0}, 1.1), ConfigError);
}

TEST(BoxStats, IdentifiesOutliers) {
  // Tight body plus one extreme straggler, the Fig-1 pattern.
  std::vector<double> values;
  for (int i = 0; i < 20; ++i) values.push_back(60.0 + i);
  values.push_back(561.0);
  BoxStats stats = box_stats(values);
  EXPECT_EQ(stats.count, 21u);
  ASSERT_EQ(stats.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.outliers[0], 561.0);
  EXPECT_DOUBLE_EQ(stats.max, 561.0);
  EXPECT_LE(stats.whisker_high, 79.0);
  EXPECT_GE(stats.median, 60.0);
  EXPECT_LE(stats.median, 79.0);
  EXPECT_GT(stats.iqr, 0.0);
}

TEST(BoxStats, UniformSampleHasNoOutliers) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(static_cast<double>(i));
  BoxStats stats = box_stats(values);
  EXPECT_TRUE(stats.outliers.empty());
  EXPECT_DOUBLE_EQ(stats.median, 50.5);
  EXPECT_DOUBLE_EQ(stats.whisker_low, 1.0);
  EXPECT_DOUBLE_EQ(stats.whisker_high, 100.0);
}

TEST(BoxStats, RejectsEmpty) { EXPECT_THROW(box_stats({}), ConfigError); }

TEST(Table, RendersAlignedColumns) {
  Table table({"nodes", "tasks"});
  table.add_row({"1000", "128000"});
  table.add_row({"9000", "1152000"});
  std::string out = table.render();
  EXPECT_NE(out.find("nodes"), std::string::npos);
  EXPECT_NE(out.find("1152000"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
  EXPECT_THROW(table.add_row({"only-one-cell"}), ConfigError);
}

// Property sweep: quantile(v, q) is monotone in q for random samples.
class QuantileMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileMonotone, MonotoneInQ) {
  Rng rng(GetParam());
  std::vector<double> values;
  for (int i = 0; i < 57; ++i) values.push_back(rng.uniform(-100.0, 100.0));
  double prev = quantile(values, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    double current = quantile(values, q);
    EXPECT_GE(current, prev - 1e-12);
    prev = current;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotone,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace parcl::util
