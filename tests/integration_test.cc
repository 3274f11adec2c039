/**
 * @file
 * End-to-end integration tests: full searches over real benchmarks
 * through the public API. Batch execution of several jobs is the
 * harness's (harness_test).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "core/mixpbench.h"

namespace {

using namespace hpcmixp;

core::TunerOptions
fastOptions(double threshold)
{
    core::TunerOptions opt;
    opt.threshold = threshold;
    opt.searchReps = 1;
    opt.finalReps = 3;
    opt.budget = {150, 0.0};
    return opt;
}

/** Every strategy must complete a kernel search end to end. */
class EveryStrategy : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryStrategy, CompletesOnAKernel)
{
    auto bench =
        benchmarks::BenchmarkRegistry::instance().create("int-predict");
    core::BenchmarkTuner tuner(*bench, fastOptions(1e-3));
    auto outcome = tuner.tune(GetParam());
    EXPECT_TRUE(std::isfinite(outcome.finalSpeedup));
    EXPECT_GT(outcome.finalSpeedup, 0.0);
    // The quality constraint is always respected by the final config.
    EXPECT_TRUE(outcome.finalQualityLoss <= 1e-3);
    EXPECT_EQ(outcome.clusterConfig.size(), tuner.clusterCount());
}

INSTANTIATE_TEST_SUITE_P(Strategies, EveryStrategy,
                         ::testing::Values("CB", "CM", "DD", "HR",
                                           "HC", "GA"));

TEST(Integration, CombinationalIsExhaustiveOnKernels)
{
    auto bench =
        benchmarks::BenchmarkRegistry::instance().create("iccg");
    core::BenchmarkTuner tuner(*bench, fastOptions(1e-3));
    auto outcome = tuner.tune("CB");
    // iccg has 2 clusters: CB must execute all 3 non-baseline configs.
    EXPECT_EQ(outcome.search.evaluated, 3u);
}

TEST(Integration, SradIsTunableOnlyAtRelaxedThresholds)
{
    auto bench =
        benchmarks::BenchmarkRegistry::instance().create("srad");
    core::BenchmarkTuner strict(*bench, fastOptions(1e-8));
    auto tight = strict.tune("DD");
    EXPECT_LE(tight.finalQualityLoss, 1e-8);

    core::BenchmarkTuner relaxed(*bench, fastOptions(1e-3));
    auto loose = relaxed.tune("DD");
    EXPECT_LE(loose.finalQualityLoss, 1e-3);
}

TEST(Integration, KmeansPassesStrictThresholdViaMcr)
{
    auto bench =
        benchmarks::BenchmarkRegistry::instance().create("kmeans");
    core::BenchmarkTuner tuner(*bench, fastOptions(1e-8));
    auto outcome = tuner.tune("DD");
    // MCR of the float version is 0: DD can lower everything.
    EXPECT_TRUE(outcome.search.foundImprovement);
    EXPECT_EQ(outcome.clusterConfig.count(),
              outcome.clusterConfig.size());
    EXPECT_EQ(outcome.finalQualityLoss, 0.0);
}

TEST(Integration, BudgetTruncationIsReported)
{
    auto bench =
        benchmarks::BenchmarkRegistry::instance().create("blackscholes");
    core::TunerOptions opt = fastOptions(1e-6);
    opt.budget = {2, 0.0}; // absurdly small: CM cannot finish
    core::BenchmarkTuner tuner(*bench, opt);
    auto outcome = tuner.tune("CM");
    EXPECT_TRUE(outcome.search.timedOut);
}

} // namespace
