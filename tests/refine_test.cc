/**
 * @file
 * Tests for iterative-refinement recovery (--refine) and the ladder
 * compatibility of resume state: a half-precision configuration that
 * fails the quality gate unrefined must pass with refinement on, a
 * diverging refinement must surface as RuntimeFail (never a hang),
 * and a two-tier campaign's memo segment must never be consulted by a
 * three-rung campaign.
 */

#include <cmath>
#include <filesystem>
#include <memory>

#include <gtest/gtest.h>

#include "benchmarks/benchmark.h"
#include "benchmarks/registry.h"
#include "core/tuner.h"
#include "runtime/ladder.h"
#include "search/context.h"
#include "search/memo_store.h"
#include "support/logging.h"

namespace {

using namespace hpcmixp;
using core::BenchmarkTuner;
using core::TunerOptions;
using search::Config;
using search::EvalStatus;

std::unique_ptr<benchmarks::Benchmark>
make(const std::string& name)
{
    return benchmarks::BenchmarkRegistry::instance().create(name);
}

TunerOptions
ladderOptions(const std::string& spec, bool refine,
              double threshold = 1e-8)
{
    TunerOptions opt;
    opt.threshold = threshold;
    opt.searchReps = 1;
    opt.finalReps = 3;
    opt.budget = {200, 0.0};
    opt.ladder = runtime::PrecisionLadder::parse(spec);
    opt.refine = refine;
    return opt;
}

/** All clusters at ladder level @p level. */
Config
uniformConfig(const BenchmarkTuner& tuner, std::uint8_t level)
{
    Config cfg(tuner.clusterCount());
    for (std::size_t c = 0; c < tuner.clusterCount(); ++c)
        cfg.setLevel(c, level);
    return cfg;
}

/**
 * The headline recovery scenario: tridiag with every cluster at the
 * half rung fails a 1e-8 quality gate unrefined, and passes it once
 * iterative refinement corrects the low-precision solution against
 * the double-precision residual.
 */
TEST(Refine, FailingHalfConfigPassesWithRefinementOn)
{
    auto plainBench = make("tridiag");
    BenchmarkTuner plain(*plainBench,
                         ladderOptions("double,float,half", false));
    auto unrefined =
        plain.evaluateClusterConfig(uniformConfig(plain, 2), 1);
    ASSERT_EQ(unrefined.status, EvalStatus::QualityFail)
        << "half tridiag must fail 1e-8 unrefined, or this test "
           "guards nothing (loss "
        << unrefined.qualityLoss << ")";

    auto refinedBench = make("tridiag");
    BenchmarkTuner refined(*refinedBench,
                           ladderOptions("double,float,half", true));
    auto eval =
        refined.evaluateClusterConfig(uniformConfig(refined, 2), 1);
    EXPECT_EQ(eval.status, EvalStatus::Pass);
    EXPECT_LT(eval.qualityLoss, 1e-8);
}

/** The bfloat16 rung recovers the same way. */
TEST(Refine, FailingBf16ConfigPassesWithRefinementOn)
{
    auto plainBench = make("tridiag");
    BenchmarkTuner plain(*plainBench,
                         ladderOptions("double,float,bf16", false));
    auto unrefined =
        plain.evaluateClusterConfig(uniformConfig(plain, 2), 1);
    ASSERT_EQ(unrefined.status, EvalStatus::QualityFail);

    auto refinedBench = make("tridiag");
    BenchmarkTuner refined(*refinedBench,
                           ladderOptions("double,float,bf16", true));
    auto eval =
        refined.evaluateClusterConfig(uniformConfig(refined, 2), 1);
    EXPECT_EQ(eval.status, EvalStatus::Pass);
    EXPECT_LT(eval.qualityLoss, 1e-8);
}

/** The baseline configuration is never routed through refinement:
 *  with --refine=on it still passes with exactly zero loss. */
TEST(Refine, BaselineIsNeverRefined)
{
    auto bench = make("tridiag");
    BenchmarkTuner tuner(*bench,
                         ladderOptions("double,float,half", true));
    auto eval =
        tuner.evaluateClusterConfig(Config(tuner.clusterCount()), 1);
    EXPECT_EQ(eval.status, EvalStatus::Pass);
    EXPECT_DOUBLE_EQ(eval.qualityLoss, 0.0);
}

/**
 * Divergence at the benchmark layer: an unreachable target residual
 * must throw RefineDiverged within the iteration cap — a bounded
 * loop, never a hang.
 */
TEST(Refine, UnreachableTargetThrowsRefineDiverged)
{
    auto bench = make("tridiag");
    ASSERT_TRUE(bench->supportsRefinement());

    benchmarks::PrecisionMap pm;
    pm.set("x", runtime::Precision::Float16);
    pm.set("y", runtime::Precision::Float16);
    pm.set("z", runtime::Precision::Float16);
    benchmarks::RunPlan plan = bench->prepare(pm);
    runtime::RunWorkspace ws;

    benchmarks::RefineControl control;
    control.targetResidual = 0.0; // exact zero: unreachable
    control.maxIterations = 8;
    EXPECT_THROW(bench->executeRefined(plan, ws, control),
                 benchmarks::RefineDiverged);
}

/** A benchmark without a refinement hook reports so, and the default
 *  executeRefined refuses to pretend otherwise. */
TEST(Refine, KernelsWithoutResidualHookDeclineRefinement)
{
    auto bench = make("hydro-1d");
    EXPECT_FALSE(bench->supportsRefinement());

    benchmarks::PrecisionMap pm;
    benchmarks::RunPlan plan = bench->prepare(pm);
    runtime::RunWorkspace ws;
    EXPECT_THROW(
        bench->executeRefined(plan, ws, benchmarks::RefineControl{}),
        hpcmixp::support::FatalError);
}

/**
 * Divergence at the tuner layer: an impossible quality threshold
 * drives the target residual below anything the correction loop can
 * reach; the RefineDiverged must land in the tuner's evaluation as
 * an ordinary RuntimeFail (memoizable, retryable), not an escape.
 */
TEST(Refine, TunerMapsDivergenceToRuntimeFail)
{
    auto bench = make("tridiag");
    BenchmarkTuner tuner(
        *bench, ladderOptions("double,float,half", true, 1e-300));
    auto eval =
        tuner.evaluateClusterConfig(uniformConfig(tuner, 2), 1);
    EXPECT_EQ(eval.status, EvalStatus::RuntimeFail);
    EXPECT_TRUE(std::isnan(eval.qualityLoss));
}

/**
 * The ladder (and the refinement flag) are part of the evaluation-
 * function identity: fingerprints taken under different ladders must
 * differ, and the default two-tier fingerprint must keep the exact
 * historical spelling so pre-ladder memo segments stay addressable.
 */
TEST(Refine, FingerprintCarriesLadderAndRefinementMarker)
{
    auto twoTier = make("tridiag");
    BenchmarkTuner two(*twoTier,
                       ladderOptions("double,float", false));
    auto threeRung = make("tridiag");
    BenchmarkTuner three(*threeRung,
                         ladderOptions("double,float,half", false));
    auto refined = make("tridiag");
    BenchmarkTuner ir(*refined,
                      ladderOptions("double,float,half", true));

    using search::Granularity;
    EXPECT_EQ(two.fingerprint(Granularity::Cluster).ladder,
              "f64:f32");
    EXPECT_EQ(three.fingerprint(Granularity::Cluster).ladder,
              "f64:f32:f16");
    EXPECT_EQ(ir.fingerprint(Granularity::Cluster).ladder,
              "f64:f32:f16+ir");
}

/**
 * The resume state of a two-tier campaign (its memo segment) presented
 * to a three-rung campaign of the same benchmark must be set aside,
 * never consulted and never a crash: the ladder is part of the
 * fingerprint, so the three-rung run addresses its own segment and
 * executes afresh, while a two-tier rerun still resumes from it.
 */
TEST(Refine, TwoTierCheckpointIsRecoverablyRejectedByThreeRung)
{
    std::string dir = ::testing::TempDir() + "refine_ladder_memo";
    std::filesystem::remove_all(dir);
    const auto cluster = search::Granularity::Cluster;

    auto sourceBench = make("tridiag");
    BenchmarkTuner source(*sourceBench,
                          ladderOptions("double,float", false));
    Config lowered = Config::withLowered(source.clusterCount(), {0});
    {
        search::MemoStore store(dir);
        search::SearchContext ctx(source.clusterProblem(),
                                  {100, 0.0});
        ctx.setMemo(store.table(source.fingerprint(cluster)));
        ctx.evaluate(lowered);
        ASSERT_EQ(ctx.evaluatedCount(), 1u);
    }

    auto targetBench = make("tridiag");
    BenchmarkTuner target(*targetBench,
                          ladderOptions("double,float,half", false));
    ASSERT_EQ(target.clusterCount(), source.clusterCount());
    search::MemoStore store(dir);
    auto targetTable = store.table(target.fingerprint(cluster));
    EXPECT_FALSE(targetTable->lookup(lowered.toString()).has_value());
    search::SearchContext targetCtx(target.clusterProblem(),
                                    {100, 0.0});
    targetCtx.setMemo(targetTable);
    targetCtx.evaluate(lowered);
    EXPECT_EQ(targetCtx.memoHitCount(), 0u);
    EXPECT_EQ(targetCtx.evaluatedCount(), 1u);

    // The two-tier segment survived the three-rung run and still
    // resumes a two-tier context.
    search::SearchContext backCtx(source.clusterProblem(),
                                  {100, 0.0});
    backCtx.setMemo(store.table(source.fingerprint(cluster)));
    backCtx.evaluate(lowered);
    EXPECT_EQ(backCtx.memoHitCount(), 1u);
    EXPECT_EQ(backCtx.evaluatedCount(), 0u);
    std::filesystem::remove_all(dir);
}

// ---- EV pins on tridiag's ladders ------------------------------------
//
// CB and DD walk paths that depend only on pass/fail verdicts, so their
// EV is an exact count, the same at HPCMIXP_QUICK and at full sizes.

/** EV of one @p code search on tridiag at threshold 1e-6. */
std::size_t
tridiagEv(const std::string& spec, bool refine, const std::string& code)
{
    auto bench = make("tridiag");
    BenchmarkTuner tuner(*bench, ladderOptions(spec, refine, 1e-6));
    return tuner.tune(code).search.evaluated;
}

/** CB enumerates every non-baseline configuration of tridiag's three
 *  clusters: 2^3 - 1 on two rungs, 3^3 - 1 on three. */
TEST(Refine, ThirdRungMakesExhaustiveCbEvGrowFrom7To26)
{
    EXPECT_EQ(tridiagEv("double,float", false, "CB"), 7u);
    EXPECT_EQ(tridiagEv("double,float,half", false, "CB"), 26u);
    EXPECT_EQ(tridiagEv("double,float,bf16", false, "CB"), 26u);
}

/** DD accepts all-float at once on two rungs and tries the 16-bit
 *  rung on three. Refinement changes which bfloat16 candidates pass,
 *  and with them DD's walk. */
TEST(Refine, DeltaDebuggingEvWithRefinementOffAndOn)
{
    EXPECT_EQ(tridiagEv("double,float", false, "DD"), 1u);
    EXPECT_EQ(tridiagEv("double,float,half", false, "DD"), 7u);
    EXPECT_EQ(tridiagEv("double,float,half", true, "DD"), 7u);
    EXPECT_EQ(tridiagEv("double,float,bf16", false, "DD"), 6u);
    EXPECT_EQ(tridiagEv("double,float,bf16", true, "DD"), 7u);
}

} // namespace
