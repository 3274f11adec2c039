/**
 * @file
 * StaticPrior semantics and its effect on every search strategy:
 * Off is trajectory-identical to a plain search, On never evaluates a
 * pinned site and seeds the GA, and the hierarchical traversal visits
 * high-score groups first. On the annotated benchmarks, the EV the
 * prior and its certified caps save is pinned exactly.
 */

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "core/tuner.h"
#include "runtime/ladder.h"
#include "search/driver.h"
#include "search/prior.h"
#include "search/strategy.h"
#include "support/logging.h"

namespace {

using namespace hpcmixp::search;

/** Deterministic problem that records every raw evaluation in order.
 *  Only safe for serial contexts (searchJobs == 1, the default). */
class RecordingProblem : public SearchProblem {
  public:
    using PassFn = std::function<bool(const Config&)>;

    RecordingProblem(std::size_t sites, PassFn pass)
        : sites_(sites), pass_(std::move(pass))
    {
    }

    void setStructure(StructureNode tree)
    {
        tree_ = std::move(tree);
        hasTree_ = true;
    }

    std::size_t siteCount() const override { return sites_; }

    Evaluation
    evaluate(const Config& config) override
    {
        evaluated_.push_back(config);
        Evaluation eval;
        eval.speedup = 1.0 + 0.1 * static_cast<double>(config.count());
        eval.runtimeSeconds = 1.0 / eval.speedup;
        if (pass_(config)) {
            eval.status = EvalStatus::Pass;
        } else {
            eval.status = EvalStatus::QualityFail;
            eval.qualityLoss = 1.0;
        }
        return eval;
    }

    const StructureNode* structure() const override
    {
        return hasTree_ ? &tree_ : nullptr;
    }

    const std::vector<Config>& evaluated() const { return evaluated_; }

  private:
    std::size_t sites_;
    PassFn pass_;
    StructureNode tree_;
    bool hasTree_ = false;
    std::vector<Config> evaluated_;
};

/** root -> two functions -> per-site leaves, over 4 sites. */
StructureNode
fourSiteTree()
{
    StructureNode root{"root", {0, 1, 2, 3}, {}};
    StructureNode fa{"fa", {0, 1}, {}};
    StructureNode fb{"fb", {2, 3}, {}};
    fa.children = {StructureNode{"a0", {0}, {}},
                   StructureNode{"a1", {1}, {}}};
    fb.children = {StructureNode{"b2", {2}, {}},
                   StructureNode{"b3", {3}, {}}};
    root.children = {std::move(fa), std::move(fb)};
    return root;
}

/** Site 2 is precision-sensitive; everything else lowers freely. */
bool
passUnlessSite2(const Config& c)
{
    return !c.test(2);
}

RecordingProblem
fourSiteProblem()
{
    RecordingProblem problem(4, passUnlessSite2);
    problem.setStructure(fourSiteTree());
    return problem;
}

constexpr std::uint8_t kFree = StaticPrior::kUnbounded;

/** The prior mixp-lint would derive: site 2 KeepDouble, 0/1 safe. */
StaticPrior
fourSitePrior(PriorMode mode)
{
    return StaticPrior::withCaps(mode, {kFree, kFree, 0, kFree},
                                 {true, true, false, false},
                                 {0, 0, 5, 2});
}

std::vector<std::string>
allCodes()
{
    return {"CB", "CM", "DD", "GA", "HR", "HC"};
}

// ---- StaticPrior unit behaviour ----------------------------------------

TEST(StaticPrior, DefaultIsAbsent)
{
    StaticPrior prior;
    EXPECT_FALSE(prior.enabled());
    EXPECT_EQ(prior.siteCount(), 0u);
}

TEST(StaticPrior, AccessorsReflectTheVerdicts)
{
    StaticPrior prior = StaticPrior::withCaps(
        PriorMode::On, {kFree, 0, kFree, kFree},
        {true, false, false, false}, {1, 5, 0, 2});
    EXPECT_TRUE(prior.enabled());
    EXPECT_EQ(prior.pinnedCount(), 1u);
    EXPECT_TRUE(prior.pinned(1));
    EXPECT_EQ(prior.freeSites(),
              (std::vector<std::size_t>{0, 2, 3}));
    EXPECT_EQ(prior.seedConfig(), Config::withLowered(4, {0}));
    EXPECT_EQ(prior.clamped(Config::withLowered(4, {0, 2})),
              Config::withLowered(4, {0, 2}));
    EXPECT_EQ(prior.clamped(Config::withLowered(4, {0, 1, 3})),
              Config::withLowered(4, {0, 3}));
    EXPECT_EQ(prior.groupScore({0, 3}), 3);
    EXPECT_EQ(prior.groupScore({}), 0);
}

TEST(StaticPrior, SeedNeverLowersAPinnedSite)
{
    // A contradictory verdict pair (pinned *and* narrow) resolves in
    // favour of the pin.
    StaticPrior prior = StaticPrior::withCaps(
        PriorMode::On, {0, kFree}, {true, true}, {5, 0});
    EXPECT_EQ(prior.seedConfig(), Config::withLowered(2, {1}));
}

TEST(StaticPrior, ModeNamesRoundTrip)
{
    for (PriorMode mode : {PriorMode::Off, PriorMode::On})
        EXPECT_EQ(parsePriorMode(priorModeName(mode)), mode);
}

TEST(StaticPrior, UnknownModeSpellingIsAUserError)
{
    for (const char* spelling : {"auto", "strict"})
        EXPECT_THROW((void)parsePriorMode(spelling),
                     hpcmixp::support::FatalError)
            << spelling;
}

// ---- Off mode: bit-identical trajectories ------------------------------

TEST(StaticPrior, OffModeIsTrajectoryIdenticalOnEveryStrategy)
{
    for (const std::string& code : allCodes()) {
        RecordingProblem plain = fourSiteProblem();
        SearchResult without =
            runSearch(plain, code, SearchBudget{10000, 0.0});

        RecordingProblem primed = fourSiteProblem();
        SearchRunOptions run;
        run.prior = fourSitePrior(PriorMode::Off);
        SearchResult with =
            runSearch(primed, code, SearchBudget{10000, 0.0}, run);

        EXPECT_EQ(plain.evaluated(), primed.evaluated())
            << code << ": Off prior changed the evaluation sequence";
        EXPECT_EQ(without.evaluated, with.evaluated) << code;
        EXPECT_EQ(without.best, with.best) << code;
    }
}

// ---- On mode: pruning, seeding, ordering -------------------------------

TEST(StaticPrior, OnModeNeverEvaluatesAPinnedSite)
{
    for (const std::string& code : allCodes()) {
        RecordingProblem problem = fourSiteProblem();
        SearchRunOptions run;
        run.prior = fourSitePrior(PriorMode::On);
        SearchResult result =
            runSearch(problem, code, SearchBudget{10000, 0.0}, run);

        for (const Config& cfg : problem.evaluated())
            EXPECT_FALSE(cfg.test(2))
                << code << " evaluated pinned site: " << cfg.toString();
        EXPECT_FALSE(result.best.test(2)) << code;
    }
}

TEST(StaticPrior, OnModeSeedsTheGeneticPopulation)
{
    RecordingProblem problem = fourSiteProblem();
    SearchRunOptions run;
    run.prior = fourSitePrior(PriorMode::On);
    runSearch(problem, "GA", SearchBudget{10000, 0.0}, run);

    Config seed = run.prior.seedConfig();
    bool found = false;
    for (const Config& cfg : problem.evaluated())
        found = found || cfg == seed;
    EXPECT_TRUE(found) << "GA never evaluated the SafeToNarrow seed";
}

TEST(StaticPrior, HierarchicalVisitsHighScoreGroupsFirst)
{
    // No pins — only the ordering signal. Root fails (it lowers the
    // sensitive site 2), so level two enumerates both functions; the
    // prior's scores put fb {2,3} (score 7) ahead of fa {0,1}.
    RecordingProblem problem = fourSiteProblem();
    SearchRunOptions run;
    run.prior = StaticPrior::withCaps(
        PriorMode::On, {kFree, kFree, kFree, kFree},
        {false, false, false, false}, {0, 0, 5, 2});
    runSearch(problem, "HR", SearchBudget{10000, 0.0}, run);

    const auto& seq = problem.evaluated();
    ASSERT_GE(seq.size(), 3u);
    EXPECT_EQ(seq[0], Config::withLowered(4, {0, 1, 2, 3}));
    EXPECT_EQ(seq[1], Config::withLowered(4, {2, 3}));
    EXPECT_EQ(seq[2], Config::withLowered(4, {0, 1}));
}

// ---- EV pins on the annotated benchmarks ------------------------------
//
// CB, CM and DD walk paths that depend only on pass/fail verdicts, so
// the number of configurations they execute (EV) is an exact count,
// the same at HPCMIXP_QUICK sizes and at full sizes. GA follows
// measured speedups, so its EV is not a fixed count and is not pinned.
// Each A/B tunes two tuners whose options differ in one field.

namespace core = hpcmixp::core;

/** Options for an EV A/B: threshold 1e-6, one timing rep, no cap
 *  the searches could reach. */
core::TunerOptions
evOptions()
{
    core::TunerOptions options;
    options.threshold = 1e-6;
    options.searchReps = 1;
    options.finalReps = 3;
    options.budget = {500, 0.0};
    options.staticPrior = PriorMode::On;
    return options;
}

/** EV of one CB/CM/DD search, and whether its winner passes. */
struct EvRun {
    std::size_t ev = 0;
    bool winnerPasses = false;
};

/** Tune @p name with each of @p codes under @p options. */
std::vector<EvRun>
tuneEach(const std::string& name, const core::TunerOptions& options,
         const std::vector<std::string>& codes)
{
    auto benchmark =
        hpcmixp::benchmarks::BenchmarkRegistry::instance().create(name);
    core::BenchmarkTuner tuner(*benchmark, options);
    std::vector<EvRun> runs;
    for (const std::string& code : codes) {
        core::TuneOutcome outcome = tuner.tune(code);
        runs.push_back({outcome.search.evaluated,
                        outcome.finalQualityLoss <= options.threshold});
    }
    return runs;
}

std::string
paramName(const std::string& benchmark)
{
    std::string name = benchmark;
    for (char& c : name)
        if (c == '-')
            c = '_';
    return name;
}

/** Prior off -> on EV of CB and CM (equal on these benchmarks). */
struct PriorEvCase {
    std::string benchmark;
    std::size_t evOff;
    std::size_t evOn;
};

/** Names the case in test listings (the default prints raw bytes). */
void
PrintTo(const PriorEvCase& pin, std::ostream* os)
{
    *os << pin.benchmark << " " << pin.evOff << "->" << pin.evOn;
}

class StaticPriorEv : public ::testing::TestWithParam<PriorEvCase> {};

TEST_P(StaticPriorEv, PriorCutsCbAndCmEvAndLeavesDdAtOne)
{
    const PriorEvCase& pin = GetParam();
    const std::vector<std::string> codes{"CB", "CM", "DD"};
    core::TunerOptions offOptions = evOptions();
    offOptions.staticPrior = PriorMode::Off;
    std::vector<EvRun> off = tuneEach(pin.benchmark, offOptions, codes);
    std::vector<EvRun> on = tuneEach(pin.benchmark, evOptions(), codes);

    const std::vector<std::size_t> evOff{pin.evOff, pin.evOff, 1};
    const std::vector<std::size_t> evOn{pin.evOn, pin.evOn, 1};
    for (std::size_t i = 0; i < codes.size(); ++i) {
        SCOPED_TRACE(codes[i]);
        EXPECT_EQ(off[i].ev, evOff[i]);
        EXPECT_EQ(on[i].ev, evOn[i]);
        EXPECT_TRUE(off[i].winnerPasses);
        EXPECT_TRUE(on[i].winnerPasses);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AnnotatedBenchmarks, StaticPriorEv,
    ::testing::Values(PriorEvCase{"innerprod", 7, 3},
                      PriorEvCase{"hpccg", 127, 63},
                      PriorEvCase{"banded-lin-eq", 3, 1},
                      PriorEvCase{"gen-lin-recur", 3, 1},
                      PriorEvCase{"iccg", 3, 1},
                      PriorEvCase{"tridiag", 7, 3}),
    [](const ::testing::TestParamInfo<PriorEvCase>& info) {
        return paramName(info.param.benchmark);
    });

/** Heuristic -> certified EV of CB, CM and DD on one benchmark. */
struct CertifiedEvRow {
    std::string benchmark;
    std::vector<std::size_t> evHeuristic;
    std::vector<std::size_t> evCertified;
};

TEST(CertifiedCaps, FourRungEvFallsAtUnchangedAccuracy)
{
    // On the four-rung ladder the heuristic caps still admit the
    // 16-bit rungs, so the range-annotated benchmarks are where the
    // certificates have something to tighten.
    const std::vector<std::string> codes{"CB", "CM", "DD"};
    const std::vector<CertifiedEvRow> rows{
        {"innerprod", {15, 15, 7}, {3, 3, 1}},
        {"diff-predictor", {3, 3, 2}, {1, 1, 1}},
        {"eos", {15, 15, 1}, {15, 15, 1}},
        {"planckian", {3, 3, 1}, {3, 3, 1}},
        {"int-predict", {3, 3, 1}, {3, 3, 1}},
    };
    core::TunerOptions certified = evOptions();
    certified.ladder = hpcmixp::runtime::PrecisionLadder::parse(
        "double,float,half,bfloat16");
    core::TunerOptions heuristic = certified;
    heuristic.certifiedCaps = false;

    std::size_t totalHeuristic = 0;
    std::size_t totalCertified = 0;
    for (const CertifiedEvRow& row : rows) {
        std::vector<EvRun> heur = tuneEach(row.benchmark, heuristic, codes);
        std::vector<EvRun> cert = tuneEach(row.benchmark, certified, codes);
        for (std::size_t i = 0; i < codes.size(); ++i) {
            SCOPED_TRACE(row.benchmark + " " + codes[i]);
            EXPECT_EQ(heur[i].ev, row.evHeuristic[i]);
            EXPECT_EQ(cert[i].ev, row.evCertified[i]);
            EXPECT_LE(cert[i].ev, heur[i].ev);
            EXPECT_TRUE(heur[i].winnerPasses);
            EXPECT_TRUE(cert[i].winnerPasses);
            totalHeuristic += heur[i].ev;
            totalCertified += cert[i].ev;
        }
    }
    EXPECT_EQ(totalHeuristic, 90u);
    EXPECT_EQ(totalCertified, 55u);
}

TEST(StaticPriorDeathTest, SiteCountMismatchPanics)
{
    RecordingProblem problem = fourSiteProblem();
    SearchContext ctx(problem, SearchBudget{10000, 0.0});
    EXPECT_DEATH(ctx.setPrior(StaticPrior::withCaps(
                     PriorMode::On, {kFree}, {false}, {0})),
                 "site count");
}

} // namespace
