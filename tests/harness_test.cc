/**
 * @file
 * Tests for the YAML-driven harness: configuration parsing against the
 * Listing-4 schema, the analysis plugin registry, and job execution.
 */

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "harness/harness.h"
#include "search/memo_store.h"
#include "support/json.h"
#include "support/logging.h"

namespace {

using namespace hpcmixp;
using namespace hpcmixp::harness;
using hpcmixp::support::FatalError;

const char* kGoodConfig = R"(
kmeans:
  build_dir: 'kmeans'
  build: ['make']
  clean: ['make clean']
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'ddebug'
  output:
    option: '-o'
    name: 'outputFile.bin'
  metric: 'MCR'
  bin: 'kmeans'
  copy: ['kmeans', 'kdd_bin']
  args: '-i kdd_bin -k 5 -n 5'
tridiag:
  threshold: 1e-3
  analysis:
    ga:
      name: 'floatsmith'
      extra_args:
        algorithm: 'genetic'
)";

TEST(HarnessConfig, ParsesListing4Schema)
{
    auto jobs = parseConfig(support::yaml::parse(kGoodConfig));
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].benchmark, "kmeans");
    EXPECT_EQ(jobs[0].analysis, "floatSmith");
    EXPECT_EQ(jobs[0].metric, "MCR");
    EXPECT_EQ(jobs[0].extraArgs.at("algorithm"), "ddebug");
    EXPECT_DOUBLE_EQ(jobs[0].threshold, 1e-6); // default
    EXPECT_EQ(jobs[1].benchmark, "tridiag");
    EXPECT_DOUBLE_EQ(jobs[1].threshold, 1e-3);
    EXPECT_EQ(jobs[1].extraArgs.at("algorithm"), "genetic");
}

TEST(HarnessConfig, RejectsUnknownBenchmark)
{
    EXPECT_THROW(parseConfig(support::yaml::parse(
                     "nosuch:\n  analysis:\n    a:\n      name: 'x'\n")),
                 FatalError);
}

TEST(HarnessConfig, RejectsUnknownClause)
{
    EXPECT_THROW(
        parseConfig(support::yaml::parse(
            "tridiag:\n  bogus: 1\n  analysis:\n    a:\n"
            "      name: 'floatsmith'\n")),
        FatalError);
}

TEST(HarnessConfig, RejectsMissingAnalysis)
{
    EXPECT_THROW(parseConfig(support::yaml::parse(
                     "tridiag:\n  metric: 'MAE'\n")),
                 FatalError);
}

TEST(HarnessConfig, RejectsUnknownMetricAndAnalysis)
{
    EXPECT_THROW(parseConfig(support::yaml::parse(
                     "tridiag:\n  metric: 'BOGUS'\n  analysis:\n"
                     "    a:\n      name: 'floatsmith'\n")),
                 FatalError);
    EXPECT_THROW(parseConfig(support::yaml::parse(
                     "tridiag:\n  analysis:\n    a:\n"
                     "      name: 'nosuch'\n")),
                 FatalError);
}

TEST(HarnessConfig, RejectsEmptyDocument)
{
    EXPECT_THROW(parseConfig(support::yaml::parse("")), FatalError);
}

TEST(AnalysisRegistryTest, BuiltinsPresent)
{
    auto& reg = AnalysisRegistry::instance();
    EXPECT_TRUE(reg.has("floatsmith"));
    EXPECT_TRUE(reg.has("FloatSmith")); // case-insensitive
    EXPECT_TRUE(reg.has("singleprecision"));
    EXPECT_THROW(reg.create("nosuch"), FatalError);
}

TEST(AnalysisRegistryTest, AlgorithmSpellings)
{
    EXPECT_EQ(FloatsmithAnalysis::algorithmCode("ddebug"), "DD");
    EXPECT_EQ(FloatsmithAnalysis::algorithmCode("DD"), "DD");
    EXPECT_EQ(FloatsmithAnalysis::algorithmCode("genetic"), "GA");
    EXPECT_EQ(FloatsmithAnalysis::algorithmCode("combinational"),
              "CB");
    EXPECT_EQ(FloatsmithAnalysis::algorithmCode("compositional"),
              "CM");
    EXPECT_EQ(FloatsmithAnalysis::algorithmCode("hierarchical"), "HR");
    EXPECT_EQ(FloatsmithAnalysis::algorithmCode(
                  "hierarchical-compositional"),
              "HC");
    EXPECT_THROW(FloatsmithAnalysis::algorithmCode("bogus"),
                 FatalError);
}

TEST(HarnessRun, ExecutesJobsAndPrintsResults)
{
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    fs:\n"
        "      name: 'floatsmith'\n      extra_args:\n"
        "        algorithm: 'ddebug'\n"
        "iccg:\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {100, 0.0};
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 2u);
    for (const auto& r : results) {
        EXPECT_TRUE(r.error.empty()) << r.error;
        EXPECT_GT(r.result.speedup, 0.0);
    }
    EXPECT_EQ(results[0].result.detail, "DD");
    EXPECT_EQ(results[1].result.analysis, "singleprecision");
    EXPECT_EQ(results[1].result.evaluated, 1u);

    std::ostringstream os;
    printResults(os, results);
    EXPECT_NE(os.str().find("tridiag"), std::string::npos);
    EXPECT_NE(os.str().find("singleprecision"), std::string::npos);
}

/** One floatsmith search job on @p benchmark at threshold 1e-3. */
JobSpec
floatsmithJob(const std::string& benchmark, const std::string& algorithm)
{
    return parseConfig(support::yaml::parse(
        benchmark + ":\n  threshold: 1e-3\n  analysis:\n    fs:\n"
                    "      name: 'floatsmith'\n      extra_args:\n"
                    "        algorithm: '" +
        algorithm + "'\n"))[0];
}

TEST(HarnessRun, ParallelJobsProduceSameStructure)
{
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    a:\n"
        "      name: 'singleprecision'\n"
        "iccg:\n  threshold: 1e-3\n  analysis:\n    b:\n"
        "      name: 'singleprecision'\n"));
    jobs.push_back(floatsmithJob("tridiag", "ddebug"));
    jobs.push_back(floatsmithJob("tridiag", "genetic"));
    jobs.push_back(floatsmithJob("iccg", "combinational"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {150, 0.0};
    auto serial = runJobs(jobs, options);
    options.jobs = 2;
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), jobs.size());
    ASSERT_EQ(serial.size(), jobs.size());
    EXPECT_EQ(results[0].spec.benchmark, "tridiag");
    EXPECT_EQ(results[1].spec.benchmark, "iccg");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        for (const auto* r : {&serial[i], &results[i]}) {
            ASSERT_TRUE(r->error.empty()) << r->error;
            EXPECT_EQ(r->spec.benchmark, jobs[i].benchmark);
        }
        // Timing differs under contention, but both schedules run
        // the same strategy over the same cluster space, and every
        // search winner stays within its threshold.
        EXPECT_EQ(results[i].result.detail, serial[i].result.detail);
        EXPECT_FALSE(results[i].result.configuration.empty()) << i;
        EXPECT_EQ(results[i].result.configuration.size(),
                  serial[i].result.configuration.size());
        if (jobs[i].analysis == "floatsmith") {
            EXPECT_LE(serial[i].result.qualityLoss, 1e-3) << i;
            EXPECT_LE(results[i].result.qualityLoss, 1e-3) << i;
        }
    }
    EXPECT_EQ(results[2].result.detail, "DD");
    EXPECT_EQ(results[3].result.detail, "GA");
    EXPECT_EQ(results[4].result.detail, "CB");
}

TEST(HarnessRun, GaParametersFlowFromExtraArgs)
{
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    ga:\n"
        "      name: 'floatsmith'\n      extra_args:\n"
        "        algorithm: 'genetic'\n        population: '4'\n"
        "        generations: '2'\n        seed: '7'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].error.empty()) << results[0].error;
    // population 4 x generations 2 caps the evaluations.
    EXPECT_LE(results[0].result.evaluated, 8u);
}

TEST(HarnessRun, GaSeedZeroIsAValidSeed)
{
    auto gaJob = [](const std::string& seed) {
        return parseConfig(support::yaml::parse(
            "tridiag:\n  threshold: 1e-3\n  analysis:\n    ga:\n"
            "      name: 'floatsmith'\n      extra_args:\n"
            "        algorithm: 'genetic'\n        population: '4'\n"
            "        generations: '2'\n        seed: '" +
            seed + "'\n"));
    };
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    auto results = runJobs(gaJob("0"), options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].error.empty()) << results[0].error;
    EXPECT_LE(results[0].result.evaluated, 8u);

    auto negative = runJobs(gaJob("-1"), options);
    ASSERT_EQ(negative.size(), 1u);
    EXPECT_NE(negative[0].error.find("non-negative"), std::string::npos)
        << negative[0].error;
}

TEST(HarnessRun, BadGaParameterIsReportedAsJobError)
{
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  analysis:\n    ga:\n"
        "      name: 'floatsmith'\n      extra_args:\n"
        "        algorithm: 'genetic'\n        population: '-3'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].error.empty());
}

TEST(HarnessRun, JsonReportContainsEveryJob)
{
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    auto results = runJobs(jobs, options);
    auto json = resultsToJson(results);
    ASSERT_EQ(json.items().size(), 1u);
    const auto& entry = json.items()[0];
    EXPECT_EQ(entry.at("benchmark").asString(), "tridiag");
    EXPECT_EQ(entry.at("algorithm").asString(), "all-binary32");
    EXPECT_FALSE(entry.has("error"));
    // The dump parses back (interchange round trip).
    auto reparsed = support::json::parse(json.dump(2));
    EXPECT_EQ(reparsed.items().size(), 1u);
}


/** Analysis that throws something that is not a std::exception. */
class ThrowIntAnalysis : public Analysis {
  public:
    std::string name() const override { return "throwint"; }
    AnalysisResult
    analyze(const benchmarks::Benchmark&, const core::TunerOptions&,
            const ExtraArgs&) override
    {
        throw 42;
    }
};

TEST(HarnessRun, NonStandardExceptionIsContainedInJobError)
{
    if (!AnalysisRegistry::instance().has("throwint"))
        AnalysisRegistry::instance().add("throwint", [] {
            return std::make_unique<ThrowIntAnalysis>();
        });
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    boom:\n"
        "      name: 'throwint'\n"
        "iccg:\n  threshold: 1e-3\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.jobs = 2; // the pool must survive the rogue job
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].error,
              "job failed with a non-standard exception");
    EXPECT_TRUE(results[1].error.empty()) << results[1].error;
    EXPECT_GT(results[1].result.speedup, 0.0);
}

/** Unique scratch path under gtest's temporary directory. */
std::string
scratchFile(const char* name)
{
    std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

const char* kTwoSinglePrecisionJobs =
    "tridiag:\n  threshold: 1e-3\n  analysis:\n    sp:\n"
    "      name: 'singleprecision'\n"
    "iccg:\n  threshold: 1e-3\n  analysis:\n    sp:\n"
    "      name: 'singleprecision'\n";

TEST(HarnessCheckpoint, CampaignCheckpointRestoresCompletedJobs)
{
    auto jobs =
        parseConfig(support::yaml::parse(kTwoSinglePrecisionJobs));
    std::string path = scratchFile("hpcmixp_campaign.ckpt.json");

    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.checkpointPath = path;
    auto first = runJobs(jobs, options);
    ASSERT_EQ(first.size(), 2u);
    for (const auto& r : first) {
        EXPECT_TRUE(r.error.empty()) << r.error;
        EXPECT_FALSE(r.restored);
    }

    // The checkpoint file records both completed jobs.
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    auto doc = support::json::parse(text.str());
    EXPECT_EQ(doc.at("completed").keys().size(), 2u);
    EXPECT_FALSE(doc.has("caches"));

    // Resuming re-runs nothing and reproduces the results table.
    HarnessOptions resumeOptions = options;
    resumeOptions.resumePath = path;
    auto second = runJobs(jobs, resumeOptions);
    ASSERT_EQ(second.size(), 2u);
    for (std::size_t i = 0; i < second.size(); ++i) {
        EXPECT_TRUE(second[i].restored);
        EXPECT_DOUBLE_EQ(second[i].result.speedup,
                         first[i].result.speedup);
        EXPECT_EQ(second[i].result.configuration,
                  first[i].result.configuration);
    }
    std::filesystem::remove_all(path + ".memo");
    std::remove(path.c_str());
}

TEST(HarnessCheckpoint, PartialResumeRunsOnlyUnfinishedJobs)
{
    std::string path = scratchFile("hpcmixp_partial.ckpt.json");
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.checkpointPath = path;

    // Phase 1: a campaign that only got through its first job.
    auto shortJobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n"));
    auto first = runJobs(shortJobs, options);
    ASSERT_EQ(first.size(), 1u);
    ASSERT_TRUE(first[0].error.empty()) << first[0].error;

    // Phase 2: the full campaign resumes; job 0 is restored, the
    // newly added job runs fresh.
    auto fullJobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n"
        "iccg:\n  threshold: 1e-3\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n"));
    HarnessOptions resumeOptions = options;
    resumeOptions.resumePath = path;
    auto second = runJobs(fullJobs, resumeOptions);
    ASSERT_EQ(second.size(), 2u);
    EXPECT_TRUE(second[0].restored);
    EXPECT_DOUBLE_EQ(second[0].result.speedup,
                     first[0].result.speedup);
    EXPECT_FALSE(second[1].restored);
    EXPECT_TRUE(second[1].error.empty()) << second[1].error;
    std::filesystem::remove_all(path + ".memo");
    std::remove(path.c_str());
}

/** A DD job whose search runs several evaluations (EV 5). */
const char* kEosDeltaDebug =
    "eos:\n  threshold: 1e-10\n  analysis:\n    fs:\n"
    "      name: 'floatsmith'\n      extra_args:\n"
    "        algorithm: 'ddebug'\n";

HarnessOptions
quickOptions(std::size_t budget = 1000)
{
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {budget, 0.0};
    return options;
}

TEST(HarnessCheckpoint, PartialSearchCacheResumesWithMemoHits)
{
    // The state a campaign killed while searching eos leaves behind:
    // a checkpoint with no completed jobs — written when the campaign
    // starts; a job that fails records nothing either, so one stands
    // in for the kill here — and a companion memo store holding the
    // first evaluations of its DD search (cut here by budget).
    std::string path = scratchFile("hpcmixp_cache.ckpt.json");
    HarnessOptions failing = quickOptions();
    failing.checkpointPath = path;
    auto failed = runJobs(
        parseConfig(support::yaml::parse(
            "eos:\n  analysis:\n    ga:\n"
            "      name: 'floatsmith'\n      extra_args:\n"
            "        algorithm: 'genetic'\n"
            "        population: '-3'\n")),
        failing);
    ASSERT_FALSE(failed[0].error.empty());
    ASSERT_TRUE(std::filesystem::exists(path));
    {
        auto benchmark =
            benchmarks::BenchmarkRegistry::instance().create("eos");
        core::TunerOptions tunerOptions = quickOptions(3).tuner;
        tunerOptions.threshold = 1e-10;
        tunerOptions.memoStore =
            std::make_shared<search::MemoStore>(path + ".memo");
        core::BenchmarkTuner tuner(*benchmark, tunerOptions);
        auto interrupted = tuner.tune("DD");
        ASSERT_TRUE(interrupted.search.timedOut);
        ASSERT_EQ(interrupted.search.evaluated, 3u);
    }

    auto jobs = parseConfig(support::yaml::parse(kEosDeltaDebug));
    HarnessOptions options = quickOptions();
    options.resumePath = path;
    options.checkpointPath = path;
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].error.empty()) << results[0].error;
    EXPECT_FALSE(results[0].restored); // resumed, not restored whole
    EXPECT_EQ(results[0].result.memoHits, 3u);

    // Against the same job run uninterrupted, the resumed run split
    // the EV between memo hits and executions.
    auto reference = runJobs(jobs, quickOptions());
    ASSERT_TRUE(reference[0].error.empty()) << reference[0].error;
    EXPECT_EQ(results[0].result.evaluated + results[0].result.memoHits,
              reference[0].result.evaluated);
    EXPECT_EQ(results[0].result.cacheHits,
              reference[0].result.cacheHits);
    std::filesystem::remove_all(path + ".memo");
    std::remove(path.c_str());
}

TEST(HarnessCheckpoint, ResumeAfterThresholdChangeReRunsTheJob)
{
    std::string path = scratchFile("hpcmixp_edited.ckpt.json");
    HarnessOptions options = quickOptions();
    options.checkpointPath = path;
    auto first = runJobs(
        parseConfig(support::yaml::parse(kTwoSinglePrecisionJobs)),
        options);
    for (const auto& r : first)
        ASSERT_TRUE(r.error.empty()) << r.error;

    // tridiag's threshold was edited between the runs: its recorded
    // result answers another question and must not be restored.
    auto edited = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-4\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n"
        "iccg:\n  threshold: 1e-3\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n"));
    HarnessOptions resumeOptions = options;
    resumeOptions.resumePath = path;
    auto second = runJobs(edited, resumeOptions);
    ASSERT_EQ(second.size(), 2u);
    EXPECT_FALSE(second[0].restored);
    EXPECT_TRUE(second[0].error.empty()) << second[0].error;
    EXPECT_TRUE(second[1].restored);
    std::filesystem::remove_all(path + ".memo");
    std::remove(path.c_str());
}

TEST(HarnessCheckpoint, FailedWriteKeepsThePreviousFile)
{
    auto jobs =
        parseConfig(support::yaml::parse(kTwoSinglePrecisionJobs));
    std::string path = scratchFile("hpcmixp_efbig.ckpt.json");
    HarnessOptions options = quickOptions();
    options.checkpointPath = path;
    for (const auto& r : runJobs(jobs, options))
        ASSERT_TRUE(r.error.empty()) << r.error;
    const auto goodSize = std::filesystem::file_size(path);
    HarnessOptions resumeOptions = options;
    resumeOptions.resumePath = path;

    // A resumed campaign rewrites the file as it restores each job.
    // With the file-size limit far below one record, every rewrite
    // fails (EFBIG) and must leave the previous file alone.
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        int code = 2;
        try {
            ::signal(SIGXFSZ, SIG_IGN);
            struct rlimit limit = {64, 64};
            if (::setrlimit(RLIMIT_FSIZE, &limit) == 0) {
                auto results = runJobs(jobs, resumeOptions);
                code = results.size() == 2 && results[0].restored &&
                               results[1].restored
                           ? 0
                           : 1;
            }
        } catch (...) {
        }
        ::_exit(code);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    EXPECT_EQ(std::filesystem::file_size(path), goodSize);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    auto restored = runJobs(jobs, resumeOptions);
    ASSERT_EQ(restored.size(), 2u);
    EXPECT_TRUE(restored[0].restored);
    EXPECT_TRUE(restored[1].restored);
    std::filesystem::remove_all(path + ".memo");
    std::remove(path.c_str());
}

TEST(HarnessCheckpoint, CheckpointedCampaignCountsMatchPlainRun)
{
    // No two jobs share a memo table (YAML keys are benchmark names),
    // so an uninterrupted campaign with a checkpoint counts exactly
    // what a plain run counts. DD's trajectory depends only on
    // pass/fail, so these counts are deterministic.
    auto jobs = parseConfig(support::yaml::parse(
        std::string(kEosDeltaDebug) +
        "tridiag:\n  threshold: 1e-13\n  analysis:\n    fs:\n"
        "      name: 'floatsmith'\n      extra_args:\n"
        "        algorithm: 'ddebug'\n"));
    auto reference = runJobs(jobs, quickOptions(100));

    std::string path = scratchFile("hpcmixp_counts.ckpt.json");
    std::string companion = path + ".memo";
    HarnessOptions options = quickOptions(100);
    options.checkpointPath = path;
    auto first = runJobs(jobs, options);
    // A run without --resume starts the companion store empty again,
    // deleting only the segments it writes.
    {
        std::ofstream note(companion + "/notes.txt");
        note << "not a memo segment\n";
    }
    auto again = runJobs(jobs, options);
    ASSERT_EQ(first.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        ASSERT_TRUE(reference[i].error.empty()) << reference[i].error;
        for (const auto* run : {&first[i], &again[i]}) {
            ASSERT_TRUE(run->error.empty()) << run->error;
            EXPECT_EQ(run->result.evaluated,
                      reference[i].result.evaluated);
            EXPECT_EQ(run->result.cacheHits,
                      reference[i].result.cacheHits);
            EXPECT_EQ(run->result.memoHits, 0u);
        }
    }
    EXPECT_TRUE(std::filesystem::exists(companion + "/notes.txt"));
    std::filesystem::remove_all(companion);
    std::remove(path.c_str());
}

TEST(HarnessCheckpoint, LegacyCheckpointRestoresCompletedJobs)
{
    // Produce one completed-job record, then restate it the way
    // version-1 files did: keyed by position and name, next to the
    // search cache of a job that was still in flight.
    std::string path = scratchFile("hpcmixp_legacy.ckpt.json");
    HarnessOptions options = quickOptions();
    options.checkpointPath = path;
    auto jobs =
        parseConfig(support::yaml::parse(kTwoSinglePrecisionJobs));
    auto first = runJobs({jobs[0]}, options);
    ASSERT_TRUE(first[0].error.empty()) << first[0].error;

    using support::json::Value;
    Value current;
    {
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();
        current = support::json::parse(text.str());
    }
    const Value& completed = current.at("completed");
    ASSERT_EQ(completed.keys().size(), 1u);
    Value legacy = Value::object();
    legacy.set("version", Value::number(1));
    Value legacyCompleted = Value::object();
    legacyCompleted.set("0:tridiag/singleprecision",
                        completed.at(completed.keys().front()));
    legacy.set("completed", std::move(legacyCompleted));
    Value cache = Value::object();
    cache.set("sites", Value::number(1));
    cache.set("evaluations", Value::array());
    Value caches = Value::object();
    caches.set("1:iccg/singleprecision", std::move(cache));
    legacy.set("caches", std::move(caches));
    {
        std::ofstream out(path);
        out << legacy.dump(2) << '\n';
    }

    HarnessOptions resumeOptions = options;
    resumeOptions.resumePath = path;
    auto second = runJobs(jobs, resumeOptions);
    ASSERT_EQ(second.size(), 2u);
    EXPECT_TRUE(second[0].restored);
    EXPECT_DOUBLE_EQ(second[0].result.speedup, first[0].result.speedup);
    EXPECT_FALSE(second[1].restored);
    EXPECT_TRUE(second[1].error.empty()) << second[1].error;
    std::filesystem::remove_all(path + ".memo");
    std::remove(path.c_str());
}

TEST(HarnessMemo, WarmCampaignRerunExecutesNothing)
{
    std::string dir = ::testing::TempDir() + "harness_memo_store";
    std::filesystem::remove_all(dir);

    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    fs:\n"
        "      name: 'floatsmith'\n      extra_args:\n"
        "        algorithm: 'ddebug'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {100, 0.0};
    options.memoCacheDir = dir;

    auto cold = runJobs(jobs, options);
    ASSERT_EQ(cold.size(), 1u);
    ASSERT_TRUE(cold[0].error.empty()) << cold[0].error;
    EXPECT_GT(cold[0].result.evaluated, 0u);
    EXPECT_EQ(cold[0].result.memoHits, 0u);

    // Same campaign, new process (new store handle over the same
    // directory): every search query is a cross-run memo hit.
    auto warm = runJobs(jobs, options);
    ASSERT_TRUE(warm[0].error.empty()) << warm[0].error;
    EXPECT_EQ(warm[0].result.evaluated, 0u);
    EXPECT_EQ(warm[0].result.memoHits, cold[0].result.evaluated);
    EXPECT_EQ(warm[0].result.configuration,
              cold[0].result.configuration);

    // The two hit kinds land in separate table columns and JSON keys.
    std::ostringstream os;
    printResults(os, warm);
    EXPECT_NE(os.str().find("memo"), std::string::npos);
    auto json = resultsToJson(warm);
    ASSERT_EQ(json.items().size(), 1u);
    const auto& entry = json.items()[0];
    EXPECT_EQ(entry.at("memo_hits").asLong(),
              static_cast<long>(warm[0].result.memoHits));
    EXPECT_TRUE(entry.has("cache_hits"));
    std::filesystem::remove_all(dir);
}

TEST(HarnessMemo, WarmPrecimoniousRerunExecutesNothing)
{
    std::string dir = ::testing::TempDir() + "harness_memo_precimonious";
    std::filesystem::remove_all(dir);

    auto jobs = parseConfig(support::yaml::parse(
        "eos:\n  threshold: 1e-8\n  analysis:\n    prec:\n"
        "      name: 'precimonious'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {200, 0.0};
    options.memoCacheDir = dir;

    auto cold = runJobs(jobs, options);
    ASSERT_EQ(cold.size(), 1u);
    ASSERT_TRUE(cold[0].error.empty()) << cold[0].error;
    EXPECT_GT(cold[0].result.evaluated, 0u);
    EXPECT_EQ(cold[0].result.memoHits, 0u);

    auto warm = runJobs(jobs, options);
    ASSERT_TRUE(warm[0].error.empty()) << warm[0].error;
    EXPECT_EQ(warm[0].result.evaluated, 0u);
    EXPECT_EQ(warm[0].result.memoHits, cold[0].result.evaluated);
    EXPECT_EQ(warm[0].result.compileFailures,
              cold[0].result.compileFailures);
    std::filesystem::remove_all(dir);
}

TEST(HarnessPortfolio, OverrideRacesStrategiesPerBenchmark)
{
    std::string dir = ::testing::TempDir() + "harness_portfolio_store";
    std::filesystem::remove_all(dir);

    // A benchmark's analysis clause selects the racing portfolio of
    // every strategy; the memo store dedups the entrants against each
    // other and keeps what they ran.
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    pf:\n"
        "      name: 'portfolio'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {100, 0.0};
    options.memoCacheDir = dir;
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].error.empty()) << results[0].error;
    EXPECT_EQ(results[0].result.analysis, "portfolio");
    EXPECT_NE(results[0].result.detail.find("winner:"),
              std::string::npos);
    EXPECT_GT(results[0].result.evaluated, 0u);
    std::size_t logs = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        logs += entry.path().filename().string().rfind("memo-", 0) == 0;
    EXPECT_GT(logs, 0u) << "the entrants published nothing to the store";
    std::filesystem::remove_all(dir);
}

TEST(HarnessPortfolio, AnalysisIsDirectlyConfigurable)
{
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    pf:\n"
        "      name: 'portfolio'\n      extra_args:\n"
        "        strategies: 'ddebug,genetic'\n"
        "        mode: 'race'\n"
        "        workers: '2'\n"));
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].analysis, "portfolio");
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {100, 0.0};
    auto results = runJobs(jobs, options);
    ASSERT_TRUE(results[0].error.empty()) << results[0].error;
    EXPECT_EQ(results[0].result.analysis, "portfolio");
}

TEST(HarnessRun, PrecimoniousAnalysisReportsCompileFailures)
{
    auto jobs = parseConfig(support::yaml::parse(
        "lavamd:\n  threshold: 1e-8\n  analysis:\n    prec:\n"
        "      name: 'precimonious'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {200, 0.0};
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].error.empty()) << results[0].error;
    EXPECT_EQ(results[0].result.analysis, "precimonious");
    // Cluster-blind DD must waste attempts on invalid configurations.
    EXPECT_GT(results[0].result.compileFailures, 0u);
}

} // namespace
