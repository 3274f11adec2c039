#include "harness/harness.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "benchmarks/registry.h"
#include "support/logging.h"
#include "support/string_util.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "verify/metrics.h"

namespace hpcmixp::harness {

using support::fatal;
using support::strCat;
using support::json::Value;

namespace {

/** Clauses of the Listing-4 schema we accept. */
bool
isKnownClause(const std::string& key)
{
    static const char* kKnown[] = {"build_dir", "build", "clean",
                                   "analysis",  "output", "metric",
                                   "bin",       "copy",   "args",
                                   "threshold"};
    for (const char* k : kKnown)
        if (key == k)
            return true;
    return false;
}

JobSpec
parseEntry(const std::string& benchmarkName,
           const support::yaml::Node& entry)
{
    if (!entry.isMapping())
        fatal(strCat("harness: entry '", benchmarkName,
                     "' must be a mapping"));
    if (!benchmarks::BenchmarkRegistry::instance().has(benchmarkName))
        fatal(strCat("harness: unknown benchmark '", benchmarkName,
                     "'"));
    for (const auto& key : entry.keys())
        if (!isKnownClause(key))
            fatal(strCat("harness: unknown clause '", key, "' in '",
                         benchmarkName, "'"));

    JobSpec spec;
    spec.benchmark = benchmarkName;
    spec.metric = entry.getString("metric", "");
    if (!spec.metric.empty() &&
        !verify::MetricRegistry::instance().has(spec.metric))
        fatal(strCat("harness: unknown metric '", spec.metric, "'"));
    spec.threshold = entry.getDouble("threshold", 1e-6);

    const auto* analysis = entry.find("analysis");
    if (!analysis || !analysis->isMapping() ||
        analysis->keys().empty())
        fatal(strCat("harness: '", benchmarkName,
                     "' is missing an analysis clause"));
    // The clause is keyed by an identifier; `name` selects the class.
    const std::string& id = analysis->keys().front();
    const auto& body = analysis->at(id);
    spec.analysis = body.getString("name", id);
    if (!AnalysisRegistry::instance().has(spec.analysis))
        fatal(strCat("harness: unknown analysis '", spec.analysis,
                     "'"));
    if (const auto* extra = body.find("extra_args");
        extra && extra->isMapping()) {
        for (const auto& key : extra->keys())
            spec.extraArgs[key] = extra->at(key).asString();
    }
    return spec;
}

/** The position-and-name key of version-1 checkpoint files. */
std::string
legacyJobKey(const JobSpec& spec, std::size_t index)
{
    return strCat(index, ":", spec.benchmark, "/",
                  support::toLower(spec.analysis));
}

/**
 * Identity of a job inside a checkpoint file: its position, every
 * configuration field that changes its answer (benchmark, analysis,
 * extra_args, metric, threshold) and the tuner's ladder identity. A
 * resume after editing any of them re-runs the job instead of
 * restoring a stale result.
 */
std::string
jobKey(const JobSpec& spec, std::size_t index, const std::string& ladder)
{
    std::string key = legacyJobKey(spec, index);
    for (const auto& [name, value] : spec.extraArgs)
        key += strCat(",", name, "=", value);
    char threshold[32];
    std::snprintf(threshold, sizeof(threshold), "%.17g", spec.threshold);
    return strCat(key, "|metric=", spec.metric, "|threshold=",
                  threshold, "|ladder=", ladder);
}

Value
analysisResultToJson(const AnalysisResult& r)
{
    Value v = Value::object();
    v.set("analysis", Value::string(r.analysis));
    v.set("detail", Value::string(r.detail));
    v.set("speedup", Value::number(r.speedup));
    v.set("quality_loss", Value::number(r.qualityLoss));
    v.set("evaluated", Value::number(static_cast<double>(r.evaluated)));
    v.set("compile_failures",
          Value::number(static_cast<double>(r.compileFailures)));
    v.set("cache_hits",
          Value::number(static_cast<double>(r.cacheHits)));
    v.set("memo_hits",
          Value::number(static_cast<double>(r.memoHits)));
    v.set("retries", Value::number(static_cast<double>(r.retries)));
    v.set("deadline_misses",
          Value::number(static_cast<double>(r.deadlineMisses)));
    v.set("quarantined",
          Value::number(static_cast<double>(r.quarantined)));
    v.set("timed_out", Value::boolean(r.timedOut));
    v.set("configuration", Value::string(r.configuration));
    v.set("child_forks",
          Value::number(static_cast<double>(r.childForks)));
    v.set("child_kills",
          Value::number(static_cast<double>(r.childKills)));
    v.set("child_nonzero_exits",
          Value::number(static_cast<double>(r.childNonZeroExits)));
    v.set("child_signaled",
          Value::number(static_cast<double>(r.childSignaled)));
    v.set("child_arena_corrupt",
          Value::number(static_cast<double>(r.childArenaCorrupt)));
    v.set("child_respawns",
          Value::number(static_cast<double>(r.childRespawns)));
    v.set("child_spawn_mean_seconds",
          Value::number(r.childSpawnMeanSeconds));
    return v;
}

AnalysisResult
analysisResultFromJson(const Value& v)
{
    auto count = [&](const char* key) -> std::size_t {
        return v.has(key) ? static_cast<std::size_t>(v.at(key).asLong())
                          : 0;
    };
    AnalysisResult r;
    r.analysis = v.at("analysis").asString();
    r.detail = v.at("detail").asString();
    r.speedup = v.at("speedup").asNumber();
    // NaN quality losses serialize as null (JSON has no NaN).
    r.qualityLoss = v.at("quality_loss").isNull()
                        ? std::numeric_limits<double>::quiet_NaN()
                        : v.at("quality_loss").asNumber();
    r.evaluated = count("evaluated");
    r.compileFailures = count("compile_failures");
    r.cacheHits = count("cache_hits");
    r.memoHits = count("memo_hits");
    r.retries = count("retries");
    r.deadlineMisses = count("deadline_misses");
    r.quarantined = count("quarantined");
    r.timedOut = v.at("timed_out").asBool();
    r.configuration = v.at("configuration").asString();
    // Sandbox fields are absent in pre-sandbox checkpoints; count()
    // already defaults them to zero.
    r.childForks = count("child_forks");
    r.childKills = count("child_kills");
    r.childNonZeroExits = count("child_nonzero_exits");
    r.childSignaled = count("child_signaled");
    r.childArenaCorrupt = count("child_arena_corrupt");
    r.childRespawns = count("child_respawns");
    r.childSpawnMeanSeconds =
        v.has("child_spawn_mean_seconds")
            ? v.at("child_spawn_mean_seconds").asNumber()
            : 0.0;
    return r;
}

/**
 * Mutex-protected completed-jobs record of one campaign. Every update
 * atomically rewrites the file (write to a temporary, then rename) so
 * a kill mid-write never corrupts it, and a failed write leaves the
 * previous file in place.
 */
class CheckpointWriter {
  public:
    explicit CheckpointWriter(std::string path)
        : path_(std::move(path))
    {
    }

    void
    completeJob(const std::string& key, const JobResult& job)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Value entry = Value::object();
        entry.set("benchmark", Value::string(job.spec.benchmark));
        entry.set("analysis", Value::string(job.spec.analysis));
        entry.set("result", analysisResultToJson(job.result));
        completed_[key] = std::move(entry);
        flushLocked();
    }

    void
    flush()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        flushLocked();
    }

  private:
    void
    flushLocked()
    {
        Value root = Value::object();
        root.set("version", Value::number(2));
        Value completed = Value::object();
        for (const auto& [key, entry] : completed_)
            completed.set(key, entry);
        root.set("completed", std::move(completed));

        std::string tmp = path_ + ".tmp";
        std::ofstream out(tmp);
        out << root.dump(2) << '\n';
        out.close();
        // A short write (ENOSPC, EFBIG) must not replace the last good
        // file with a truncated one that --resume cannot parse.
        if (!out) {
            support::warn(strCat("harness: cannot write checkpoint '",
                                 tmp, "'; keeping '", path_, "'"));
            std::remove(tmp.c_str());
            return;
        }
        if (std::rename(tmp.c_str(), path_.c_str()) != 0)
            support::warn(strCat("harness: cannot move checkpoint into '",
                                 path_, "'"));
    }

    std::string path_;
    std::mutex mutex_;
    std::map<std::string, Value> completed_;
};

/** Completed jobs of an interrupted campaign. */
struct ResumeState {
    std::map<std::string, AnalysisResult> completed;
    bool legacyKeys = false; ///< keyed by legacyJobKey (version 1)
};

ResumeState
loadResume(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal(strCat("harness: cannot open resume checkpoint '", path,
                     "'"));
    std::ostringstream text;
    text << in.rdbuf();
    Value root = support::json::parse(text.str());
    if (!root.isObject() || !root.has("completed"))
        fatal(strCat("harness: '", path,
                     "' is not a harness checkpoint"));

    ResumeState state;
    state.legacyKeys =
        !root.has("version") || root.at("version").asLong() < 2;
    const Value& completed = root.at("completed");
    for (const auto& key : completed.keys())
        state.completed[key] =
            analysisResultFromJson(completed.at(key).at("result"));
    // Version-1 files also carry per-job search caches; in-flight work
    // now resumes from the memo store instead.
    if (root.has("caches") && root.at("caches").isObject() &&
        !root.at("caches").keys().empty())
        support::warn(strCat("harness: ignoring the search caches in '",
                             path, "'; in-flight jobs re-run against "
                             "the campaign's memo store"));
    return state;
}

/** Delete the memo segments MemoStore writes into @p dir, and only
 *  those: a fresh campaign starts its companion store empty. */
void
clearMemoSegments(const std::string& dir)
{
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir, ec)) {
        std::string name = entry.path().filename().string();
        if (name.starts_with("memo-") && name.ends_with(".log"))
            std::filesystem::remove(entry.path(), ec);
    }
}

JobResult
runJob(const JobSpec& spec, const HarnessOptions& options)
{
    JobResult out;
    out.spec = spec;
    try {
        auto benchmark =
            benchmarks::BenchmarkRegistry::instance().create(
                spec.benchmark);
        core::TunerOptions tunerOptions = options.tuner;
        tunerOptions.threshold = spec.threshold;
        tunerOptions.metric = spec.metric;
        auto analysis =
            AnalysisRegistry::instance().create(spec.analysis);
        out.result =
            analysis->analyze(*benchmark, tunerOptions, spec.extraArgs);
    } catch (const std::exception& e) {
        out.error = e.what();
    } catch (...) {
        // A job must never tear down the pool or the other jobs,
        // whatever it throws.
        out.error = "job failed with a non-standard exception";
    }
    return out;
}

} // namespace

std::vector<JobSpec>
parseConfig(const support::yaml::Node& doc)
{
    if (!doc.isMapping())
        fatal("harness: configuration root must be a mapping");
    std::vector<JobSpec> jobs;
    for (const auto& key : doc.keys())
        jobs.push_back(parseEntry(key, doc.at(key)));
    if (jobs.empty())
        fatal("harness: configuration declares no benchmarks");
    return jobs;
}

std::vector<JobSpec>
parseConfigFile(const std::string& path)
{
    return parseConfig(support::yaml::parseFile(path));
}

std::vector<JobResult>
runJobs(const std::vector<JobSpec>& jobs, const HarnessOptions& opts)
{
    std::vector<JobResult> results(jobs.size());

    // Nested-parallelism guard: `jobs` analysis workers each running
    // `searchJobs` in-search evaluators would oversubscribe the
    // machine multiplicatively, so clamp the product to the hardware.
    HarnessOptions options = opts;
    std::size_t hw = std::thread::hardware_concurrency();
    if (hw > 0 && options.jobs > 1 && options.tuner.searchJobs > 1 &&
        options.jobs * options.tuner.searchJobs > hw) {
        std::size_t clamped =
            std::max<std::size_t>(1, hw / options.jobs);
        support::warn(strCat(
            "harness: ", options.jobs, " jobs x ",
            options.tuner.searchJobs, " search jobs oversubscribes ",
            hw, " hardware threads; clamping search jobs to ",
            clamped));
        options.tuner.searchJobs = clamped;
    }

    // One store for the whole campaign: jobs sharing a benchmark and
    // threshold share a table, everything else just shares the
    // directory. Without --memo-cache a checkpointed campaign keeps
    // its store next to the checkpoint file it resumes from (or else
    // writes): the store is how in-flight jobs resume.
    std::string memoDir = options.memoCacheDir;
    if (memoDir.empty() && !options.resumePath.empty()) {
        memoDir = options.resumePath + ".memo";
    } else if (memoDir.empty() && !options.checkpointPath.empty()) {
        memoDir = options.checkpointPath + ".memo";
        clearMemoSegments(memoDir);
    }
    if (!memoDir.empty())
        options.tuner.memoStore =
            std::make_shared<search::MemoStore>(memoDir);

    ResumeState resume;
    if (!options.resumePath.empty())
        resume = loadResume(options.resumePath);

    std::shared_ptr<CheckpointWriter> writer;
    if (!options.checkpointPath.empty()) {
        writer = std::make_shared<CheckpointWriter>(
            options.checkpointPath);
        // Write the (empty) record up front, so a campaign killed
        // before its first job completes can still be resumed. A file
        // being resumed keeps its records until the jobs re-record.
        if (options.checkpointPath != options.resumePath)
            writer->flush();
    }

    const std::string ladder = core::ladderIdentity(options.tuner);
    auto runOne = [&](std::size_t i) {
        const JobSpec& spec = jobs[i];
        std::string key = jobKey(spec, i, ladder);

        if (auto it = resume.completed.find(
                resume.legacyKeys ? legacyJobKey(spec, i) : key);
            it != resume.completed.end()) {
            results[i].spec = spec;
            results[i].result = it->second;
            results[i].restored = true;
            support::inform(strCat("harness: restored '", key,
                                   "' from checkpoint"));
            if (writer)
                writer->completeJob(key, results[i]);
            return;
        }

        results[i] = runJob(spec, options);
        // Failed jobs stay out of `completed` so a resumed campaign
        // retries them (against the same memo store).
        if (writer && results[i].error.empty())
            writer->completeJob(key, results[i]);
    };

    if (options.jobs <= 1) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            runOne(i);
        return results;
    }
    support::ThreadPool pool(options.jobs);
    std::vector<std::future<void>> futures;
    futures.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        futures.push_back(pool.submit([&runOne, i] { runOne(i); }));
    for (auto& f : futures)
        f.get();
    return results;
}

support::json::Value
resultsToJson(const std::vector<JobResult>& results)
{
    using support::json::Value;
    Value root = Value::array();
    for (const auto& r : results) {
        Value entry = Value::object();
        entry.set("benchmark", Value::string(r.spec.benchmark));
        entry.set("analysis", Value::string(r.spec.analysis));
        entry.set("threshold", Value::number(r.spec.threshold));
        if (!r.error.empty()) {
            entry.set("error", Value::string(r.error));
            root.push(std::move(entry));
            continue;
        }
        entry.set("algorithm", Value::string(r.result.detail));
        entry.set("speedup", Value::number(r.result.speedup));
        entry.set("quality_loss",
                  Value::number(r.result.qualityLoss));
        entry.set("evaluated_configurations",
                  Value::number(
                      static_cast<double>(r.result.evaluated)));
        entry.set("compile_failures",
                  Value::number(static_cast<double>(
                      r.result.compileFailures)));
        entry.set("cache_hits",
                  Value::number(
                      static_cast<double>(r.result.cacheHits)));
        entry.set("memo_hits",
                  Value::number(
                      static_cast<double>(r.result.memoHits)));
        entry.set("retries",
                  Value::number(
                      static_cast<double>(r.result.retries)));
        entry.set("deadline_misses",
                  Value::number(static_cast<double>(
                      r.result.deadlineMisses)));
        entry.set("quarantined",
                  Value::number(
                      static_cast<double>(r.result.quarantined)));
        entry.set("timed_out", Value::boolean(r.result.timedOut));
        entry.set("restored", Value::boolean(r.restored));
        entry.set("configuration",
                  Value::string(r.result.configuration));
        // Sandbox breakdown (--isolation=pool): quarantines by child
        // exit class plus the mean dispatch overhead per clean job.
        Value sandbox = Value::object();
        sandbox.set("forks",
                    Value::number(
                        static_cast<double>(r.result.childForks)));
        sandbox.set("kills",
                    Value::number(
                        static_cast<double>(r.result.childKills)));
        sandbox.set("nonzero_exits",
                    Value::number(static_cast<double>(
                        r.result.childNonZeroExits)));
        sandbox.set("signaled",
                    Value::number(
                        static_cast<double>(r.result.childSignaled)));
        sandbox.set("arena_corrupt",
                    Value::number(static_cast<double>(
                        r.result.childArenaCorrupt)));
        sandbox.set("respawns",
                    Value::number(static_cast<double>(
                        r.result.childRespawns)));
        sandbox.set("spawn_overhead_mean_seconds",
                    Value::number(r.result.childSpawnMeanSeconds));
        entry.set("sandbox", std::move(sandbox));
        root.push(std::move(entry));
    }
    return root;
}

void
printResults(std::ostream& os, const std::vector<JobResult>& results)
{
    support::Table table({"benchmark", "analysis", "algorithm",
                          "speedup", "quality", "EV", "cache", "memo",
                          "retries", "kills", "spawn_ms",
                          "status"});
    for (const auto& r : results) {
        if (!r.error.empty()) {
            table.addRow({r.spec.benchmark, r.spec.analysis, "-", "-",
                          "-", "-", "-", "-", "-", "-", "-",
                          strCat("error: ", r.error)});
            continue;
        }
        const char* status = r.result.timedOut ? "timeout"
                             : r.restored      ? "restored"
                                               : "ok";
        table.addRow({r.spec.benchmark, r.result.analysis,
                      r.result.detail,
                      support::Table::cell(r.result.speedup, 2),
                      support::Table::cellSci(r.result.qualityLoss),
                      support::Table::cell(
                          static_cast<long>(r.result.evaluated)),
                      support::Table::cell(
                          static_cast<long>(r.result.cacheHits)),
                      support::Table::cell(
                          static_cast<long>(r.result.memoHits)),
                      support::Table::cell(
                          static_cast<long>(r.result.retries)),
                      support::Table::cell(
                          static_cast<long>(r.result.childKills)),
                      support::Table::cell(
                          r.result.childSpawnMeanSeconds * 1e3, 2),
                      status});
    }
    table.print(os);
}

} // namespace hpcmixp::harness
