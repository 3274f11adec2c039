/**
 * @file
 * The repository benchmark: timed tuning campaigns driven through the
 * public core::BenchmarkTuner API.
 *
 *   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
 *                  --memo-dir DIR
 *
 * A *round* is one self-contained campaign over the workload's
 * benchmarks: set-up (benchmark inputs, tuner construction with its
 * clustering and baseline, pool pre-fork, memo open) followed by every
 * tune call. Each round tunes under its own seed drawn from N. Rounds
 * repeat until S seconds have passed (at least kMinRounds); each job's
 * numbers are reduced to their median over rounds before they are
 * summed into the end-to-end metrics.
 * After each round every winner is re-run from scratch and verified
 * against a fresh all-double reference by a separate comparator; a
 * job that threw or whose winner fails that check counts as failed.
 *
 * With --trace 1, untraced and traced rounds alternate. A traced round
 * reproduces tune() from its public parts — a timing SearchProblem
 * decorator driven by search::runSearch, then finalMeasure. The
 * portfolio cannot be decorated from outside, so its passes stay real
 * tunePortfolio calls and one extra decorated cold race per benchmark
 * (search::runPortfolio, outside campaign time) stands in for them in
 * the search-layer metrics. Afterwards every executed configuration is
 * replayed through Benchmark::prepare/execute and
 * OutputComparator::verify, so each layer is timed only around calls
 * into its own public functions. Per-layer values are medians over the
 * traced rounds; trace.overhead_frac compares the two kinds of round.
 *
 * Prints one JSON object on the last line of stdout.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "benchmarks/registry.h"
#include "core/tuner.h"
#include "search/genetic.h"
#include "search/portfolio.h"
#include "search/strategy.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/timer.h"
#include "typeforge/clustering.h"
#include "verify/comparator.h"

// The package never enables a sanitizer; this catches one slipped in
// through CXXFLAGS, whose timings must not be reported.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CAMPAIGN_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CAMPAIGN_BENCH_SANITIZED 1
#endif
#endif

namespace {

using namespace hpcmixp;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kPortfolioWorkers = 4;
constexpr std::size_t kPoolWorkers = 4;

/** One tuning workload: what a round runs. */
struct Workload {
    std::string name;
    std::vector<std::string> benchmarks;
    std::vector<std::string> strategies; ///< empty: portfolio of all
    std::string ladder;
    double threshold = 1e-6;
    bool refine = false;
    search::PriorMode prior = search::PriorMode::Off;
    std::size_t searchJobs = 1;
    std::size_t budget = 2000; ///< max evaluated configs per search
    bool portfolio = false;    ///< pool + memo, cold then warm pass
};

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> all = {
        {"apps-search",
         {"srad", "cfd", "hotspot", "hpccg", "blackscholes"},
         {"CB", "CM", "DD", "HC"},
         "double,float",
         1e-8,
         false,
         search::PriorMode::Off,
         1,
         8,
         false},
        {"kernels-ladder-jobs4",
         {"eos", "hydro-1d", "tridiag", "banded-lin-eq", "diff-predictor",
          "innerprod"},
         {"CB", "CM", "GA", "HC"},
         "double,float,half,bfloat16",
         1e-6,
         true,
         search::PriorMode::On,
         4,
         2000,
         false},
        {"portfolio-memo-pool",
         {"kmeans", "hotspot", "hpccg", "iccg"},
         {},
         "double,float",
         1e-6,
         false,
         search::PriorMode::Off,
         1,
         2000,
         true},
    };
    return all;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Length of the union of [start, end) intervals. */
double
unionSeconds(std::vector<std::pair<Clock::time_point, Clock::time_point>>
                 spans)
{
    std::sort(spans.begin(), spans.end());
    double total = 0.0;
    Clock::time_point coveredTo{};
    for (const auto& [start, end] : spans) {
        Clock::time_point from = std::max(start, coveredTo);
        if (end > from)
            total += std::chrono::duration<double>(end - from).count();
        coveredTo = std::max(coveredTo, end);
    }
    return total;
}

/**
 * Timing decorator over the tuner's cluster- or variable-level
 * problem. Records one span per evaluate() call and every
 * configuration that actually ran, for the replay. Thread-safe: under
 * searchJobs > 1 and in a portfolio it is called concurrently.
 */
class TimedProblem final : public search::SearchProblem {
  public:
    using Span = std::pair<Clock::time_point, Clock::time_point>;

    explicit TimedProblem(search::SearchProblem& inner) : inner_(inner) {}

    std::size_t siteCount() const override { return inner_.siteCount(); }
    std::size_t maxLevel() const override { return inner_.maxLevel(); }
    const search::StructureNode* structure() const override
    {
        return inner_.structure();
    }

    search::Evaluation
    evaluate(const search::Config& config) override
    {
        Clock::time_point start = Clock::now();
        search::Evaluation eval = inner_.evaluate(config);
        Clock::time_point end = Clock::now();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.emplace_back(start, end);
        if (eval.status != search::EvalStatus::CompileFail)
            executed_.push_back(config);
        if (eval.passed())
            ++passes_;
        return eval;
    }

    std::size_t spanCount() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

    /** Spans recorded since spanCount() returned @p from. */
    std::vector<Span> spansSince(std::size_t from) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return {spans_.begin() + static_cast<std::ptrdiff_t>(from),
                spans_.end()};
    }

    const std::vector<search::Config>& executed() const
    {
        return executed_;
    }
    std::size_t passes() const { return passes_; }

  private:
    search::SearchProblem& inner_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::vector<search::Config> executed_;
    std::size_t passes_ = 0;
};

/** Per-layer sums of one traced round (see NOTES.md for the map). */
struct Layers {
    double executeSeconds = 0.0;
    double executeCalls = 0.0;
    double prepareSeconds = 0.0;
    double convertSeconds = 0.0;
    double verifySeconds = 0.0;
    double verifyBytes = 0.0;
    double evaluateSeconds = 0.0;
    double evaluateCalls = 0.0;
    double finalMeasureSeconds = 0.0;
    double dispatches = 0.0;
    double dispatchOverheadSeconds = 0.0; ///< Σ mean × dispatches
    double respawns = 0.0;
    double searchWallSeconds = 0.0;      ///< decorated searches
    double campaignSearchSeconds = 0.0;  ///< search/race wall in campaign_s
    double evaluateUnionSeconds = 0.0;
    double busyCapacitySeconds = 0.0; ///< Σ search wall × threads
    double cacheHits = 0.0;
    double compileFailures = 0.0;
    double steals = 0.0;
    double passes = 0.0;
    double evaluated = 0.0;
    double raceSeconds = 0.0;
    double memoOpenSeconds = 0.0;
    double memoLogBytes = 0.0;
    double warmMemoHits = 0.0;
    double warmLookups = 0.0;
    double analyzeSeconds = 0.0;
    double priorSeconds = 0.0;
};

/** One tune call and the independent re-check of its winner. */
struct Job {
    std::string benchmark;
    std::string strategy;
    std::size_t evaluated = 0; ///< the paper's EV
    std::size_t subject = 0;   ///< index into the round's benchmarks
    double wallSeconds = 0.0;  ///< the tune call, set-up excluded
    double searchSeconds = 0.0;
    double speedup = 1.0;
    bool threw = false;
    bool recheckPassed = false;
    double recheckLoss = 0.0;
    search::Config config;     ///< the winner, at cluster granularity
};

struct Round {
    std::uint64_t seed = 0;           ///< TunerOptions::seed of the round
    std::vector<double> setupSeconds; ///< per benchmark
    double campaignSeconds = 0.0;     ///< Σ job wall
    bool traced = false;
    std::vector<Job> jobs;
    Layers layers;
};

/** One benchmark of a round, with its tuner and (portfolio) store. */
struct Subject {
    std::unique_ptr<benchmarks::Benchmark> bench;
    std::shared_ptr<search::MemoStore> store;
    std::unique_ptr<core::BenchmarkTuner> tuner;
    std::unique_ptr<TimedProblem> cluster;
    std::unique_ptr<TimedProblem> variable;
};

core::TunerOptions
tunerOptions(const Workload& w, std::uint64_t seed)
{
    core::TunerOptions options;
    options.threshold = w.threshold;
    options.budget = search::SearchBudget{w.budget, 0.0};
    options.seed = seed;
    options.resilience.seed = seed;
    options.ladder = runtime::PrecisionLadder::parse(w.ladder);
    options.refine = w.refine;
    options.staticPrior = w.prior;
    options.certifiedCaps = true;
    options.searchJobs = w.searchJobs;
    if (w.portfolio) {
        options.isolation = support::IsolationMode::Pool;
        options.poolWorkers = kPoolWorkers;
    }
    return options;
}

/** The strategy instance tune(code) would use, except that GA follows
 *  the campaign seed (as the harness's floatsmith analysis does). */
std::unique_ptr<search::SearchStrategy>
makeStrategy(const std::string& code, std::uint64_t seed)
{
    if (code == "GA") {
        search::GaOptions ga;
        ga.seed = seed;
        return std::make_unique<search::GeneticSearch>(ga);
    }
    return search::StrategyRegistry::instance().create(code);
}

bool
isVariableLevel(const search::SearchStrategy& strategy)
{
    return strategy.granularity() == search::Granularity::Variable;
}

/** Add one finished search's span/union/capacity accounting. */
void
accountSearch(Layers& layers, const std::vector<TimedProblem::Span>& spans,
              double wallSeconds, std::size_t threads)
{
    for (const auto& [start, end] : spans)
        layers.evaluateSeconds +=
            std::chrono::duration<double>(end - start).count();
    layers.evaluateCalls += static_cast<double>(spans.size());
    layers.evaluateUnionSeconds += unionSeconds(spans);
    layers.searchWallSeconds += wallSeconds;
    layers.busyCapacitySeconds +=
        wallSeconds * static_cast<double>(threads);
}

void
accountResult(Layers& layers, const search::SearchResult& result)
{
    layers.cacheHits += static_cast<double>(result.cacheHits);
    layers.compileFailures += static_cast<double>(result.compileFailures);
    layers.steals += static_cast<double>(result.steals);
    layers.evaluated += static_cast<double>(result.evaluated);
}

/**
 * tune(strategy) reproduced from its public parts, with the search
 * running on the timing decorators.
 */
core::TuneOutcome
tracedTune(Subject& s, search::SearchStrategy& strategy,
           const core::TunerOptions& options, Layers& layers)
{
    bool variable = isVariableLevel(strategy);
    TimedProblem& problem = variable ? *s.variable : *s.cluster;
    // runOptionsFor builds the static prior (lint + absint) each call.
    Clock::time_point start = Clock::now();
    search::SearchRunOptions run =
        s.tuner->runOptionsFor(strategy.granularity());
    layers.priorSeconds += secondsSince(start);

    std::size_t mark = problem.spanCount();
    start = Clock::now();
    core::TuneOutcome outcome;
    outcome.search =
        search::runSearch(problem, strategy, options.budget, run);
    double wall = secondsSince(start);
    accountSearch(layers, problem.spansSince(mark), wall,
                  std::max<std::size_t>(options.searchJobs, 1));
    layers.campaignSearchSeconds += wall;
    accountResult(layers, outcome.search);

    outcome.clusterConfig = variable
                                ? s.tuner->toClusterConfig(
                                      outcome.search.best)
                                : outcome.search.best;
    if (outcome.search.foundImprovement) {
        Clock::time_point finalStart = Clock::now();
        search::Evaluation final =
            s.tuner->finalMeasure(outcome.clusterConfig);
        layers.finalMeasureSeconds += secondsSince(finalStart);
        outcome.finalSpeedup = final.speedup;
        outcome.finalQualityLoss = final.qualityLoss;
    }
    return outcome;
}

/**
 * A cold portfolio race over the timing decorators, on a fresh memo
 * store in @p memoDir and outside campaign time. tunePortfolio's own
 * problems cannot be decorated from outside, so in a traced round this
 * race stands in for its races in the search- and benchmark-layer
 * metrics. The entrants are the ones tunePortfolio builds.
 */
void
probeRace(Subject& s, std::uint64_t seed, const std::string& memoDir,
          const core::TunerOptions& options, Layers& layers)
{
    core::BenchmarkTuner& tuner = *s.tuner;
    tuner.setMemoStore(std::make_shared<search::MemoStore>(memoDir));
    std::vector<search::PortfolioEntrant> entrants;
    for (const std::string& code :
         search::StrategyRegistry::instance().codes()) {
        search::PortfolioEntrant entrant;
        entrant.code = code;
        entrant.strategy = makeStrategy(code, seed);
        bool variable = isVariableLevel(*entrant.strategy);
        entrant.problem = variable ? s.variable.get() : s.cluster.get();
        entrant.run = tuner.runOptionsFor(entrant.strategy->granularity());
        entrants.push_back(std::move(entrant));
    }
    search::PortfolioOptions portfolioOptions;
    portfolioOptions.workers = kPortfolioWorkers;
    portfolioOptions.budget = options.budget;

    search::PortfolioResult race =
        search::runPortfolio(entrants, portfolioOptions);
    std::vector<TimedProblem::Span> spans = s.cluster->spansSince(0);
    std::vector<TimedProblem::Span> variableSpans =
        s.variable->spansSince(0);
    spans.insert(spans.end(), variableSpans.begin(), variableSpans.end());
    accountSearch(layers, spans, race.wallSeconds, kPortfolioWorkers);
    for (const auto& result : race.results)
        accountResult(layers, result);
    tuner.setMemoStore(nullptr);
}

std::uintmax_t
directoryBytes(const std::filesystem::path& dir)
{
    std::uintmax_t total = 0;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir))
        if (entry.is_regular_file())
            total += entry.file_size();
    return total;
}

/** True when the tuner runs @p cfg through executeRefined. */
bool
refines(const Workload& w, const benchmarks::Benchmark& bench,
        const search::Config& cfg)
{
    return w.refine && bench.supportsRefinement() && !cfg.isBaseline();
}

/** The refine control the tuner uses at the workload threshold. */
benchmarks::RefineControl
refineControl(const Workload& w)
{
    benchmarks::RefineControl control;
    control.targetResidual =
        std::min(control.targetResidual, w.threshold * 1e-2);
    return control;
}

/** The winner of @p job, re-run from scratch and verified against a
 *  fresh all-double reference by a separate comparator. */
void
recheckWinner(const Workload& w, const Subject& s,
              const std::vector<double>& reference, Job& job)
{
    const benchmarks::Benchmark& bench = *s.bench;
    verify::OutputComparator comparator(bench.qualityMetric(),
                                        w.threshold);
    try {
        benchmarks::PrecisionMap pm = s.tuner->precisionMapFor(job.config);
        benchmarks::RunOutput output;
        if (refines(w, bench, job.config)) {
            // The tuner judged this winner through executeRefined;
            // re-check it the same way, from a fresh plan and arena.
            runtime::RunWorkspace ws;
            output = bench.executeRefined(bench.prepare(pm), ws,
                                          refineControl(w));
        } else {
            output = bench.run(pm);
        }
        verify::Verdict verdict = comparator.verify(reference, output.values);
        job.recheckPassed = verdict.passed && std::isfinite(verdict.loss);
        job.recheckLoss = verdict.loss;
    } catch (const std::exception&) {
        job.recheckPassed = false;
        job.recheckLoss = std::numeric_limits<double>::quiet_NaN();
    }
}

/**
 * Replay every configuration @p problem saw execute through the
 * benchmark layer: cached and uncached prepare, @p reps executes, and
 * one verify of the first output against @p reference.
 */
void
replay(const Workload& w, const Subject& s, const TimedProblem& problem,
       bool variable, std::size_t reps,
       const std::vector<double>& reference, Layers& layers)
{
    const benchmarks::Benchmark& bench = *s.bench;
    verify::OutputComparator comparator(bench.qualityMetric(),
                                        w.threshold);
    runtime::RunWorkspace ws;
    benchmarks::PrepareOptions uncached;
    uncached.reuseInputCache = false;
    for (const search::Config& executed : problem.executed()) {
        search::Config cfg =
            variable ? s.tuner->toClusterConfig(executed) : executed;
        benchmarks::PrecisionMap pm = s.tuner->precisionMapFor(cfg);
        bool refined = refines(w, bench, cfg);
        try {
            support::WallTimer timer;
            benchmarks::RunPlan plan = bench.prepare(pm);
            double cached = timer.seconds();
            timer.reset();
            (void)bench.prepare(pm, uncached);
            double fresh = timer.seconds();
            layers.prepareSeconds += cached;
            layers.convertSeconds += fresh - cached;

            benchmarks::RunOutput first;
            for (std::size_t i = 0; i < reps; ++i) {
                timer.reset();
                benchmarks::RunOutput out =
                    refined ? bench.executeRefined(plan, ws, refineControl(w))
                            : bench.execute(plan, ws);
                layers.executeSeconds += timer.seconds();
                layers.executeCalls += 1.0;
                if (i == 0)
                    first = std::move(out);
            }
            timer.reset();
            (void)comparator.verify(reference, first.values);
            layers.verifySeconds += timer.seconds();
            layers.verifyBytes += static_cast<double>(
                2 * reference.size() * sizeof(double));
        } catch (const std::exception&) {
            // It failed the same way inside the search (RuntimeFail);
            // the partial replay is dropped.
        }
    }
}

/** Per-round memo directory: fresh, removed when the round ends. */
class RoundDir {
  public:
    RoundDir(const std::string& root, std::size_t round)
        : path_(std::filesystem::path(root) /
                ("round-" + std::to_string(round)))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~RoundDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }
    RoundDir(const RoundDir&) = delete;
    RoundDir& operator=(const RoundDir&) = delete;

    std::string sub(const std::string& name) const
    {
        return (path_ / name).string();
    }

  private:
    std::filesystem::path path_;
};

Round
runRound(const Workload& w, std::uint64_t seed, const std::string& memoRoot,
         std::size_t index, bool traced)
{
    Round round;
    round.seed = seed;
    round.traced = traced;
    round.setupSeconds.assign(w.benchmarks.size(), 0.0);
    Layers& layers = round.layers;
    RoundDir dir(memoRoot, index);
    core::TunerOptions options = tunerOptions(w, seed);
    auto& registry = benchmarks::BenchmarkRegistry::instance();

    std::vector<Subject> subjects(w.benchmarks.size());
    for (std::size_t b = 0; b < w.benchmarks.size(); ++b) {
        Subject& s = subjects[b];
        Clock::time_point start = Clock::now();
        s.bench = registry.create(w.benchmarks[b]);
        core::TunerOptions own = options;
        if (w.portfolio) {
            Clock::time_point open = Clock::now();
            s.store = std::make_shared<search::MemoStore>(
                dir.sub(w.benchmarks[b]));
            own.memoStore = s.store;
            layers.memoOpenSeconds += secondsSince(open);
        }
        s.tuner = std::make_unique<core::BenchmarkTuner>(*s.bench, own);
        round.setupSeconds[b] += secondsSince(start);
        if (traced) {
            s.cluster = std::make_unique<TimedProblem>(
                s.tuner->clusterProblem());
            s.variable = std::make_unique<TimedProblem>(
                s.tuner->variableProblem());
            support::WallTimer timer;
            (void)typeforge::analyze(s.bench->programModel());
            layers.analyzeSeconds += timer.seconds();
        }
    }

    // Times one tune call; a throw is recorded as a failed job.
    auto runJob = [&](std::size_t b, std::string strategy, auto&& tune) {
        Job job;
        job.benchmark = w.benchmarks[b];
        job.strategy = std::move(strategy);
        job.subject = b;
        Clock::time_point start = Clock::now();
        try {
            tune(job);
        } catch (const std::exception& e) {
            job.threw = true;
            std::cerr << "campaign_bench: " << job.benchmark << "/"
                      << job.strategy << " threw: " << e.what() << "\n";
        }
        job.wallSeconds = secondsSince(start);
        round.campaignSeconds += job.wallSeconds;
        round.jobs.push_back(std::move(job));
    };
    auto record = [](Job& job, std::size_t evaluated, double seconds,
                     double speedup, const search::Config& winner) {
        job.evaluated = evaluated;
        job.searchSeconds = seconds;
        job.speedup = speedup;
        job.config = winner;
    };

    for (std::size_t b = 0; b < subjects.size(); ++b) {
        Subject& s = subjects[b];
        if (!w.portfolio) {
            for (const std::string& code : w.strategies) {
                runJob(b, code, [&](Job& job) {
                    auto strategy = makeStrategy(code, seed);
                    core::TuneOutcome outcome =
                        traced ? tracedTune(s, *strategy, options, layers)
                               : s.tuner->tune(*strategy);
                    record(job, outcome.search.evaluated,
                           outcome.search.searchSeconds,
                           outcome.finalSpeedup, outcome.clusterConfig);
                });
            }
            continue;
        }
        for (const char* pass : {"cold", "warm"}) {
            bool warm = std::string(pass) == "warm";
            if (warm) {
                // Re-open the same directory: the warm pass reads what
                // the cold pass appended to the log.
                if (traced)
                    layers.memoLogBytes += static_cast<double>(
                        directoryBytes(dir.sub(w.benchmarks[b])));
                s.tuner->setMemoStore(nullptr);
                s.store.reset();
                Clock::time_point open = Clock::now();
                s.store = std::make_shared<search::MemoStore>(
                    dir.sub(w.benchmarks[b]));
                s.tuner->setMemoStore(s.store);
                double opened = secondsSince(open);
                round.setupSeconds[b] += opened;
                layers.memoOpenSeconds += opened;
            }
            core::SandboxStats before = s.tuner->sandboxStats();
            runJob(b, std::string("portfolio-") + pass, [&](Job& job) {
                Clock::time_point start = Clock::now();
                core::PortfolioOutcome outcome = s.tuner->tunePortfolio(
                    {}, search::PortfolioMode::Best, kPortfolioWorkers);
                // Everything after the race is the serial re-measure.
                double race = outcome.portfolio.wallSeconds;
                layers.finalMeasureSeconds += secondsSince(start) - race;
                layers.raceSeconds += race;
                layers.campaignSearchSeconds += race;
                record(job, outcome.totalEvaluated, race,
                       outcome.finalSpeedup, outcome.clusterConfig);
                job.strategy += ":" + outcome.winnerCode;
                if (warm) {
                    layers.warmMemoHits +=
                        static_cast<double>(outcome.totalMemoHits);
                    layers.warmLookups += static_cast<double>(
                        outcome.totalMemoHits + outcome.totalEvaluated);
                }
            });
            core::SandboxStats after = s.tuner->sandboxStats();
            double dispatched = static_cast<double>(after.poolDispatches -
                                                    before.poolDispatches);
            layers.dispatches += dispatched;
            layers.dispatchOverheadSeconds +=
                dispatched * after.spawnOverheadMeanSeconds;
            layers.respawns += static_cast<double>(after.workerRespawns -
                                                   before.workerRespawns);
        }
        if (traced)
            probeRace(s, seed, dir.sub(w.benchmarks[b] + "-probe"), options,
                      layers);
    }

    // Untimed: independent winner re-check, then (traced) the replay.
    for (std::size_t b = 0; b < subjects.size(); ++b) {
        Subject& s = subjects[b];
        benchmarks::PrecisionMap allDouble;
        allDouble.setOwner(s.bench->name());
        std::vector<double> reference = s.bench->run(allDouble).values;
        for (Job& job : round.jobs)
            if (job.subject == b && !job.threw)
                recheckWinner(w, s, reference, job);
        if (traced) {
            layers.passes += static_cast<double>(s.cluster->passes() +
                                                 s.variable->passes());
            replay(w, s, *s.cluster, false, options.searchReps, reference,
                   layers);
            replay(w, s, *s.variable, true, options.searchReps, reference,
                   layers);
        }
    }
    return round;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream out;
    out << std::setprecision(17) << v;
    return out.str();
}

std::string
quoted(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** One reported metric: value + unit. */
struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** Per-layer metrics of one traced round. */
std::vector<Metric>
layerMetrics(const Round& r)
{
    const Layers& l = r.layers;
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    // What the layers explain of the traced campaign wall time: the
    // prior, the final re-measure, and of the search time the share the
    // decorated searches attribute to the search's own time plus the
    // replayed benchmark-layer time spread over their mean concurrency.
    // On the tune() workloads the decorated searches are the campaign's
    // own, so that share applies 1:1; on the portfolio it comes from
    // the probe races and is applied to the real races.
    double concurrency = ratio(l.evaluateSeconds, l.evaluateUnionSeconds);
    double benchLayer = l.prepareSeconds + l.executeSeconds + l.verifySeconds;
    double selfSeconds = l.searchWallSeconds - l.evaluateUnionSeconds;
    double searchShare = ratio(
        selfSeconds + (concurrency > 0.0 ? benchLayer / concurrency : 0.0),
        l.searchWallSeconds);
    double explained = l.priorSeconds + l.finalMeasureSeconds +
                       searchShare * l.campaignSearchSeconds;
    return {
        {"benchmarks.execute_s", l.executeSeconds, "s"},
        {"benchmarks.execute_calls", l.executeCalls, "count"},
        {"benchmarks.prepare_s", l.prepareSeconds, "s"},
        {"runtime.convert_s", l.convertSeconds, "s"},
        {"verify.verify_s", l.verifySeconds, "s"},
        {"verify.mb_per_s", ratio(l.verifyBytes / 1e6, l.verifySeconds),
         "MB/s"},
        {"core.evaluate_s", l.evaluateSeconds, "s"},
        {"core.evaluate_calls", l.evaluateCalls, "count"},
        {"core.final_measure_s", l.finalMeasureSeconds, "s"},
        {"core.sandbox.dispatches", l.dispatches, "count"},
        {"core.sandbox.dispatch_overhead_ms",
         1e3 * ratio(l.dispatchOverheadSeconds, l.dispatches), "ms"},
        {"core.sandbox.respawns", l.respawns, "count"},
        {"search.self_s", selfSeconds, "s"},
        {"search.cache_hits", l.cacheHits, "count"},
        {"search.compile_failures", l.compileFailures, "count"},
        {"search.steals", l.steals, "count"},
        {"search.pass_frac", ratio(l.passes, l.evaluated), "frac"},
        {"search.portfolio.race_s", l.raceSeconds, "s"},
        {"search.memo.open_s", l.memoOpenSeconds, "s"},
        {"search.memo.log_bytes", l.memoLogBytes, "bytes"},
        {"search.memo.hit_frac", ratio(l.warmMemoHits, l.warmLookups),
         "frac"},
        {"support.thread_pool.busy_frac",
         ratio(l.evaluateSeconds, l.busyCapacitySeconds), "frac"},
        {"typeforge.analyze_s", l.analyzeSeconds, "s"},
        {"typeforge.prior_s", l.priorSeconds, "s"},
        {"trace.residual_frac",
         ratio(r.campaignSeconds - explained, r.campaignSeconds), "frac"},
    };
}

/**
 * End-to-end metrics over the untraced rounds. Each job's wall time,
 * EV, search time and speedup (and each benchmark's set-up) is first
 * reduced to its median over rounds, then summed over jobs, so a
 * transient slowdown in one round moves one sample of a job instead
 * of a whole campaign total.
 */
std::vector<Metric>
endToEndMetrics(const std::vector<const Round*>& rounds,
                std::size_t attempted, std::size_t failed)
{
    auto sumOfMedians = [&](std::size_t count, auto get) {
        double total = 0.0;
        for (std::size_t i = 0; i < count; ++i) {
            std::vector<double> samples;
            for (const Round* r : rounds)
                samples.push_back(get(*r, i));
            total += median(samples);
        }
        return total;
    };
    std::size_t jobs = rounds.front()->jobs.size();
    std::size_t benches = rounds.front()->setupSeconds.size();
    double evaluated = sumOfMedians(jobs, [](const Round& r, std::size_t j) {
        return static_cast<double>(r.jobs[j].evaluated);
    });
    double searchSeconds =
        sumOfMedians(jobs, [](const Round& r, std::size_t j) {
            return r.jobs[j].searchSeconds;
        });
    double logSpeedup = sumOfMedians(jobs, [](const Round& r, std::size_t j) {
        return std::log(r.jobs[j].threw ? 1.0 : r.jobs[j].speedup);
    });
    return {
        {"campaign_s", sumOfMedians(jobs, [](const Round& r, std::size_t j) {
             return r.jobs[j].wallSeconds;
         }),
         "s"},
        {"setup_s", sumOfMedians(benches, [](const Round& r, std::size_t b) {
             return r.setupSeconds[b];
         }),
         "s"},
        {"evals_per_s", searchSeconds > 0 ? evaluated / searchSeconds : 0.0,
         "1/s"},
        {"ev_total", evaluated, "count"},
        {"speedup_geomean",
         std::exp(logSpeedup / static_cast<double>(jobs)), "x"},
        {"winner_pass_frac",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
         "frac"},
    };
}

} // namespace

int
main(int argc, char** argv)
{
    support::CommandLine cl(argc, argv);
    std::string name = cl.getString("workload", "");
    auto seed = static_cast<std::uint64_t>(cl.getLong("seed", 1));
    double seconds = cl.getDouble("seconds", 10.0);
    bool trace = cl.getLong("trace", 0) != 0;
    std::string memoRoot = cl.getString("memo-dir", "");

#ifdef CAMPAIGN_BENCH_SANITIZED
    std::cerr << "campaign_bench: built with a sanitizer; its timings are "
                 "not reported\n";
    return 3;
#endif
    const Workload* workload = nullptr;
    for (const Workload& w : workloads())
        if (w.name == name)
            workload = &w;
    if (!workload || memoRoot.empty()) {
        std::cerr << "usage: campaign_bench --workload NAME --seed N "
                     "--seconds S --trace 0|1 --memo-dir DIR\n";
        return 2;
    }

    // Each round tunes under its own seed drawn from --seed, so a run
    // averages over several GA/portfolio trajectories.
    support::SplitMix64 seeds(seed);
    std::vector<Round> rounds;
    Clock::time_point start = Clock::now();
    try {
        while (rounds.size() < (trace ? 2 * kMinRounds : kMinRounds) ||
               secondsSince(start) < seconds) {
            bool traced = trace && rounds.size() % 2 == 1;
            rounds.push_back(runRound(*workload, seeds.next(), memoRoot,
                                      rounds.size(), traced));
            std::cerr << "campaign_bench: round " << rounds.size()
                      << (traced ? " traced" : "") << " campaign "
                      << rounds.back().campaignSeconds << " s\n";
        }
    } catch (const std::exception& e) {
        // Set-up failed (a tune call that throws is a failed job instead).
        std::cerr << "campaign_bench: " << e.what() << "\n";
        return 1;
    }

    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<const Round*> untraced;
    std::vector<const Round*> traced;
    for (const Round& r : rounds) {
        for (const Job& job : r.jobs) {
            ++attempted;
            failed += job.threw || !job.recheckPassed ? 1 : 0;
        }
        (r.traced ? traced : untraced).push_back(&r);
    }
    std::vector<Metric> metrics =
        endToEndMetrics(untraced, attempted, failed);
    if (trace) {
        // Layer values: the median of each over the traced rounds.
        std::vector<std::vector<Metric>> perRound;
        for (const Round* r : traced)
            perRound.push_back(layerMetrics(*r));
        for (std::size_t m = 0; m < perRound.front().size(); ++m) {
            std::vector<double> samples;
            for (const auto& round : perRound)
                samples.push_back(round[m].value);
            metrics.push_back({perRound.front()[m].name, median(samples),
                               perRound.front()[m].unit});
        }
        auto campaignMedian = [](const std::vector<const Round*>& of) {
            std::vector<double> samples;
            for (const Round* r : of)
                samples.push_back(r->campaignSeconds);
            return median(samples);
        };
        metrics.push_back({"trace.overhead_frac",
                           campaignMedian(traced) / campaignMedian(untraced) -
                               1.0,
                           "frac"});
    }

    std::ostringstream jobs;
    for (const Job& job : rounds.back().jobs) {
        jobs << (jobs.tellp() > 0 ? "," : "") << "{\"benchmark\":"
             << quoted(job.benchmark) << ",\"strategy\":"
             << quoted(job.strategy)
             << ",\"winner\":" << quoted(job.config.toString())
             << ",\"ev\":" << job.evaluated
             << ",\"speedup\":" << number(job.speedup)
             << ",\"recheck_passed\":"
             << (job.recheckPassed && !job.threw ? "true" : "false")
             << ",\"recheck_loss\":" << number(job.recheckLoss) << "}";
    }
    // Per-round totals of the untraced rounds, for the record.
    std::ostringstream samples;
    auto sampleList = [&](const char* key, auto get) {
        samples << (samples.tellp() > 0 ? "," : "") << quoted(key) << ":[";
        for (std::size_t i = 0; i < untraced.size(); ++i)
            samples << (i ? "," : "") << number(get(*untraced[i]));
        samples << "]";
    };
    sampleList("campaign_s",
               [](const Round& r) { return r.campaignSeconds; });
    sampleList("setup_s", [](const Round& r) {
        double total = 0.0;
        for (double s : r.setupSeconds)
            total += s;
        return total;
    });
    sampleList("ev_total", [](const Round& r) {
        double total = 0.0;
        for (const Job& job : r.jobs)
            total += static_cast<double>(job.evaluated);
        return total;
    });

    std::ostringstream out;
    out << "{\"workload\":" << quoted(workload->name) << ",\"seed\":" << seed
        << ",\"trace\":" << (trace ? 1 : 0) << ",\"rounds\":" << rounds.size()
        << ",\"build\":{\"type\":" << quoted(CAMPAIGN_BENCH_BUILD_TYPE)
        << ",\"compiler\":" << quoted(CAMPAIGN_BENCH_COMPILER)
        << ",\"sanitize\":\"OFF\"}"
        << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"metrics\":{";
    for (std::size_t m = 0; m < metrics.size(); ++m)
        out << (m ? "," : "") << quoted(metrics[m].name)
            << ":{\"value\":" << number(metrics[m].value)
            << ",\"unit\":" << quoted(metrics[m].unit) << "}";
    out << "},\"round_seeds\":[";
    for (std::size_t i = 0; i < rounds.size(); ++i)
        out << (i ? "," : "") << rounds[i].seed;
    out << "],\"samples\":{" << samples.str() << "},\"last_round_jobs\":["
        << jobs.str() << "]}";
    std::cout << out.str() << std::endl;
    return 0;
}
