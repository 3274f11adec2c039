#include "core/tuner.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <optional>

#include "runtime/workspace.h"
#include "search/genetic.h"
#include "support/logging.h"
#include "support/memo_log.h"
#include "support/timer.h"
#include "support/worker_pool.h"
#include "typeforge/lint.h"

namespace hpcmixp::core {

using benchmarks::PrecisionMap;
using search::Config;
using search::EvalStatus;
using search::Evaluation;
using search::StructureNode;

/** Cluster-granularity problem: one site per Typeforge cluster. */
class BenchmarkTuner::ClusterProblem final : public search::SearchProblem {
  public:
    explicit ClusterProblem(BenchmarkTuner& tuner) : tuner_(tuner) {}

    std::size_t siteCount() const override
    {
        return tuner_.clusterCount();
    }

    std::size_t maxLevel() const override
    {
        return tuner_.options_.ladder.maxLevel();
    }

    Evaluation
    evaluate(const Config& config) override
    {
        return tuner_.evaluateClusterConfig(config,
                                            tuner_.options_.searchReps);
    }

  private:
    BenchmarkTuner& tuner_;
};

/**
 * Variable-granularity problem: one site per Real variable. Splitting
 * a cluster is a compile failure (Typeforge would refuse to emit the
 * transformed source), which costs search effort but never runs.
 */
class BenchmarkTuner::VariableProblem final
    : public search::SearchProblem {
  public:
    explicit VariableProblem(BenchmarkTuner& tuner) : tuner_(tuner) {}

    std::size_t siteCount() const override
    {
        return tuner_.variableCount();
    }

    std::size_t maxLevel() const override
    {
        return tuner_.options_.ladder.maxLevel();
    }

    Evaluation
    evaluate(const Config& config) override
    {
        // Compile check: every cluster must be uniformly typed — under
        // a ladder, uniform in *level*, not merely lowered-or-not.
        const auto& clusters = tuner_.clusters_;
        for (std::size_t c = 0; c < clusters.clusterCount(); ++c) {
            const auto& members = clusters.members(c);
            std::uint8_t first =
                tuner_.varLevel(config, members.front());
            for (model::VarId v : members) {
                if (tuner_.varLevel(config, v) != first) {
                    Evaluation eval;
                    eval.status = EvalStatus::CompileFail;
                    return eval;
                }
            }
        }
        return tuner_.evaluateClusterConfig(
            tuner_.toClusterConfig(config), tuner_.options_.searchReps);
    }

    const StructureNode* structure() const override
    {
        return &tuner_.structure_;
    }

  private:
    BenchmarkTuner& tuner_;
};

namespace {

/** Position of @p var within the ascending real-variable site list. */
std::size_t
siteIndexOf(const std::vector<model::VarId>& variables, model::VarId var)
{
    auto it = std::lower_bound(variables.begin(), variables.end(), var);
    HPCMIXP_ASSERT(it != variables.end() && *it == var,
                   "variable is not a search site");
    return static_cast<std::size_t>(it - variables.begin());
}

/**
 * Reusable per-thread execution arena. One workspace per evaluation
 * thread keeps executes allocation-free across reps and configurations
 * while composing with --search-jobs (each worker thread gets its own
 * arena, so concurrent evaluations never share scratch buffers).
 */
runtime::RunWorkspace&
evalWorkspace()
{
    thread_local runtime::RunWorkspace workspace;
    return workspace;
}

/**
 * Fixed header of a pool job record: [PoolJobHeader][config chars].
 * The configuration crosses as its digit-per-site toString() image —
 * the same canonical key the memo layer uses — so the wire format is
 * independent of Config's in-memory layout.
 */
struct PoolJobHeader {
    std::uint32_t reps = 0;
    std::uint32_t rawFault = 0;  ///< search::RawFault drawn in the parent
    std::uint32_t keyLength = 0; ///< config chars following the header
};

} // namespace

/**
 * Fixed-size result record of one measured configuration. POD only:
 * a pool worker commits it to its result ring as raw bytes, and the
 * in-process path reads it directly.
 */
struct BenchmarkTuner::SandboxPayload {
    double runtimeSeconds = 0.0;   ///< trimmed mean over timed reps
    double childWallSeconds = 0.0; ///< worker-side wall clock
    double loss = 0.0;
    std::uint32_t passed = 0;
    std::uint32_t pad = 0;
};

std::uint8_t
BenchmarkTuner::varLevel(const Config& varCfg, model::VarId var) const
{
    return varCfg.level(siteIndexOf(variables_, var));
}

bool
BenchmarkTuner::useRefinement(const Config& cfg) const
{
    // The baseline must stay a plain execute: it anchors the reference
    // output and every speedup ratio. Benchmarks without a residual
    // hook simply never refine.
    return options_.refine && !cfg.isBaseline() &&
           benchmark_.supportsRefinement();
}

benchmarks::RunOutput
BenchmarkTuner::executeForConfig(const benchmarks::RunPlan& plan,
                                 runtime::RunWorkspace& ws,
                                 bool refined) const
{
    if (refined) {
        benchmarks::RefineControl control;
        // Drive the residual comfortably below the quality threshold;
        // the floor keeps well-conditioned problems at (near) the
        // reference answer.
        control.targetResidual =
            std::min(control.targetResidual,
                     comparator_.threshold() * 1e-2);
        return benchmark_.executeRefined(plan, ws, control);
    }
    return benchmark_.execute(plan, ws);
}

BenchmarkTuner::BenchmarkTuner(const benchmarks::Benchmark& benchmark,
                               TunerOptions options)
    : benchmark_(benchmark),
      options_(std::move(options)),
      clusters_(typeforge::analyze(benchmark.programModel())),
      variables_(benchmark.programModel().realVariables()),
      comparator_(options_.metric.empty() ? benchmark.qualityMetric()
                                          : options_.metric,
                  options_.threshold)
{
    // Sandbox configuration sanity, checked before any evaluation
    // runs: raw fault injection is only survivable in pool workers,
    // and a raw hang spins forever unless a deadline arms the
    // parent's SIGKILL.
    if (options_.faultPlan.rawEnabled() &&
        options_.isolation != support::IsolationMode::Pool)
        support::fatal(
            "raw fault injection (--fault-raw-*) genuinely kills the "
            "evaluating process; it requires --isolation=pool");
    if (options_.faultPlan.rawHangRate > 0.0 &&
        options_.resilience.deadlineSeconds <= 0.0)
        support::fatal(
            "raw hang injection (--fault-raw-hang-rate) spins until "
            "the parent kills it; it requires a positive --deadline");

    // Each bind key must live in exactly one cluster, otherwise the
    // cluster -> knob mapping would be ambiguous.
    std::map<std::string, std::size_t> keyCluster;
    const auto& program = benchmark_.programModel();
    for (model::VarId v : variables_) {
        const auto& var = program.variable(v);
        if (var.bindKey.empty())
            continue;
        std::size_t c = clusters_.clusterOf(v);
        auto [it, inserted] = keyCluster.emplace(var.bindKey, c);
        HPCMIXP_ASSERT(inserted || it->second == c,
                       support::strCat("bind key '", var.bindKey,
                                       "' spans multiple clusters in ",
                                       benchmark_.name()));
    }

    buildStructure();
    runBaseline();
    clusterProblem_ = std::make_unique<ClusterProblem>(*this);
    variableProblem_ = std::make_unique<VariableProblem>(*this);
    if (options_.faultPlan.enabled()) {
        faultyCluster_ = std::make_unique<search::FaultyProblem>(
            *clusterProblem_, options_.faultPlan);
        faultyVariable_ = std::make_unique<search::FaultyProblem>(
            *variableProblem_, options_.faultPlan);
    }

    // Pre-fork the sandbox workers now, after runBaseline(): every
    // worker inherits the reference output and the benchmark's warmed
    // CachedInput through the fork, and the per-campaign fd budget
    // (rings + doorbells) is paid once here — the count stays constant
    // through the whole campaign, respawns included.
    if (options_.isolation == support::IsolationMode::Pool) {
        std::size_t workers =
            options_.poolWorkers > 0
                ? options_.poolWorkers
                : std::max<std::size_t>(options_.searchJobs, 1);
        workerPool_ = std::make_unique<support::WorkerPool>(
            workers, sizeof(PoolJobHeader) + clusterCount(),
            sizeof(SandboxPayload),
            std::bind_front(&BenchmarkTuner::poolChildRun, this));
    }
}

BenchmarkTuner::~BenchmarkTuner() = default;

void
BenchmarkTuner::buildStructure()
{
    const auto& program = benchmark_.programModel();
    structure_ = StructureNode{};
    structure_.name = program.name();

    auto leafFor = [&](model::VarId v) {
        StructureNode leaf;
        leaf.name = program.variable(v).name;
        leaf.sites = {siteIndexOf(variables_, v)};
        return leaf;
    };

    for (const auto& mod : program.modules()) {
        StructureNode modNode;
        modNode.name = mod.name;
        for (model::VarId g : mod.globals) {
            if (program.variable(g).type.base != model::BaseType::Real)
                continue;
            modNode.children.push_back(leafFor(g));
            modNode.sites.push_back(siteIndexOf(variables_, g));
        }
        for (model::FunctionId f : mod.functions) {
            const auto& fn = program.function(f);
            StructureNode fnNode;
            fnNode.name = fn.name;
            for (model::VarId v : fn.variables) {
                if (program.variable(v).type.base !=
                    model::BaseType::Real)
                    continue;
                fnNode.children.push_back(leafFor(v));
                fnNode.sites.push_back(siteIndexOf(variables_, v));
            }
            if (fnNode.sites.empty())
                continue;
            modNode.sites.insert(modNode.sites.end(),
                                 fnNode.sites.begin(),
                                 fnNode.sites.end());
            modNode.children.push_back(std::move(fnNode));
        }
        if (modNode.sites.empty())
            continue;
        structure_.sites.insert(structure_.sites.end(),
                                modNode.sites.begin(),
                                modNode.sites.end());
        structure_.children.push_back(std::move(modNode));
    }
}

void
BenchmarkTuner::runBaseline()
{
    benchmarks::RunPlan plan =
        benchmark_.prepare(precisionMapFor(Config(clusterCount())));
    // The baseline anchors every speedup ratio, so it is always
    // measured with the full final-measurement protocol. The reference
    // output comes from the first timed rep: every rep produces the
    // same values, so no extra untimed run is needed.
    std::vector<double> samples;
    reference_ = timeReps(plan, false,
                          std::max(options_.searchReps, options_.finalReps),
                          samples)
                     .values;
    if (reference_.empty())
        support::fatal(support::strCat("benchmark ", benchmark_.name(),
                                       " produced no output"));
    baselineSeconds_ = support::trimmedMean(std::move(samples));
}

PrecisionMap
BenchmarkTuner::precisionMapFor(const Config& clusterCfg) const
{
    HPCMIXP_ASSERT(clusterCfg.size() == clusterCount(),
                   "cluster config size mismatch");
    PrecisionMap pm;
    pm.setOwner(benchmark_.name());
    const auto& program = benchmark_.programModel();
    for (std::size_t c = 0; c < clusterCount(); ++c) {
        std::uint8_t level = clusterCfg.level(c);
        if (level == 0)
            continue;
        // Level L binds the cluster to rung L of the campaign ladder
        // (level 1 on the default ladder is Float32, as of old).
        runtime::Precision p = options_.ladder.at(level);
        for (model::VarId v : clusters_.members(c)) {
            const auto& var = program.variable(v);
            if (!var.bindKey.empty())
                pm.set(var.bindKey, p);
        }
    }
    return pm;
}

Config
BenchmarkTuner::toClusterConfig(const Config& varCfg) const
{
    Config out(clusterCount());
    for (std::size_t c = 0; c < clusterCount(); ++c)
        out.setLevel(c, varLevel(varCfg, clusters_.members(c).front()));
    return out;
}

/**
 * The one timed-rep loop: max(@p reps, 1) timed executes of @p plan,
 * each preceded — when @p baseSamples is set — by a timed execute of
 * the all-double plan into it (finalMeasure's interleaving). Returns
 * the first rep's output, the one verification reads.
 *
 * The timed region includes refinement sweeps: recovery is only a win
 * when the corrected run is still faster than the baseline. A
 * diverging refinement throws RefineDiverged (never a hang — the
 * iteration count is bounded).
 */
benchmarks::RunOutput
BenchmarkTuner::timeReps(const benchmarks::RunPlan& plan, bool refined,
                         std::size_t reps, std::vector<double>& samples,
                         std::vector<double>* baseSamples) const
{
    reps = std::max<std::size_t>(reps, 1);
    std::optional<benchmarks::RunPlan> base;
    if (baseSamples) {
        base.emplace(
            benchmark_.prepare(precisionMapFor(Config(clusterCount()))));
        baseSamples->reserve(reps);
    }
    samples.reserve(reps);
    runtime::RunWorkspace& ws = evalWorkspace();
    benchmarks::RunOutput first;
    for (std::size_t i = 0; i < reps; ++i) {
        support::WallTimer timer;
        if (base) {
            (void)executeForConfig(*base, ws, false);
            baseSamples->push_back(timer.seconds());
            timer.reset();
        }
        benchmarks::RunOutput output = executeForConfig(plan, ws, refined);
        samples.push_back(timer.seconds());
        if (i == 0)
            first = std::move(output);
    }
    return first;
}

/**
 * Measure one configuration: prepare it (input conversion stays
 * outside the timed region), time @p reps executes against the
 * per-thread workspace, and verify the first rep's output against the
 * reference. Runs in the tuner process and, unchanged, inside pool
 * workers; throws what prepare or execute throw.
 */
BenchmarkTuner::SandboxPayload
BenchmarkTuner::measure(const Config& cfg, std::size_t reps,
                        std::vector<double>* baseSamples) const
{
    PrecisionMap pm = precisionMapFor(cfg);
    benchmarks::RunPlan plan = benchmark_.prepare(pm);
    std::vector<double> samples;
    benchmarks::RunOutput output =
        timeReps(plan, useRefinement(cfg), reps, samples, baseSamples);
    verify::Verdict verdict =
        comparator_.verify(reference_, output.values);
    SandboxPayload payload;
    payload.runtimeSeconds = support::trimmedMean(std::move(samples));
    payload.loss = verdict.loss;
    payload.passed = verdict.passed ? 1 : 0;
    return payload;
}

/**
 * The one outcome classifier (DESIGN.md §13): how an attempt ended,
 * in process or on a pool worker, becomes the Evaluation the search
 * sees. Only a clean attempt with a valid result record measured
 * anything; everything else is a RuntimeFail for the ordinary
 * retry/quarantine machinery. A contained C++ exception is a property
 * of the configuration, so it stays memoizable; a crash, a deadline
 * kill or a torn record is not, and never reaches the memo-cache.
 */
Evaluation
BenchmarkTuner::classify(support::ChildExit exit, int detail,
                         bool resultValid,
                         const SandboxPayload& payload) const
{
    Evaluation eval;
    eval.status = EvalStatus::RuntimeFail;
    eval.qualityLoss = std::numeric_limits<double>::quiet_NaN();
    eval.memoizable = false;
    if (exit == support::ChildExit::KilledOnDeadline) {
        // Report the kill so the resilience layer counts exactly one
        // deadline miss — identical to a simulated straggler.
        eval.deadlineMiss = true;
        return eval;
    }
    if (exit == support::ChildExit::NonZeroExit &&
        detail == support::kChildBodyThrew) {
        eval.memoizable = true;
        return eval;
    }
    if (exit != support::ChildExit::Clean || !resultValid)
        return eval; // crashed / signaled / torn: quarantine fodder

    eval.memoizable = true;
    eval.runtimeSeconds = payload.runtimeSeconds;
    eval.speedup = baselineSeconds_ / payload.runtimeSeconds;
    eval.qualityLoss = payload.loss;
    eval.status = payload.passed != 0 ? EvalStatus::Pass
                                      : EvalStatus::QualityFail;
    return eval;
}

Evaluation
BenchmarkTuner::evaluateInProcess(const Config& cfg, std::size_t reps,
                                  std::vector<double>* baseSamples) const
{
    try {
        return classify(support::ChildExit::Clean, 0, true,
                        measure(cfg, reps, baseSamples));
    } catch (const std::exception&) {
        // A failed prepare or a RefineDiverged: the in-process twin of
        // a pool worker's contained exception.
        return classify(support::ChildExit::NonZeroExit,
                        support::kChildBodyThrew, false, {});
    }
}

Evaluation
BenchmarkTuner::evaluateClusterConfig(const Config& cfg,
                                      std::size_t reps)
{
    if (workerPool_)
        return evaluatePooled(cfg, reps);
    return evaluateInProcess(cfg, reps, nullptr);
}

/**
 * Crash-loop cutoff of the pooled path. Returns true (and marks
 * one fast-fail) once crashed children reach the configured cap; the
 * caller then fails the attempt without dispatching it.
 */
bool
BenchmarkTuner::crashCutoffTripped()
{
    if (options_.isolationMaxCrashes == 0)
        return false;
    std::lock_guard<std::mutex> lock(sandboxMutex_);
    if (sandbox_.crashedChildren() < options_.isolationMaxCrashes)
        return false;
    ++sandbox_.fastFailed;
    if (!crashLoopWarned_) {
        crashLoopWarned_ = true;
        support::warn(support::strCat(
            benchmark_.name(), ": ", sandbox_.crashedChildren(),
            " crashed children reached --isolation-max-crashes; "
            "failing further pooled attempts without dispatching"));
    }
    return true;
}

/**
 * Pool-worker job handler: runs inside a pre-forked worker child.
 *
 * prepare() must happen here, in the worker — the workers forked at
 * construction time and copy-on-write only shares pages that existed
 * then, so a RunPlan prepared later in the parent would be invisible.
 * The cost amortizes the same way it does in the parent: CachedInput
 * and the thread_local workspace stay warm inside the long-lived
 * worker across every job it serves.
 *
 * Exceptions (prepare failures, RefineDiverged) propagate out into the
 * WorkerPool trampoline, which reports kChildBodyThrew.
 */
std::size_t
BenchmarkTuner::poolChildRun(const void* job, std::size_t jobSize,
                             void* result, std::size_t resultCapacity)
{
    HPCMIXP_ASSERT(resultCapacity >= sizeof(SandboxPayload),
                   "pool result ring smaller than the payload");
    PoolJobHeader header;
    HPCMIXP_ASSERT(jobSize >= sizeof header, "torn pool job header");
    std::memcpy(&header, job, sizeof header);
    HPCMIXP_ASSERT(jobSize == sizeof header + header.keyLength,
                   "pool job length mismatch");
    const std::string key(
        static_cast<const char*>(job) + sizeof header, header.keyLength);

    support::WallTimer childTimer;
    search::executeRawFault(
        static_cast<search::RawFault>(header.rawFault));
    SandboxPayload payload = measure(Config::fromString(key), header.reps);
    payload.childWallSeconds = childTimer.seconds();
    std::memcpy(result, &payload, sizeof payload);
    return sizeof payload;
}

/**
 * One evaluation attempt dispatched to a persistent pool worker
 * (DESIGN.md §15): the worker's exit class is counted, then mapped to
 * an Evaluation by classify().
 */
Evaluation
BenchmarkTuner::evaluatePooled(const Config& cfg, std::size_t reps)
{
    // A raw fault drawn by FaultyProblem on this thread detonates
    // inside the worker, never in the parent.
    const search::RawFault rawFault = search::takePendingRawFault();
    SandboxPayload payload;

    // Past the cutoff nothing is dispatched: the attempt fails like
    // one no worker could be spawned for.
    if (crashCutoffTripped())
        return classify(support::ChildExit::SpawnFailed, 0, false,
                        payload);

    const std::string key = cfg.toString();
    PoolJobHeader header;
    header.reps = static_cast<std::uint32_t>(reps);
    header.rawFault = static_cast<std::uint32_t>(rawFault);
    header.keyLength = static_cast<std::uint32_t>(key.size());
    std::vector<unsigned char> job(sizeof header + key.size());
    std::memcpy(job.data(), &header, sizeof header);
    std::memcpy(job.data() + sizeof header, key.data(), key.size());

    support::PoolOutcome outcome = workerPool_->run(
        job.data(), job.size(), &payload, sizeof payload,
        options_.resilience.deadlineSeconds);

    {
        std::lock_guard<std::mutex> lock(sandboxMutex_);
        switch (outcome.exit) {
          case support::ChildExit::Clean:
            if (outcome.resultValid) {
                ++sandbox_.cleanExits;
                spawnOverheadSum_ += std::max(
                    0.0,
                    outcome.wallSeconds - payload.childWallSeconds);
            } else {
                // Worker answered but the result record is torn:
                // untrustworthy.
                ++sandbox_.arenaCorrupt;
            }
            break;
          case support::ChildExit::NonZeroExit:
            ++sandbox_.nonZeroExits;
            break;
          case support::ChildExit::Signaled:
            ++sandbox_.signaled;
            break;
          case support::ChildExit::KilledOnDeadline:
            ++sandbox_.killedOnDeadline;
            break;
          case support::ChildExit::SpawnFailed:
            ++sandbox_.spawnFailed;
            break;
        }
    }
    return classify(outcome.exit, outcome.detail, outcome.resultValid,
                    payload);
}

std::vector<pid_t>
BenchmarkTuner::poolWorkerPids() const
{
    return workerPool_ ? workerPool_->workerPids()
                       : std::vector<pid_t>{};
}

SandboxStats
BenchmarkTuner::sandboxStats() const
{
    std::lock_guard<std::mutex> lock(sandboxMutex_);
    SandboxStats stats = sandbox_;
    stats.spawnOverheadMeanSeconds =
        stats.cleanExits > 0
            ? spawnOverheadSum_ / static_cast<double>(stats.cleanExits)
            : 0.0;
    if (workerPool_) {
        // Process bookkeeping lives in the pool itself.
        support::WorkerPoolStats pool = workerPool_->stats();
        stats.forks = pool.forks;
        stats.poolDispatches = pool.dispatched;
        stats.workerRespawns = pool.respawns;
    }
    return stats;
}

Evaluation
BenchmarkTuner::finalMeasure(const Config& cfg)
{
    // Both versions are prepared once and interleaved rep by rep, so
    // the speedup is the ratio of trimmed means taken side by side.
    std::vector<double> baseSamples;
    Evaluation eval =
        evaluateInProcess(cfg, options_.finalReps, &baseSamples);
    if (eval.status != EvalStatus::RuntimeFail)
        eval.speedup =
            support::trimmedMean(std::move(baseSamples)) /
            eval.runtimeSeconds;
    return eval;
}

search::StaticPrior
BenchmarkTuner::staticPrior(search::Granularity granularity) const
{
    if (options_.staticPrior == search::PriorMode::Off)
        return {};

    // Lint under the campaign's own ladder and quality threshold so
    // the certified caps speak about the rungs this search will
    // actually propose.
    typeforge::AbsintOptions absOptions;
    absOptions.ladder = options_.ladder;
    absOptions.threshold = options_.threshold;
    typeforge::SensitivityReport report = typeforge::lint(
        benchmark_.programModel(), clusters_, absOptions);

    // Per-cluster verdicts, indexed by cluster.
    std::vector<typeforge::Sensitivity> verdict(
        clusterCount(), typeforge::Sensitivity::Unknown);
    std::vector<int> clusterScore(clusterCount(), 0);
    std::vector<std::uint8_t> certifiedCap(clusterCount(),
                                           typeforge::kNoCap);
    for (const auto& cv : report.clusters) {
        verdict[cv.cluster] = cv.sensitivity;
        clusterScore[cv.cluster] = cv.score;
        certifiedCap[cv.cluster] = cv.certifiedCap;
    }

    bool variableLevel = granularity == search::Granularity::Variable;
    std::size_t sites = variableLevel ? variableCount() : clusterCount();
    std::vector<std::uint8_t> caps(sites, 0);
    std::vector<bool> narrow(sites, false);
    std::vector<int> scores(sites, 0);
    for (std::size_t i = 0; i < sites; ++i) {
        // A variable site inherits the verdict of its cluster: pinning
        // (or narrowing) part of a cluster would split it, which the
        // variable-level problem rejects as a compile failure anyway.
        // Each verdict maps to a per-rung floor: KeepDouble pins the
        // site (cap 0), Unknown allows float but nothing deeper
        // (cap 1), SafeToNarrow may take any rung. On the default
        // two-rung ladder caps 1 and unbounded are indistinguishable,
        // which is exactly the historical pinned/free split.
        std::size_t c =
            variableLevel ? clusters_.clusterOf(variables_[i]) : i;
        switch (verdict[c]) {
        case typeforge::Sensitivity::KeepDouble:
            caps[i] = 0;
            break;
        case typeforge::Sensitivity::SafeToNarrow:
            caps[i] = search::StaticPrior::kUnbounded;
            narrow[i] = true;
            break;
        default:
            caps[i] = 1;
            break;
        }
        // Certified absint caps only tighten: a rung with a proof of
        // overflow or budget blowout is excluded even for a cluster
        // the heuristics called safe; they never deepen a heuristic
        // floor, so the search space shrinks or stays put.
        if (options_.certifiedCaps)
            caps[i] = std::min(caps[i], certifiedCap[c]);
        scores[i] = clusterScore[c];
    }
    return search::StaticPrior::withCaps(
        options_.staticPrior, std::move(caps), std::move(narrow),
        std::move(scores));
}

search::SearchProblem&
BenchmarkTuner::clusterProblem()
{
    if (faultyCluster_)
        return *faultyCluster_;
    return *clusterProblem_;
}

search::SearchProblem&
BenchmarkTuner::variableProblem()
{
    if (faultyVariable_)
        return *faultyVariable_;
    return *variableProblem_;
}

search::GaOptions
gaOptions(const TunerOptions& options)
{
    search::GaOptions ga;
    ga.seed = options.seed;
    return ga;
}

namespace {

/** The strategy a campaign runs for @p code: the registry's, except
 *  that the GA follows the campaign seed (gaOptions). */
std::unique_ptr<search::SearchStrategy>
makeStrategy(const std::string& code, const TunerOptions& options)
{
    auto strategy = search::StrategyRegistry::instance().create(code);
    if (strategy->code() == "GA")
        strategy =
            std::make_unique<search::GeneticSearch>(gaOptions(options));
    return strategy;
}

} // namespace

std::string
ladderIdentity(const TunerOptions& options)
{
    // The default ladder without refinement renders as "f64:f32", the
    // pre-ladder fingerprint, so pre-ladder memo segments stay
    // loadable.
    std::string identity = options.ladder.describe();
    if (options.refine)
        identity += "+ir";
    return identity;
}

search::MemoFingerprint
BenchmarkTuner::fingerprint(search::Granularity granularity) const
{
    search::MemoFingerprint fp;
    fp.benchmark = benchmark_.name();
    // The benchmark's inputs are seeded and deterministic, so the
    // reference output identifies them: any input change shows up in
    // the baseline values and retires every stale memo entry.
    fp.inputSignature = support::fnv1a64(
        reference_.data(), reference_.size() * sizeof(double));
    fp.metric = comparator_.metric().name();
    fp.threshold = comparator_.threshold();
    fp.sites = granularity == search::Granularity::Variable
                   ? variableCount()
                   : clusterCount();
    // The ladder decides what a level digit *means*, and refinement
    // changes what an evaluation measures; either difference makes
    // cached entries incomparable.
    fp.ladder = ladderIdentity(options_);
    return fp;
}

search::SearchRunOptions
BenchmarkTuner::runOptionsFor(search::Granularity granularity)
{
    search::SearchRunOptions run;
    run.resilience = options_.resilience;
    run.searchJobs = options_.searchJobs;
    run.prior = staticPrior(granularity);
    if (options_.memoStore)
        run.memo = options_.memoStore->table(fingerprint(granularity));
    return run;
}

TuneOutcome
BenchmarkTuner::tune(const std::string& strategyCode)
{
    auto strategy = makeStrategy(strategyCode, options_);
    return tune(*strategy);
}

TuneOutcome
BenchmarkTuner::tune(search::SearchStrategy& strategy)
{
    bool variableLevel =
        strategy.granularity() == search::Granularity::Variable;
    search::SearchProblem& problem = variableLevel
                                         ? variableProblem()
                                         : clusterProblem();

    search::SearchRunOptions run = runOptionsFor(strategy.granularity());

    TuneOutcome outcome;
    outcome.search = search::runSearch(problem, strategy,
                                       options_.budget, run);

    outcome.clusterConfig =
        variableLevel ? toClusterConfig(outcome.search.best)
                      : outcome.search.best;

    if (outcome.search.foundImprovement) {
        Evaluation final = finalMeasure(outcome.clusterConfig);
        outcome.finalSpeedup = final.speedup;
        outcome.finalQualityLoss = final.qualityLoss;
    }
    return outcome;
}

PortfolioOutcome
BenchmarkTuner::tunePortfolio(
    const std::vector<std::string>& strategyCodes,
    search::PortfolioMode mode, std::size_t workers)
{
    std::vector<std::string> codes = strategyCodes;
    if (codes.empty())
        codes = search::StrategyRegistry::instance().codes();
    HPCMIXP_ASSERT(!codes.empty(), "portfolio with no strategies");

    std::vector<search::PortfolioEntrant> entrants;
    entrants.reserve(codes.size());
    for (const std::string& code : codes) {
        search::PortfolioEntrant entrant;
        entrant.code = code;
        entrant.strategy = makeStrategy(code, options_);
        bool variableLevel = entrant.strategy->granularity() ==
                             search::Granularity::Variable;
        entrant.problem = variableLevel ? &variableProblem()
                                        : &clusterProblem();
        // Entrants of one granularity share one memo table: it
        // deduplicates them against each other and is what a resumed
        // portfolio replays.
        entrant.run = runOptionsFor(entrant.strategy->granularity());
        entrants.push_back(std::move(entrant));
    }

    search::PortfolioOptions portfolioOptions;
    portfolioOptions.mode = mode;
    portfolioOptions.workers = workers;
    portfolioOptions.budget = options_.budget;

    PortfolioOutcome outcome;
    outcome.portfolio = search::runPortfolio(entrants, portfolioOptions);
    for (const auto& result : outcome.portfolio.results) {
        outcome.totalEvaluated += result.evaluated;
        outcome.totalCacheHits += result.cacheHits;
        outcome.totalMemoHits += result.memoHits;
    }

    // Speedups measured *during* the race are contention-inflated
    // (entrants time-share the machine with each other), so they only
    // rank configs within the race. The authoritative winner is picked
    // by re-measuring each entrant's best configuration with the
    // serial final protocol; ties break deterministically on the
    // smaller bitmask, then entrant order.
    struct Candidate {
        std::size_t entrant;
        search::Config cluster;
        Evaluation final;
    };
    std::vector<Candidate> candidates;
    // Re-measures @p cluster unless it already is a candidate.
    auto addCandidate = [&](std::size_t entrant, search::Config cluster) {
        for (const Candidate& seen : candidates)
            if (seen.cluster == cluster)
                return false;
        Evaluation final = finalMeasure(cluster);
        candidates.push_back({entrant, std::move(cluster), final});
        return true;
    };
    for (std::size_t i = 0; i < entrants.size(); ++i) {
        const search::SearchResult& result =
            outcome.portfolio.results[i];
        if (!result.foundImprovement)
            continue;
        bool variableLevel = entrants[i].strategy->granularity() ==
                             search::Granularity::Variable;
        addCandidate(i, variableLevel ? toClusterConfig(result.best)
                                      : result.best);
    }

    // The entrant bests alone can miss the true optimum: under
    // contention an entrant may rank a mediocre configuration above
    // the genuinely best one it executed. The shared cluster table
    // holds every configuration any cluster-level entrant ran, so the
    // top few passing entries join the candidate set. (The variable
    // table is skipped: its bitmasks only reduce to cluster configs
    // when cluster-uniform.) Entrant bests precede pool entries, so a
    // pool entry only wins on a strictly better re-measurement. The
    // cap bounds the number of extra serial final measurements; it is
    // sized to cover a small cluster space outright, because the
    // in-race ranking that orders the pool is itself noisy.
    constexpr std::size_t kPoolCandidates = 6;
    if (options_.memoStore) {
        auto pool = options_.memoStore
                        ->table(fingerprint(
                            search::Granularity::Cluster))
                        ->entries();
        std::sort(pool.begin(), pool.end(),
                  [](const auto& a, const auto& b) {
                      if (a.second.speedup != b.second.speedup)
                          return a.second.speedup > b.second.speedup;
                      return a.first < b.first;
                  });
        std::size_t taken = 0;
        for (const auto& [key, eval] : pool) {
            if (taken == kPoolCandidates)
                break;
            // Pass/fail is the only in-race signal worth trusting:
            // in-race runtimes are contention-inflated against the
            // clean baseline, so even the true optimum can carry a
            // sub-1.0 stored speedup.
            if (!eval.passed() || key.size() != clusterCount())
                continue;
            if (addCandidate(entrants.size(),
                             search::Config::fromString(key)))
                ++taken;
        }
    }

    const Candidate* chosen = nullptr;
    for (const Candidate& candidate : candidates) {
        if (!chosen) {
            chosen = &candidate;
            continue;
        }
        if (candidate.final.passed() != chosen->final.passed()) {
            if (candidate.final.passed())
                chosen = &candidate;
            continue;
        }
        if (candidate.final.speedup != chosen->final.speedup) {
            if (candidate.final.speedup > chosen->final.speedup)
                chosen = &candidate;
            continue;
        }
        if (candidate.cluster.toString() <
            chosen->cluster.toString())
            chosen = &candidate;
    }

    if (chosen) {
        outcome.winnerCode = chosen->entrant < entrants.size()
                                 ? entrants[chosen->entrant].code
                                 : "pool";
        outcome.clusterConfig = chosen->cluster;
        outcome.finalSpeedup = chosen->final.speedup;
        outcome.finalQualityLoss = chosen->final.qualityLoss;
    } else {
        // Nobody improved on the baseline.
        const search::SearchResult& raceWinner =
            outcome.portfolio.results[outcome.portfolio.winner];
        outcome.winnerCode = raceWinner.strategyCode;
        outcome.clusterConfig = search::Config(clusterCount());
    }
    return outcome;
}

} // namespace hpcmixp::core
