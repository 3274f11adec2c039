#include "search/context.h"

#include <algorithm>
#include <future>
#include <limits>
#include <thread>
#include <unordered_set>
#include <utility>

#include "support/logging.h"
#include "support/memo_log.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace hpcmixp::search {

SearchContext::SearchContext(SearchProblem& problem, SearchBudget budget,
                             ResiliencePolicy resilience)
    : problem_(problem), budget_(budget), resilience_(resilience)
{
}

SearchContext::~SearchContext() = default;

void
SearchContext::setPrior(StaticPrior prior)
{
    HPCMIXP_ASSERT(!prior.enabled() ||
                       prior.siteCount() == problem_.siteCount(),
                   "static prior site count does not match problem");
    prior_ = std::move(prior);
}

const StaticPrior*
SearchContext::prior() const
{
    // prior_ is installed before the search starts and immutable
    // afterwards, so strategies may read it without the lock.
    return prior_.enabled() ? &prior_ : nullptr;
}

void
SearchContext::setMemo(std::shared_ptr<MemoTable> memo)
{
    HPCMIXP_ASSERT(!memo ||
                       memo->fingerprint().sites ==
                           problem_.siteCount(),
                   "memo table site count does not match problem");
    memo_ = std::move(memo);
}

void
SearchContext::setCancelFlag(
    std::shared_ptr<const std::atomic<bool>> flag)
{
    std::lock_guard<std::mutex> lock(mutex_);
    cancel_ = std::move(flag);
}

void
SearchContext::setSearchJobs(std::size_t jobs)
{
    if (jobs == 0) {
        // 0 means "use the machine": auto-detect instead of silently
        // degrading to a serial search. Callers that need the nested-
        // parallelism clamp (jobs × searchJobs ≤ hardware) apply it on
        // top, as the harness does.
        jobs = std::max<std::size_t>(
            1, std::thread::hardware_concurrency());
    }
    std::lock_guard<std::mutex> lock(mutex_);
    searchJobs_ = jobs;
}

std::size_t
SearchContext::searchJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return searchJobs_;
}

void
SearchContext::checkBudgetLocked()
{
    bool overEvals = executed_ >= budget_.maxEvaluations;
    bool overTime = budget_.maxSeconds > 0.0 &&
                    timer_.seconds() >= budget_.maxSeconds;
    bool cancelled =
        cancel_ && cancel_->load(std::memory_order_relaxed);
    if (overEvals || overTime || cancelled) {
        exhausted_ = true;
        throw BudgetExhausted();
    }
}

void
SearchContext::noteBestLocked(const Config& config, const Evaluation& eval)
{
    // A passing non-baseline configuration competes for "best".
    if (eval.passed() && !config.isBaseline()) {
        if (!best_ || eval.speedup > best_->second.speedup)
            best_ = {config, eval};
    }
}

/**
 * One evaluation under the resilience policy: bounded retries with
 * backoff for transient RuntimeFails, and a per-attempt deadline that
 * discards stragglers the way SLURM kills an overdue task.
 *
 * Side-effect-free with respect to the context: resilience events land
 * in @p counters and are merged into the shared totals only when the
 * result commits, so speculative batch evaluations that get discarded
 * by the budget leave no trace.
 */
Evaluation
SearchContext::evaluateResilient(const Config& config,
                                 const std::string& key,
                                 TaskCounters& counters)
{
    // Strict prior mode: a configuration that lowers a pinned site is
    // rejected like an uncompilable one, without executing anything.
    if (prior_.strict() && prior_.violates(config)) {
        Evaluation rejected;
        rejected.status = EvalStatus::CompileFail;
        return rejected;
    }
    std::size_t maxAttempts =
        resilience_.maxAttempts > 0 ? resilience_.maxAttempts : 1;
    // The backoff jitter stream is seeded from the config key, so
    // retry timing never depends on which thread runs the task.
    support::Pcg32 jitterRng(resilience_.seed ^ support::fnv1a64(key),
                             /*stream=*/0x7e51);
    Evaluation eval;
    for (std::size_t attempt = 1;; ++attempt) {
        support::WallTimer attemptTimer;
        eval = problem_.evaluate(config);
        // A sandboxed attempt reports its own kill-on-deadline; an
        // in-process straggler is caught post-hoc by the attempt
        // timer. Both count as exactly one deadline miss and feed the
        // same retry/backoff path, so counters are identical between
        // simulated and forked hangs.
        bool missedDeadline = eval.deadlineMiss;
        if (!missedDeadline && resilience_.deadlineSeconds > 0.0 &&
            attemptTimer.seconds() > resilience_.deadlineSeconds &&
            eval.status != EvalStatus::CompileFail) {
            // The result arrived after the deadline: discard it.
            missedDeadline = true;
        }
        if (missedDeadline) {
            ++counters.deadlineMisses;
            const bool memoizable = eval.memoizable;
            eval = Evaluation{};
            eval.status = EvalStatus::RuntimeFail;
            eval.qualityLoss =
                std::numeric_limits<double>::quiet_NaN();
            eval.deadlineMiss = true;
            // A killed child yielded no measurement worth sharing; a
            // post-hoc-discarded in-process result keeps publishing
            // as before.
            eval.memoizable = memoizable;
        }
        if (eval.status != EvalStatus::RuntimeFail ||
            attempt >= maxAttempts)
            break;
        ++counters.retries;
        if (resilience_.sleepBetweenRetries)
            support::sleepForSeconds(support::backoffDelaySeconds(
                resilience_.backoff, attempt - 1, jitterRng));
    }
    // Retries exhausted: quarantine the configuration — it is cached
    // as failed and the search moves on rather than aborting.
    if (eval.status == EvalStatus::RuntimeFail && maxAttempts > 1)
        ++counters.quarantined;
    return eval;
}

/**
 * Record one freshly evaluated configuration: merge its resilience
 * counters, meter it, update best-so-far, publish it to the memo and
 * populate the cache. Caller holds the lock and has already passed
 * the budget check.
 */
const Evaluation&
SearchContext::commitLocked(std::string key, const Config& config,
                            Evaluation eval,
                            const TaskCounters& counters)
{
    retries_ += counters.retries;
    deadlineMisses_ += counters.deadlineMisses;
    quarantined_ += counters.quarantined;
    bool ran = eval.status != EvalStatus::CompileFail;
    if (ran) {
        ++executed_;
    } else {
        ++compileFails_;
    }
    noteBestLocked(config, eval);
    // Publish to the persistent memo before caching locally, so no
    // other context can observe the local commit yet miss the memo.
    // Results flagged non-memoizable (killed/crashed sandbox children)
    // stay private to this run.
    if (ran && memo_ && eval.memoizable)
        memo_->publish(key, eval);
    return cache_.emplace(std::move(key), std::move(eval))
        .first->second;
}

/**
 * Commit a cross-run memo hit: the stored evaluation enters the local
 * cache and competes for best-so-far, but nothing executed — no EV, no
 * budget consumption, no re-publication. Caller holds the lock.
 */
const Evaluation&
SearchContext::commitMemoHitLocked(std::string key,
                                   const Config& config,
                                   Evaluation eval)
{
    ++memoHits_;
    noteBestLocked(config, eval);
    return cache_.emplace(std::move(key), std::move(eval))
        .first->second;
}

Evaluation
SearchContext::evaluate(const Config& config)
{
    return std::move(evaluateBatch(std::span<const Config>(&config, 1))
                         .front());
}

std::vector<Evaluation>
SearchContext::evaluateBatch(std::span<const Config> configs)
{
    // Plan: classify each candidate against the cache, the persistent
    // memo and earlier slots of this batch. Only first occurrences of
    // uncached, unmemoized configurations ("fresh") get an evaluation
    // task; memo hits commit the stored evaluation without a task, and
    // repeats become cache hits at commit time.
    enum class Kind { Hit, Memo, Fresh };
    struct Slot {
        std::string key;
        Kind kind = Kind::Fresh;
        std::size_t fresh = 0; ///< task index when kind == Fresh
        Evaluation memoEval;   ///< payload when kind == Kind::Memo
    };
    std::vector<Slot> plan(configs.size());
    // Keys claimed by an earlier slot of this batch, fresh tasks and
    // memo commits alike; repeats of either are in-run cache hits once
    // the first occurrence commits.
    std::unordered_set<std::string> claimed;
    std::size_t freshCount = 0;
    auto planLocked = [&](std::size_t i) {
        const Config& config = configs[i];
        HPCMIXP_ASSERT(config.size() == problem_.siteCount(),
                       "config size does not match problem site count");
        Slot& slot = plan[i];
        slot.key = config.toString();
        // Strict prior mode rejects pinned configurations without
        // executing (evaluateResilient); the rejection must also
        // bypass the memo, whose entries may come from runs with a
        // different prior mode.
        bool strictReject = prior_.strict() && prior_.violates(config);
        if (cache_.count(slot.key) > 0 || claimed.count(slot.key) > 0) {
            slot.kind = Kind::Hit;
            return;
        }
        claimed.insert(slot.key);
        std::optional<Evaluation> memoHit;
        if (memo_ && !strictReject &&
            (memoHit = memo_->lookup(slot.key))) {
            slot.kind = Kind::Memo;
            slot.memoEval = std::move(*memoHit);
        } else {
            slot.kind = Kind::Fresh;
            slot.fresh = freshCount++;
        }
    };

    std::unique_lock<std::mutex> lock(mutex_);
    const std::size_t jobs = searchJobs_;
    // In parallel the whole batch is planned up front. Serially, each
    // slot is planned right before it commits, so a memo entry another
    // context published meanwhile is still a hit.
    const bool planAhead = jobs > 1;
    if (planAhead)
        for (std::size_t i = 0; i < configs.size(); ++i)
            planLocked(i);

    // Evaluate: with more than one fresh slot and more than one
    // worker, fresh candidates run concurrently before anything
    // commits. Each task's counters stay private until its commit, so
    // candidates that turn out to lie past the budget are evaluated
    // speculatively here and discarded below without a trace.
    std::vector<Evaluation> results(freshCount);
    std::vector<TaskCounters> counters(freshCount);
    const bool parallel = freshCount > 1;
    if (parallel) {
        if (pool_ && pool_->workerCount() != jobs)
            pool_.reset();
        if (!pool_)
            pool_ = std::make_unique<support::ThreadPool>(jobs);
        lock.unlock();
        std::vector<std::future<void>> futures;
        futures.reserve(freshCount);
        for (std::size_t i = 0; i < plan.size(); ++i) {
            if (plan[i].kind != Kind::Fresh)
                continue;
            futures.push_back(pool_->submit(
                [this, &config = configs[i], &key = plan[i].key,
                 &result = results[plan[i].fresh],
                 &taskCounters = counters[plan[i].fresh]] {
                    result = evaluateResilient(config, key, taskCounters);
                }));
        }
        for (auto& fut : futures)
            fut.wait();
        for (auto& fut : futures)
            fut.get(); // propagate any task exception
        lock.lock();
    }

    // Commit in submission order, so the observable trajectory
    // (counters, cache, best, budget throw point, memo publication
    // order) is that of a loop of single evaluations. A budget hit
    // throws and discards the uncommitted tail.
    std::vector<Evaluation> out(configs.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (!planAhead)
            planLocked(i);
        Slot& slot = plan[i];
        if (slot.kind == Kind::Fresh) {
            checkBudgetLocked();
            Evaluation eval;
            TaskCounters taskCounters;
            if (parallel) {
                eval = std::move(results[slot.fresh]);
                taskCounters = counters[slot.fresh];
            } else {
                // Run inline, outside the lock: the serial "check the
                // budget, then execute" order.
                lock.unlock();
                eval = evaluateResilient(configs[i], slot.key,
                                         taskCounters);
                lock.lock();
            }
            out[i] = commitLocked(std::move(slot.key), configs[i],
                                  std::move(eval), taskCounters);
        } else if (slot.kind == Kind::Memo) {
            // A memo hit commits without a budget check or EV
            // increment.
            out[i] = commitMemoHitLocked(std::move(slot.key),
                                         configs[i],
                                         std::move(slot.memoEval));
        } else {
            // Hit on the cache, or repeat of a slot committed earlier
            // in this loop.
            auto it = cache_.find(slot.key);
            HPCMIXP_ASSERT(it != cache_.end(),
                           "batch commit: cache entry vanished");
            ++cacheHits_;
            noteBestLocked(configs[i], it->second);
            out[i] = it->second;
        }
    }
    return out;
}

bool
SearchContext::hasBest() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return best_.has_value();
}

std::size_t
SearchContext::evaluatedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return executed_;
}

std::size_t
SearchContext::compileFailCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return compileFails_;
}

std::size_t
SearchContext::cacheHitCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cacheHits_;
}

std::size_t
SearchContext::memoHitCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return memoHits_;
}

std::size_t
SearchContext::retryCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return retries_;
}

std::size_t
SearchContext::deadlineMissCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return deadlineMisses_;
}

std::size_t
SearchContext::quarantinedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantined_;
}

bool
SearchContext::exhausted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return exhausted_;
}

std::vector<std::pair<std::string, Evaluation>>
SearchContext::cacheEntries() const
{
    std::vector<std::pair<std::string, Evaluation>> entries;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries.assign(cache_.begin(), cache_.end());
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                  return a.first < b.first;
              });
    return entries;
}

const Config&
SearchContext::bestConfig() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    HPCMIXP_ASSERT(best_.has_value(), "bestConfig() with no best yet");
    return best_->first;
}

const Evaluation&
SearchContext::bestEvaluation() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    HPCMIXP_ASSERT(best_.has_value(),
                   "bestEvaluation() with no best yet");
    return best_->second;
}

} // namespace hpcmixp::search
