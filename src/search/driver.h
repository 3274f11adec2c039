#ifndef HPCMIXP_SEARCH_DRIVER_H_
#define HPCMIXP_SEARCH_DRIVER_H_

/**
 * @file
 * One-shot search execution with uniform result reporting.
 */

#include <string>

#include "search/context.h"
#include "search/strategy.h"

namespace hpcmixp::search {

/** Uniform summary of one completed (or budget-cut) search. */
struct SearchResult {
    std::string strategyCode;       ///< e.g. "DD"
    bool foundImprovement = false;  ///< a passing non-baseline config
    Config best;                    ///< best config (baseline if none)
    Evaluation bestEvaluation;      ///< its evaluation
    std::size_t evaluated = 0;      ///< EV: configs executed
    std::size_t compileFailures = 0;
    std::size_t cacheHits = 0;      ///< in-run repeat queries
    std::size_t memoHits = 0;       ///< cross-run memo-cache hits
    std::size_t retries = 0;        ///< transient-failure re-attempts
    std::size_t deadlineMisses = 0; ///< attempts discarded as stragglers
    std::size_t quarantined = 0;    ///< configs failed after retries
    std::size_t steals = 0;         ///< always 0; campaign_bench/ reads it
    bool timedOut = false;          ///< budget exhausted mid-search
    double searchSeconds = 0.0;
    /// Committed cache at return, key-sorted (SearchContext::cacheEntries);
    /// empty for portfolio entrants.
    std::vector<std::pair<std::string, Evaluation>> cache;
};

/**
 * Resilience/persistence wiring for one search run. Defaults leave
 * every knob off, reproducing a plain uninstrumented search.
 */
struct SearchRunOptions {
    ResiliencePolicy resilience;      ///< retry/deadline/backoff policy
    std::size_t searchJobs = 1;       ///< intra-search batch parallelism
    StaticPrior prior;                ///< static sensitivity prior (Off = none)
    /// Persistent memo-cache table; rerunning an interrupted search
    /// against the same table resumes it.
    std::shared_ptr<MemoTable> memo;
    /// Cooperative cancellation (portfolio mode); null = never.
    std::shared_ptr<const std::atomic<bool>> cancel;
};

/**
 * Run @p strategy against @p problem under @p budget.
 *
 * BudgetExhausted is caught here: a truncated search still reports its
 * best-so-far with timedOut set, matching the paper's treatment of the
 * 24-hour limit.
 */
SearchResult runSearch(SearchProblem& problem, SearchStrategy& strategy,
                       const SearchBudget& budget);

/** As above, with resilience and persistence wiring. */
SearchResult runSearch(SearchProblem& problem, SearchStrategy& strategy,
                       const SearchBudget& budget,
                       const SearchRunOptions& run);

/** Convenience: look up the strategy by code and run it. */
SearchResult runSearch(SearchProblem& problem,
                       const std::string& strategyCode,
                       const SearchBudget& budget);

/** As above, with resilience and persistence wiring. */
SearchResult runSearch(SearchProblem& problem,
                       const std::string& strategyCode,
                       const SearchBudget& budget,
                       const SearchRunOptions& run);

} // namespace hpcmixp::search

#endif // HPCMIXP_SEARCH_DRIVER_H_
