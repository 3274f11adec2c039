#include "search/portfolio.h"

#include <algorithm>
#include <atomic>

#include "support/logging.h"
#include "support/thread_pool.h"
#include "support/timer.h"

namespace hpcmixp::search {

bool
betterSearchResult(const SearchResult& a, const SearchResult& b)
{
    if (a.foundImprovement != b.foundImprovement)
        return a.foundImprovement;
    if (!a.foundImprovement)
        return false; // both report the baseline; keep entrant order
    if (a.bestEvaluation.speedup != b.bestEvaluation.speedup)
        return a.bestEvaluation.speedup > b.bestEvaluation.speedup;
    // Equal speedups: the lexicographically smaller bitmask wins, so
    // the choice never depends on which entrant finished first.
    return a.best.toString() < b.best.toString();
}

PortfolioResult
runPortfolio(const std::vector<PortfolioEntrant>& entrants,
             const PortfolioOptions& options)
{
    HPCMIXP_ASSERT(!entrants.empty(), "portfolio with no entrants");
    auto cancel = std::make_shared<std::atomic<bool>>(false);
    support::WallTimer wall;

    std::vector<SearchResult> results(entrants.size());
    auto runOne = [&](std::size_t i) {
        const PortfolioEntrant& entrant = entrants[i];
        HPCMIXP_ASSERT(entrant.problem != nullptr,
                       "portfolio entrant has no problem");
        SearchRunOptions run = entrant.run;
        if (options.mode == PortfolioMode::Race)
            run.cancel = cancel;
        std::unique_ptr<SearchStrategy> owned;
        SearchStrategy* strategy = entrant.strategy.get();
        if (strategy == nullptr) {
            owned = StrategyRegistry::instance().create(entrant.code);
            strategy = owned.get();
        }
        results[i] =
            runSearch(*entrant.problem, *strategy, options.budget, run);
        // The shared memo table is the portfolio's record of what ran.
        // Six entrant caches kept alive through the serial candidate
        // re-measurements shift those timings measurably.
        results[i].cache = {};
        // A clean finish (not budget- or cancel-cut) with an
        // improvement ends the race; entrants still running stop at
        // their next budget check with best-so-far intact.
        if (options.mode == PortfolioMode::Race &&
            !results[i].timedOut && results[i].foundImprovement)
            cancel->store(true, std::memory_order_relaxed);
    };

    std::size_t workers = options.workers > 0 ? options.workers
                                              : entrants.size();
    workers = std::min(workers, entrants.size());
    if (workers <= 1) {
        for (std::size_t i = 0; i < entrants.size(); ++i)
            runOne(i);
    } else {
        support::ThreadPool pool(workers);
        std::vector<std::future<void>> futures;
        futures.reserve(entrants.size());
        for (std::size_t i = 0; i < entrants.size(); ++i)
            futures.push_back(pool.submit([&runOne, i] { runOne(i); }));
        for (auto& fut : futures)
            fut.get();
    }

    PortfolioResult out;
    out.results = std::move(results);
    out.winner = 0;
    for (std::size_t i = 1; i < out.results.size(); ++i)
        if (betterSearchResult(out.results[i],
                               out.results[out.winner]))
            out.winner = i;
    out.wallSeconds = wall.seconds();
    return out;
}

} // namespace hpcmixp::search
