#include "search/driver.h"

namespace hpcmixp::search {

SearchResult
runSearch(SearchProblem& problem, SearchStrategy& strategy,
          const SearchBudget& budget, const SearchRunOptions& run)
{
    SearchContext ctx(problem, budget, run.resilience);
    ctx.setSearchJobs(run.searchJobs);
    if (run.prior.enabled())
        ctx.setPrior(run.prior);
    if (run.memo)
        ctx.setMemo(run.memo);
    if (run.cancel)
        ctx.setCancelFlag(run.cancel);

    SearchResult result;
    result.strategyCode = strategy.code();

    try {
        strategy.run(ctx);
    } catch (const BudgetExhausted&) {
        result.timedOut = true;
    }

    result.evaluated = ctx.evaluatedCount();
    result.compileFailures = ctx.compileFailCount();
    result.cacheHits = ctx.cacheHitCount();
    result.memoHits = ctx.memoHitCount();
    result.retries = ctx.retryCount();
    result.deadlineMisses = ctx.deadlineMissCount();
    result.quarantined = ctx.quarantinedCount();
    result.searchSeconds = ctx.elapsedSeconds();
    result.cache = ctx.cacheEntries();

    if (ctx.hasBest()) {
        result.foundImprovement = true;
        result.best = ctx.bestConfig();
        result.bestEvaluation = ctx.bestEvaluation();
    } else {
        // No improvement found: the answer is the baseline program.
        result.best = Config(problem.siteCount());
        result.bestEvaluation.status = EvalStatus::Pass;
        result.bestEvaluation.speedup = 1.0;
        result.bestEvaluation.qualityLoss = 0.0;
    }
    return result;
}

SearchResult
runSearch(SearchProblem& problem, SearchStrategy& strategy,
          const SearchBudget& budget)
{
    return runSearch(problem, strategy, budget, SearchRunOptions{});
}

SearchResult
runSearch(SearchProblem& problem, const std::string& strategyCode,
          const SearchBudget& budget, const SearchRunOptions& run)
{
    auto strategy = StrategyRegistry::instance().create(strategyCode);
    return runSearch(problem, *strategy, budget, run);
}

SearchResult
runSearch(SearchProblem& problem, const std::string& strategyCode,
          const SearchBudget& budget)
{
    return runSearch(problem, strategyCode, budget, SearchRunOptions{});
}

} // namespace hpcmixp::search
