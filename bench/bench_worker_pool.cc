/**
 * @file
 * Measurement: worker-pool spawn amortization and batch load balance
 * (DESIGN.md §15).
 *
 * Part 1 — sandbox cost. For each benchmark, runs the same
 * combinational (CB) campaign in-process (--isolation=none) and on
 * persistent pre-forked workers fed over shared-memory rings
 * (--isolation=pool), and reports whether both executed the same EV,
 * the pool's wall-clock overhead on the search, and its mean
 * per-evaluation dispatch overhead. Both runs are fault-free, so they
 * execute the same configuration set (CB's exploration order is
 * fixed) and the wall difference is the sandbox machinery. Every
 * campaign gets its own benchmark instance, so neither inherits the
 * other's lazily converted inputs, and the two modes run as kPairs
 * pairs whose order alternates; the table reports the medians.
 *
 * Part 2 — load balance. Pushes deliberately uneven-latency synthetic
 * batches through SearchContext::evaluateBatch at 8 worker threads
 * and compares the wall time with the ideal schedule: per batch,
 * max(sum of item latencies / jobs, longest item), summed over the
 * batches. Per-item latency blocks (sleeps) rather than spins,
 * mirroring the sandbox reality this pool exists for — the parent
 * thread waits on a child pidfd — so the comparison holds on any
 * core count. An efficiency (ideal / measured) near 1 says idle
 * workers never sit out while the queue still holds work.
 *
 * Extra flag beyond the common set:
 *   --json F   write the full result document to F
 *              (default BENCH_worker_pool.json)
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "search/driver.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/timer.h"

namespace {

using namespace hpcmixp;

/** In-process/pool campaign pairs per benchmark. */
constexpr std::size_t kPairs = 3;

struct PoolRun {
    std::string benchmark;
    std::size_t evaluated = 0;
    double noneSeconds = 0.0;   ///< median in-process search wall clock
    double poolSeconds = 0.0;   ///< median pool search wall clock
    double overheadPct = 0.0;   ///< median per-pair pool overhead, percent
    double dispatchMs = 0.0;    ///< median ring-dispatch overhead per eval
    std::size_t poolForks = 0;  ///< fork() calls of the last pool campaign
    bool evMatch = true;        ///< every campaign executed the same EV
};

/** One CB campaign on a fresh instance of @p name. */
struct ModeRun {
    std::size_t evaluated = 0;
    double seconds = 0.0;
    double dispatchMs = 0.0;
    std::size_t forks = 0;
};

ModeRun
runCampaign(const std::string& name, core::TunerOptions options,
            support::IsolationMode isolation)
{
    auto benchmark = benchmarks::BenchmarkRegistry::instance().create(name);
    options.isolation = isolation;
    core::BenchmarkTuner tuner(*benchmark, options);
    core::TuneOutcome outcome = tuner.tune("CB");
    ModeRun run;
    run.evaluated = outcome.search.evaluated;
    run.seconds = outcome.search.searchSeconds;
    run.dispatchMs = tuner.sandboxStats().spawnOverheadMeanSeconds * 1e3;
    run.forks = tuner.sandboxStats().forks;
    return run;
}

/**
 * Seeded, config-determined latency of one skewed evaluation. Spread
 * over ~2 decades: most configs are cheap, ~15% are ~70x the median —
 * the shape that convoys a statically partitioned pool behind its
 * unluckiest worker.
 */
std::uint32_t
skewedMicros(const search::Config& config)
{
    support::Pcg32 rng(std::hash<std::string>{}(config.toString()));
    std::uint32_t micros = 100 + rng.nextBounded(200);
    if (rng.chance(0.15))
        micros *= 70;
    return micros;
}

/**
 * Synthetic uneven-latency problem for the load-balance measurement:
 * each evaluation blocks for skewedMicros — the shape of a sandbox
 * evaluation, where the searcher thread sleeps on the child's pidfd —
 * while the reported values stay pure functions of the configuration.
 */
class SkewedProblem final : public search::SearchProblem {
  public:
    explicit SkewedProblem(std::size_t sites) : sites_(sites) {}

    std::size_t siteCount() const override { return sites_; }

    search::Evaluation
    evaluate(const search::Config& config) override
    {
        std::this_thread::sleep_for(
            std::chrono::microseconds(skewedMicros(config)));

        search::Evaluation eval;
        eval.speedup =
            1.0 + 0.01 * static_cast<double>(config.count());
        eval.runtimeSeconds = 1.0 / eval.speedup;
        eval.status = search::EvalStatus::Pass;
        eval.qualityLoss = 0.0;
        return eval;
    }

  private:
    std::size_t sites_;
};

/** Wall seconds of @p rounds skewed batches at @p jobs workers, and
 *  in @p idealSeconds the ideal schedule's (file comment). */
double
skewedBatchSeconds(std::size_t jobs, std::size_t batchItems,
                   std::size_t rounds, double& idealSeconds)
{
    SkewedProblem problem(16);
    search::SearchContext ctx(problem, {1000000000, 0.0},
                              search::ResiliencePolicy{});
    ctx.setSearchJobs(jobs);

    // Configurations from a fixed seed, so every run sees identical
    // batches. A configuration repeated within the batches is a cache
    // hit and costs no latency.
    support::Pcg32 rng(20200908);
    std::vector<std::vector<search::Config>> batches(rounds);
    std::unordered_set<std::string> seen;
    idealSeconds = 0.0;
    for (auto& batch : batches) {
        double sum = 0.0, longest = 0.0;
        for (std::size_t i = 0; i < batchItems; ++i) {
            search::Config cfg(16);
            for (std::size_t s = 0; s < 16; ++s)
                if (rng.chance(0.5))
                    cfg.set(s);
            if (seen.insert(cfg.toString()).second) {
                double latency = skewedMicros(cfg) * 1e-6;
                sum += latency;
                longest = std::max(longest, latency);
            }
            batch.push_back(cfg);
        }
        idealSeconds +=
            std::max(sum / static_cast<double>(jobs), longest);
    }

    support::WallTimer timer;
    for (const auto& batch : batches)
        (void)ctx.evaluateBatch(batch);
    return timer.seconds();
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace hpcmixp;
    auto options = benchutil::parseOptions(argc, argv, 300);
    support::CommandLine cl(argc, argv);
    std::string jsonPath =
        cl.getString("json", "BENCH_worker_pool.json");

    // ---- Part 1: sandbox cost, pool vs in-process -------------------

    // Application benchmarks, not microkernels: per-evaluation runtime
    // must dwarf the dispatch cost for the overhead figure to mean
    // anything.
    std::vector<std::string> names{"kmeans", "hotspot", "lavamd"};
    if (support::quickMode())
        names = {"kmeans"};

    support::Table table({"benchmark", "EV", "overhead %",
                          "dispatch ms", "pool forks", "EV match"});
    std::vector<PoolRun> runs;

    for (const std::string& name : names) {
        PoolRun run;
        run.benchmark = name;
        std::vector<double> noneSeconds, poolSeconds, overheads,
            dispatchMs;
        for (std::size_t pair = 0; pair < kPairs; ++pair) {
            // Alternate which mode runs first, so neither always pays
            // the process's cold start.
            ModeRun none, pooled;
            if (pair % 2 == 0) {
                none = runCampaign(name, options.tuner,
                                   support::IsolationMode::None);
                pooled = runCampaign(name, options.tuner,
                                     support::IsolationMode::Pool);
            } else {
                pooled = runCampaign(name, options.tuner,
                                     support::IsolationMode::Pool);
                none = runCampaign(name, options.tuner,
                                   support::IsolationMode::None);
            }
            if (pair == 0)
                run.evaluated = none.evaluated;
            run.evMatch = run.evMatch &&
                          none.evaluated == run.evaluated &&
                          pooled.evaluated == run.evaluated;
            noneSeconds.push_back(none.seconds);
            poolSeconds.push_back(pooled.seconds);
            if (none.seconds > 0.0)
                overheads.push_back(
                    (pooled.seconds / none.seconds - 1.0) * 100.0);
            dispatchMs.push_back(pooled.dispatchMs);
            run.poolForks = pooled.forks;
        }
        run.noneSeconds = support::median(noneSeconds);
        run.poolSeconds = support::median(poolSeconds);
        run.overheadPct =
            overheads.empty() ? 0.0 : support::median(overheads);
        run.dispatchMs = support::median(dispatchMs);
        runs.push_back(run);

        table.addRow(
            {name,
             support::Table::cell(static_cast<long>(run.evaluated)),
             support::Table::cell(run.overheadPct, 1),
             support::Table::cell(run.dispatchMs, 3),
             support::Table::cell(static_cast<long>(run.poolForks)),
             run.evMatch ? "yes" : "NO"});
    }

    std::cout << "Worker-pool cost against in-process, CB campaigns (budget "
              << options.tuner.budget.maxEvaluations << ", reps "
              << options.tuner.searchReps << ", median of " << kPairs
              << " alternating pairs)\n";
    benchutil::emit(table, options);

    // ---- Part 2: load balance on uneven-latency batches ------------

    const std::size_t jobs = 8;
    std::size_t batchItems = 64;
    std::size_t rounds = support::quickMode() ? 8 : 16;

    double idealSeconds = 0.0;
    double batchSeconds =
        skewedBatchSeconds(jobs, batchItems, rounds, idealSeconds);
    double efficiency =
        batchSeconds > 0.0 ? idealSeconds / batchSeconds : 0.0;

    support::Table balanceTable({"batch s", "ideal s", "efficiency"});
    balanceTable.addRow({support::Table::cell(batchSeconds, 4),
                         support::Table::cell(idealSeconds, 4),
                         support::Table::cell(efficiency, 2)});
    std::cout << "\nLoad balance, " << rounds << " x " << batchItems
              << "-config skewed batches at " << jobs << " jobs\n";
    benchutil::emit(balanceTable, options);

    // ---- JSON -------------------------------------------------------

    using support::json::Value;
    Value doc = Value::object();
    doc.set("budget",
            Value::number(static_cast<double>(
                options.tuner.budget.maxEvaluations)));
    doc.set("reps",
            Value::number(
                static_cast<double>(options.tuner.searchReps)));
    doc.set("pairs", Value::number(static_cast<double>(kPairs)));
    Value rows = Value::array();
    for (const PoolRun& run : runs) {
        Value row = Value::object();
        row.set("benchmark", Value::string(run.benchmark));
        row.set("evaluated",
                Value::number(static_cast<double>(run.evaluated)));
        row.set("none_seconds", Value::number(run.noneSeconds));
        row.set("pool_seconds", Value::number(run.poolSeconds));
        row.set("overhead_pct", Value::number(run.overheadPct));
        row.set("pool_dispatch_ms", Value::number(run.dispatchMs));
        row.set("pool_forks",
                Value::number(static_cast<double>(run.poolForks)));
        row.set("ev_match", Value::boolean(run.evMatch));
        rows.push(std::move(row));
    }
    doc.set("kernels", std::move(rows));

    Value balance = Value::object();
    balance.set("jobs", Value::number(static_cast<double>(jobs)));
    balance.set("rounds", Value::number(static_cast<double>(rounds)));
    balance.set("batch_items",
                Value::number(static_cast<double>(batchItems)));
    balance.set("batch_seconds", Value::number(batchSeconds));
    balance.set("ideal_seconds", Value::number(idealSeconds));
    balance.set("efficiency", Value::number(efficiency));
    doc.set("load_balance", std::move(balance));

    std::ofstream out(jsonPath);
    if (!out)
        support::fatal("cannot open --json output file");
    out << doc.dump(2) << '\n';
    return 0;
}
