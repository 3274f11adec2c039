/**
 * @file
 * mixpbench-harness — command-line entry point.
 *
 *   mixpbench-harness --config suite.yaml [options]
 *
 * Reads a Listing-4-style YAML configuration, runs every declared
 * analysis job, and prints a result table. The resilience flags
 * control the retry/deadline policy, deterministic fault injection,
 * and campaign checkpoint/resume (see README "Fault tolerance").
 * `--help` lists every flag; any other flag is an error.
 */

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <thread>
#include <vector>

#include "harness/harness.h"
#include "support/cli.h"
#include "support/logging.h"

namespace {

/** One harness flag and its --help line. */
struct Flag {
    const char* name;
    const char* help;
};

/** Every flag the harness accepts: drives --help and the unknown-flag
 *  check alike. */
const Flag kFlags[] = {
    {"config", "YAML configuration (Listing-4 schema)"},
    {"jobs", "parallel analysis jobs (default 1)"},
    {"search-jobs", "parallel in-search evaluations per job (default 1;"
                    " 0 = auto-detect hardware concurrency, clamped"
                    " against --jobs)"},
    {"reps", "timing repetitions per evaluation (default 3)"},
    {"budget", "max evaluated configurations per search"
               " (default 2000)"},
    {"seed", "campaign seed: GA, fault injection and retry jitter"
             " (default 2020)"},
    {"retries", "max attempts per evaluation (default 3)"},
    {"deadline", "per-evaluation deadline in seconds"
                 " (default 0 = none)"},
    {"fault-rate", "injected transient-crash probability (default 0)"},
    {"fault-hang-rate", "injected straggler probability (default 0)"},
    {"fault-nan-rate", "injected NaN-output probability (default 0)"},
    {"fault-raw-crash-rate", "child abort() probability"
                             " (needs --isolation=pool)"},
    {"fault-raw-hang-rate", "child spin-hang probability"
                            " (needs --isolation=pool and --deadline)"},
    {"fault-raw-segv-rate", "child SIGSEGV probability"
                            " (needs --isolation=pool)"},
    {"isolation", "evaluation sandbox: none or pool (persistent"
                  " pre-forked workers) (default none)"},
    {"isolation-max-crashes", "fail fast after this many crashed"
                              " children (default 0 = unlimited)"},
    {"pool-workers", "persistent sandbox workers under --isolation=pool"
                     " (default 0 = --search-jobs)"},
    {"checkpoint", "record completed jobs in F; evaluations go to the"
                   " memo store F.memo/ (emptied first)"},
    {"resume", "restore completed jobs from F, rerun the rest against"
               " its memo store (as memo hits)"},
    {"memo-cache", "persistent cross-run evaluation cache directory"
                   " (used instead of F.memo/)"},
    {"static-prior", "mixp-lint search prior: on or off (default off)"},
    {"certified-caps", "fold certified absint level caps into the"
                       " prior: on or off (default on; off recovers the"
                       " heuristic-only prior)"},
    {"ladder", "precision ladder, deepest last, e.g. double,float,half"
               " or double,float,bf16 (default double,float)"},
    {"refine", "iterative-refinement recovery for benchmarks with a"
               " residual hook: on or off (default off)"},
    {"json", "write a JSON report to this file"},
    {"verbose", "log progress to stderr"},
    {"help", "print this message"},
};

void
printUsage(std::ostream& os)
{
    os << "usage: mixpbench-harness --config <file.yaml> [options]\n";
    for (const Flag& flag : kFlags)
        os << "  --" << std::left << std::setw(22) << flag.name << ' '
           << flag.help << '\n';
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace hpcmixp;
    try {
        support::CommandLine cl(argc, argv);
        std::vector<std::string> known;
        for (const Flag& flag : kFlags)
            known.push_back(flag.name);
        cl.rejectUnknown(known);

        if (cl.has("help") ||
            (!cl.has("config") && cl.positional().empty())) {
            printUsage(std::cout);
            return cl.has("help") ? 0 : 2;
        }

        if (cl.getBool("verbose", false))
            support::setLogLevel(support::LogLevel::Inform);

        auto jobs = harness::parseConfigFile(cl.getString(
            "config",
            cl.positional().empty() ? "" : cl.positional().front()));
        harness::HarnessOptions options;
        options.jobs =
            static_cast<std::size_t>(cl.getLong("jobs", 1));
        options.tuner.searchJobs =
            static_cast<std::size_t>(cl.getLong("search-jobs", 1));
        if (options.tuner.searchJobs == 0)
            options.tuner.searchJobs = std::max(
                1u, std::thread::hardware_concurrency());
        options.tuner.searchReps =
            static_cast<std::size_t>(cl.getLong("reps", 3));
        options.tuner.budget.maxEvaluations =
            static_cast<std::size_t>(cl.getLong("budget", 2000));

        // One campaign seed drives the GA, the fault draws and the
        // retry jitter.
        options.tuner.seed =
            static_cast<std::uint64_t>(cl.getLong("seed", 2020));
        options.tuner.resilience.maxAttempts =
            static_cast<std::size_t>(cl.getLong("retries", 3));
        options.tuner.resilience.deadlineSeconds =
            cl.getDouble("deadline", 0.0);
        options.tuner.resilience.seed = options.tuner.seed;
        options.tuner.faultPlan.crashRate =
            cl.getDouble("fault-rate", 0.0);
        options.tuner.faultPlan.hangRate =
            cl.getDouble("fault-hang-rate", 0.0);
        options.tuner.faultPlan.nanRate =
            cl.getDouble("fault-nan-rate", 0.0);
        options.tuner.faultPlan.seed = options.tuner.seed;
        options.tuner.faultPlan.rawCrashRate =
            cl.getDouble("fault-raw-crash-rate", 0.0);
        options.tuner.faultPlan.rawHangRate =
            cl.getDouble("fault-raw-hang-rate", 0.0);
        options.tuner.faultPlan.rawSegvRate =
            cl.getDouble("fault-raw-segv-rate", 0.0);

        options.tuner.isolation = support::parseIsolationMode(
            cl.getString("isolation", "none"));
        options.tuner.isolationMaxCrashes = static_cast<std::size_t>(
            cl.getLong("isolation-max-crashes", 0));
        options.tuner.poolWorkers = static_cast<std::size_t>(
            cl.getLong("pool-workers", 0));

        options.tuner.staticPrior = search::parsePriorMode(
            cl.getString("static-prior", "off"));
        {
            std::string cc = cl.getString("certified-caps", "on");
            if (cc != "on" && cc != "off")
                support::fatal("--certified-caps expects on or off");
            options.tuner.certifiedCaps = cc == "on";
        }

        options.tuner.ladder = runtime::PrecisionLadder::parse(
            cl.getString("ladder", "double,float"));
        {
            std::string refine = cl.getString("refine", "off");
            if (refine != "on" && refine != "off")
                support::fatal("--refine expects on or off");
            options.tuner.refine = refine == "on";
        }

        options.memoCacheDir = cl.getString("memo-cache", "");

        options.checkpointPath = cl.getString("checkpoint", "");
        options.resumePath = cl.getString("resume", "");
        // Resuming keeps checkpointing to the same file unless the
        // user redirects it, so a resumed run can itself be resumed.
        if (!options.resumePath.empty() &&
            options.checkpointPath.empty())
            options.checkpointPath = options.resumePath;

        auto results = harness::runJobs(jobs, options);
        harness::printResults(std::cout, results);
        if (cl.has("json")) {
            std::ofstream out(cl.getString("json", ""));
            if (!out)
                support::fatal("cannot open --json output file");
            out << harness::resultsToJson(results).dump(2) << '\n';
        }
        for (const auto& r : results)
            if (!r.error.empty())
                return 1;
        return 0;
    } catch (const support::FatalError& e) {
        std::cerr << "mixpbench-harness: " << e.what() << '\n';
        return 1;
    }
}
