#ifndef HPCMIXP_HARNESS_HARNESS_H_
#define HPCMIXP_HARNESS_HARNESS_H_

/**
 * @file
 * The YAML-driven harness (paper Section III-A.c).
 *
 * A configuration document names one or more benchmarks, each with an
 * analysis clause and quality settings, following the schema of the
 * paper's Listing 4:
 *
 *   kmeans:
 *     analysis:
 *       floatsmith:
 *         name: 'floatsmith'
 *         extra_args:
 *           algorithm: 'ddebug'
 *     metric: 'MCR'
 *     threshold: 1e-6
 *
 * The build/clean/bin/copy/args clauses of the original schema are
 * accepted (the parser validates them) but have no effect here: the
 * benchmarks are compiled into the suite rather than built via make.
 * Jobs are scheduled onto a thread pool (`jobs` > 1), substituting for
 * the paper's SLURM cluster.
 */

#include <ostream>
#include <string>
#include <vector>

#include "harness/analysis.h"
#include "support/json.h"
#include "support/yaml.h"

namespace hpcmixp::harness {

/** One parsed benchmark entry of the configuration document. */
struct JobSpec {
    std::string benchmark;   ///< registry name (the YAML key)
    std::string analysis;    ///< analysis registry name
    ExtraArgs extraArgs;     ///< analysis-specific arguments
    std::string metric;      ///< quality metric (empty = default)
    double threshold = 1e-6; ///< quality threshold
};

/** Harness-wide execution settings. */
struct HarnessOptions {
    std::size_t jobs = 1;         ///< parallel analysis jobs
    core::TunerOptions tuner;     ///< metric/threshold overridden per job

    /**
     * Checkpoint file the campaign progressively writes: the results
     * of completed jobs. Unless memoCacheDir is set, the campaign's
     * memo store is the companion directory `<file>.memo/`, which
     * holds what in-flight jobs already evaluated; a run without
     * resumePath starts it empty. Empty disables checkpointing.
     */
    std::string checkpointPath;

    /**
     * Checkpoint file a previous (interrupted) campaign wrote.
     * Completed jobs whose configuration is unchanged are restored
     * without re-running; the others rerun against the campaign's
     * memo store (by default `<file>.memo/`), so what they evaluated
     * before the interruption comes back as memo hits. Empty starts
     * fresh.
     */
    std::string resumePath;

    /**
     * Directory of the persistent cross-run memo-cache (--memo-cache).
     * Every job consults the benchmark-fingerprinted table before
     * executing a configuration and publishes what it ran, so a
     * repeated campaign re-executes nothing. Empty disables it, or
     * selects the checkpoint's companion directory (see above).
     */
    std::string memoCacheDir;
};

/** One completed job. */
struct JobResult {
    JobSpec spec;
    AnalysisResult result;
    std::string error;     ///< non-empty when the job failed
    bool restored = false; ///< satisfied from a resume checkpoint
};

/** Parse a configuration document into job specs; fatal()s on schema
 *  violations (unknown benchmark, missing analysis clause, ...). */
std::vector<JobSpec> parseConfig(const support::yaml::Node& doc);

/** Parse a configuration file. */
std::vector<JobSpec> parseConfigFile(const std::string& path);

/** Execute all jobs and collect results in job order. */
std::vector<JobResult> runJobs(const std::vector<JobSpec>& jobs,
                               const HarnessOptions& options);

/** Render results as an aligned table. */
void printResults(std::ostream& os,
                  const std::vector<JobResult>& results);

/** Render results in the JSON interchange format (one entry per job). */
support::json::Value resultsToJson(const std::vector<JobResult>& results);

} // namespace hpcmixp::harness

#endif // HPCMIXP_HARNESS_HARNESS_H_
