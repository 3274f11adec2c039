#ifndef HPCMIXP_SEARCH_PROBLEM_H_
#define HPCMIXP_SEARCH_PROBLEM_H_

/**
 * @file
 * The search-problem abstraction consumed by all strategies.
 *
 * A SearchProblem exposes a space of sites and evaluates configurations
 * over them. The benchmark adapters in `core/` provide two flavours:
 * cluster-level (one site per Typeforge cluster) and variable-level
 * (one site per variable, used by CM/HR/HC, where cluster-inconsistent
 * choices surface as compile failures).
 */

#include <cstddef>
#include <string>
#include <vector>

#include "search/config.h"

namespace hpcmixp::search {

/** Outcome classes of evaluating a configuration. */
enum class EvalStatus {
    Pass,        ///< compiled, ran, and met the quality threshold
    QualityFail, ///< ran but exceeded the quality threshold
    CompileFail, ///< invalid configuration (cluster split); never ran
    RuntimeFail, ///< crashed / produced non-finite output structure
};

/** Result of evaluating one configuration. */
struct Evaluation {
    EvalStatus status = EvalStatus::CompileFail;
    double runtimeSeconds = 0.0; ///< mean runtime (valid when it ran)
    double speedup = 0.0;        ///< baseline time / this time
    double qualityLoss = 0.0;    ///< uniform metric loss (NaN possible)

    /**
     * Transient (never serialized): the attempt itself reports that it
     * blew the deadline — a pool worker the parent SIGKILLed. The
     * resilience layer counts it exactly like a straggler it timed out
     * post-hoc, keeping counters identical across isolation modes.
     */
    bool deadlineMiss = false;

    /**
     * Transient (never serialized): false marks a result that must not
     * be published to the cross-run memo-cache — a killed or crashed
     * sandbox child produced no trustworthy measurement, only this
     * run's quarantine decision.
     */
    bool memoizable = true;

    bool passed() const { return status == EvalStatus::Pass; }
    bool ran() const
    {
        return status == EvalStatus::Pass ||
               status == EvalStatus::QualityFail ||
               status == EvalStatus::RuntimeFail;
    }
};

/**
 * Program-structure tree for the hierarchical strategies:
 * root (whole program) -> modules -> functions -> single variables.
 * `sites` lists every site contained in the subtree.
 */
struct StructureNode {
    std::string name;
    std::vector<std::size_t> sites;
    std::vector<StructureNode> children;

    bool isLeaf() const { return children.empty(); }
};

/** A tunable program under a fixed verification routine. */
class SearchProblem {
  public:
    virtual ~SearchProblem() = default;

    /** Number of search sites. */
    virtual std::size_t siteCount() const = 0;

    /**
     * Evaluate one configuration (uncached; strategies go through
     * SearchContext which caches and meters).
     */
    virtual Evaluation evaluate(const Config& config) = 0;

    /**
     * Program-structure tree, or nullptr when the problem has no
     * hierarchy (cluster-level problems). Required by HR and HC.
     */
    virtual const StructureNode* structure() const { return nullptr; }

    /**
     * Deepest ladder level a site may take (= PrecisionLadder
     * rungs - 1). The default of 1 is the classic binary
     * double-vs-float campaign; every strategy's multi-rung logic is
     * gated behind maxLevel() > 1, keeping two-rung trajectories
     * bit-identical to the pre-ladder code (property-pinned).
     */
    virtual std::size_t maxLevel() const { return 1; }
};

} // namespace hpcmixp::search

#endif // HPCMIXP_SEARCH_PROBLEM_H_
