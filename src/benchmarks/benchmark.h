#ifndef HPCMIXP_BENCHMARKS_BENCHMARK_H_
#define HPCMIXP_BENCHMARKS_BENCHMARK_H_

/**
 * @file
 * The benchmark abstraction of HPC-MixPBench.
 *
 * A Benchmark bundles:
 *  - a mixed-precision *executable*: run() executes the workload with
 *    the precision of each tunable knob chosen at runtime (region
 *    templates over mp::Buffer storage, see runtime/dispatch.h);
 *  - a ProgramModel mirroring the benchmark's source structure, whose
 *    variables carry *bind keys* naming the runtime knobs they control;
 *  - metadata: kernel vs application, preferred quality metric
 *    (MAE for all programs except K-means, which uses MCR — paper
 *    Section IV).
 *
 * Execution is split into two phases so the tuner pays configuration
 * cost once, not once per timed repetition:
 *
 *  - prepare(pm) resolves every knob of the PrecisionMap and binds the
 *    precision-converted input views into a RunPlan. Input conversion
 *    goes through a per-benchmark immutable CachedInput, so each
 *    source array is converted to a given precision at most once per
 *    process.
 *  - execute(plan, workspace) runs the timed kernel region against a
 *    reusable RunWorkspace that recycles output/scratch storage across
 *    repetitions and configurations.
 *
 * run() composes the two against a private workspace; user benchmarks
 * may override run() alone (simplest) or the prepare()/execute() pair.
 *
 * run()/execute() must be deterministic for a fixed PrecisionMap: all
 * synthetic inputs are generated from fixed seeds, so verification
 * compares numerics only.
 */

#include <cstddef>
#include <deque>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "model/bind_keys.h"
#include "model/program_model.h"
#include "runtime/buffer.h"
#include "runtime/precision.h"
#include "runtime/profiler.h"
#include "runtime/workspace.h"

namespace hpcmixp::benchmarks {

/**
 * Precision assignment for a benchmark's runtime knobs.
 *
 * Keys are stored interned (model::BindKeyId), so the per-prepare
 * lookups are integer scans of a short vector rather than repeated
 * string comparisons. Querying a key that no ProgramModel variable
 * declares warns once per key — such a key can never be set by the
 * tuner, so the query is almost certainly a typo'd knob name.
 */
class PrecisionMap {
  public:
    /** Precision of knob @p key; unmentioned knobs default to double. */
    runtime::Precision get(const std::string& key) const;

    /** As above for a pre-interned key (the hot path). */
    runtime::Precision get(model::BindKeyId key) const;

    /** Set knob @p key to @p p. */
    void set(const std::string& key, runtime::Precision p);

    /** As above for a pre-interned key. */
    void set(model::BindKeyId key, runtime::Precision p);

    /** True when every knob is left at double precision. */
    bool allDouble() const;

    /** Name the benchmark/model this map configures (used to attribute
     *  undeclared-key warnings to the offending prepare()). */
    void setOwner(std::string owner) { owner_ = std::move(owner); }

    /** The owning benchmark/model name; empty when unattributed. */
    const std::string& owner() const { return owner_; }

  private:
    std::vector<std::pair<model::BindKeyId, runtime::Precision>>
        entries_;
    std::string owner_;
};

/** The canonical output of one benchmark run. */
struct RunOutput {
    std::vector<double> values; ///< widened output vector (may hold NaN)
};

/**
 * An immutable input array with cached per-precision runtime views.
 *
 * Benchmarks keep their seeded source data in CachedInput members; the
 * double and float views are materialized lazily, at most once per
 * process, under a once-flag (thread-safe, so concurrent `--search-jobs`
 * evaluators can share one benchmark instance). The cached conversion
 * is Buffer::fromDoubles, bit-identical to a fresh per-run conversion.
 *
 * Assign the source values before the first view() call; the views
 * are immutable afterwards.
 */
class CachedInput {
  public:
    CachedInput() = default;
    explicit CachedInput(std::vector<double> values)
        : values_(std::move(values))
    {
    }

    CachedInput&
    operator=(std::vector<double> values)
    {
        values_ = std::move(values);
        return *this;
    }

    /** Element count of the source array. */
    std::size_t size() const { return values_.size(); }

    /** The source values (always double). */
    std::span<const double> doubles() const { return values_; }

    /** Cached immutable view at @p p, converted on first use. */
    const runtime::Buffer& view(runtime::Precision p) const;

    /** Freshly converted owning copy — the seed's per-run cost,
     *  kept for the uncached prepare path (see PrepareOptions). */
    runtime::Buffer convert(runtime::Precision p) const;

  private:
    std::vector<double> values_;
    mutable std::once_flag onceBf16_;
    mutable std::once_flag once16_;
    mutable std::once_flag once32_;
    mutable std::once_flag once64_;
    mutable runtime::Buffer bf16_;
    mutable runtime::Buffer f16_;
    mutable runtime::Buffer f32_;
    mutable runtime::Buffer f64_;
};

/** Options for Benchmark::prepare(). */
struct PrepareOptions {
    /**
     * Bind inputs from the benchmark's input cache (the default,
     * convert-once-per-process). When false every input is freshly
     * converted into plan-owned storage — the per-run conversion cost
     * of the pre-split pipeline, kept so campaign_bench can time the
     * conversion (runtime.convert_s) and tests can prove the two
     * bit-identical.
     */
    bool reuseInputCache = true;
};

/**
 * A resolved, executable configuration of one benchmark.
 *
 * prepare() fills two dense slot-indexed tables: knob precisions
 * (one per tunable knob, resolved from the PrecisionMap once) and
 * input views (borrowed from the input cache, or plan-owned fresh
 * conversions). A plan stays valid for the benchmark's lifetime and
 * may be executed any number of times, from any thread.
 */
class RunPlan {
  public:
    /** Record the resolved precision of knob slot @p slot. */
    void setKnob(std::size_t slot, runtime::Precision p);

    /** Resolved precision of knob slot @p slot. */
    runtime::Precision knob(std::size_t slot) const;

    /** Bind slot @p slot to an externally owned (cached) view. */
    void bindInput(std::size_t slot, const runtime::Buffer& view);

    /** Bind slot @p slot to a freshly converted plan-owned buffer. */
    void adoptInput(std::size_t slot, runtime::Buffer owned);

    /** The input bound to slot @p slot. */
    const runtime::Buffer& input(std::size_t slot) const;

  private:
    friend class Benchmark;

    std::vector<runtime::Precision> knobs_;
    std::vector<const runtime::Buffer*> inputs_;
    // Deque: growing must not move buffers inputs_ points into.
    std::deque<runtime::Buffer> owned_;

    // Fallback for benchmarks that only override run().
    PrecisionMap fallbackMap_;
    bool fallbackOnly_ = false;
};

/** Bind @p input at @p slot: cached view or fresh copy per options. */
inline void
bindInput(RunPlan& plan, std::size_t slot, const CachedInput& input,
          runtime::Precision p, const PrepareOptions& options)
{
    if (options.reuseInputCache)
        plan.bindInput(slot, input.view(p));
    else
        plan.adoptInput(slot, input.convert(p));
}

/**
 * As above, additionally logging the input's observed min/max under
 * the bind key @p key when the profiler's value-range recording is
 * active (one branch when it is not). The recorded ranges feed the
 * typeforge absint soundness cross-check: every statically derived
 * interval must contain what the benchmark actually binds.
 */
inline void
bindInput(RunPlan& plan, std::size_t slot, const CachedInput& input,
          runtime::Precision p, const PrepareOptions& options,
          model::BindKeyId key)
{
    if (runtime::Profiler::instance().rangeRecording()) {
        std::span<const double> values = input.doubles();
        if (!values.empty()) {
            double lo = values[0];
            double hi = values[0];
            for (double v : values) {
                lo = v < lo ? v : lo;
                hi = v > hi ? v : hi;
            }
            runtime::Profiler::instance().recordRange(
                model::bindKeyName(key), lo, hi, values.size());
        }
    }
    bindInput(plan, slot, input, p, options);
}

/**
 * Knobs of the iterative-refinement wrapper (`--refine=on`).
 *
 * Refinement follows the HPL-MxP recipe: execute at the configured
 * (low) precision, compute the residual against the exact double
 * inputs, solve a correction at the low precision, and apply the
 * correction in double. Iteration stops when the residual max-norm
 * reaches targetResidual, and *diverges* (throws RefineDiverged) when
 * the residual turns non-finite or grows on consecutive iterations —
 * a diverging configuration must surface as RuntimeFail, not a hang.
 */
struct RefineControl {
    double targetResidual = 1e-10; ///< stop when max|r| falls below
    std::size_t maxIterations = 30; ///< correction-step cap
};

/** Thrown by executeRefined() when refinement diverges. */
class RefineDiverged : public std::runtime_error {
  public:
    explicit RefineDiverged(const std::string& what)
        : std::runtime_error(what)
    {
    }
};

/** One benchmark program of the suite. */
class Benchmark {
  public:
    virtual ~Benchmark() = default;

    /** Suite-unique name, e.g. "hydro-1d" or "lavamd". */
    virtual std::string name() const = 0;

    /** One-line description (Table I / Section III-B). */
    virtual std::string description() const = 0;

    /** True for kernels, false for proxy applications. */
    virtual bool isKernel() const = 0;

    /** Default quality metric name ("MAE", or "MCR" for K-means). */
    virtual std::string qualityMetric() const { return "MAE"; }

    /** The program model consumed by the Typeforge analysis. */
    virtual const model::ProgramModel& programModel() const = 0;

    /**
     * Execute the workload under @p precisions.
     *
     * The default composes prepare() and execute() against a private
     * workspace; a benchmark must override either this or the
     * prepare()/execute() pair.
     */
    virtual RunOutput run(const PrecisionMap& precisions) const;

    /**
     * Resolve @p precisions into an executable plan: one knob lookup
     * and one input bind per slot. The default wraps the map for
     * run()-only benchmarks.
     */
    virtual RunPlan prepare(const PrecisionMap& precisions,
                            const PrepareOptions& options = {}) const;

    /**
     * Run the timed kernel region of @p plan against @p workspace.
     * Deterministic: the same plan yields bit-identical output no
     * matter what the workspace was previously used for.
     */
    virtual RunOutput execute(const RunPlan& plan,
                              runtime::RunWorkspace& workspace) const;

    /**
     * True when the benchmark exposes a residual hook — i.e. its
     * workload is a solve whose answer can be corrected by
     * executeRefined(). Benchmarks without a hook run unrefined even
     * under `--refine=on`.
     */
    virtual bool supportsRefinement() const { return false; }

    /**
     * Execute with iterative-refinement recovery: low-precision
     * solve, double-precision residual, low-precision correction.
     * Throws RefineDiverged when the iteration diverges. Only called
     * when supportsRefinement() is true.
     */
    virtual RunOutput
    executeRefined(const RunPlan& plan,
                   runtime::RunWorkspace& workspace,
                   const RefineControl& control) const;
};

} // namespace hpcmixp::benchmarks

#endif // HPCMIXP_BENCHMARKS_BENCHMARK_H_
