#ifndef HPCMIXP_SEARCH_PRIOR_H_
#define HPCMIXP_SEARCH_PRIOR_H_

/**
 * @file
 * Static sensitivity prior for the search strategies.
 *
 * mixp-lint (typeforge/lint.h) classifies each search site before any
 * configuration runs; StaticPrior carries those verdicts into the
 * search layer in site-index space, so the search library does not
 * depend on typeforge. A prior affects strategies three ways:
 *
 *  - *pinned* sites (KeepDouble verdicts) are removed from the
 *    enumerated space of CB / CM / DD / HR / HC — they stay double in
 *    every generated configuration;
 *  - the *narrow* mask (SafeToNarrow verdicts) seeds the GA's initial
 *    population with one individual that lowers exactly those sites;
 *  - per-site *scores* order hierarchical traversal by descending
 *    sensitivity, so HR/HC visit the risky components first.
 *
 * Under a multi-rung PrecisionLadder each verdict generalizes to a
 * per-site *level cap* — the deepest ladder level the site may take.
 * A pin is simply cap 0; an Unknown verdict caps at level 1 (float);
 * SafeToNarrow leaves the site unbounded. Strategies never propose a
 * level above a site's cap; clamped() maps an arbitrary configuration
 * into the capped space.
 *
 * Modes (harness `--static-prior`):
 *  - Off: no prior; trajectories are bit-identical to a build without
 *         this subsystem.
 *  - On:  prune + seed + order as above.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "search/config.h"

namespace hpcmixp::search {

/** Prior application mode (harness --static-prior=on|off). */
enum class PriorMode { Off, On };

/** Stable lowercase name ("off", "on"). */
const char* priorModeName(PriorMode mode);

/** Parse a --static-prior spelling; fatal()s on anything else. */
PriorMode parsePriorMode(const std::string& text);

/** Per-site static sensitivity verdicts, in site-index space. */
class StaticPrior {
  public:
    /** An absent prior (mode Off, no effect on any strategy). */
    StaticPrior() = default;

    /**
     * A prior with an explicit per-site level cap (0 = pinned to
     * double, kUnbounded = any rung). @p narrow marks SafeToNarrow
     * sites, @p scores carries the per-site sensitivity scores
     * (higher = more sensitive). All three vectors must agree on the
     * site count.
     */
    static StaticPrior withCaps(PriorMode mode,
                                std::vector<std::uint8_t> caps,
                                std::vector<bool> narrow,
                                std::vector<int> scores);

    /** Cap value meaning "no floor — any ladder rung is allowed". */
    static constexpr std::uint8_t kUnbounded = 255;

    /** True when the prior participates in search (mode != Off). */
    bool enabled() const { return mode_ != PriorMode::Off; }

    /** Number of sites this prior was built for. */
    std::size_t siteCount() const { return caps_.size(); }

    /** Is site @p i pinned to double (level cap 0)? */
    bool pinned(std::size_t i) const { return caps_[i] == 0; }

    /** Deepest ladder level site @p i may take. */
    std::uint8_t levelCap(std::size_t i) const { return caps_[i]; }

    /** Number of pinned sites. */
    std::size_t pinnedCount() const;

    /** Sensitivity score of site @p i. */
    int score(std::size_t i) const { return scores_[i]; }

    /** Indices of sites free to vary (not pinned), ascending. */
    std::vector<std::size_t> freeSites() const;

    /** GA seed: the SafeToNarrow mask (never includes pinned sites). */
    Config seedConfig() const;

    /** @p config with every site clamped to its level cap. */
    Config clamped(Config config) const;

    /** Sum of member scores over @p sites (hierarchical ordering). */
    int groupScore(const std::vector<std::size_t>& sites) const;

  private:
    PriorMode mode_ = PriorMode::Off;
    std::vector<std::uint8_t> caps_; ///< per-site level cap
    std::vector<bool> narrow_;
    std::vector<int> scores_;
};

} // namespace hpcmixp::search

#endif // HPCMIXP_SEARCH_PRIOR_H_
