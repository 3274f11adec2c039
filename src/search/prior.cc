#include "search/prior.h"

#include "support/logging.h"

namespace hpcmixp::search {

using support::fatal;
using support::strCat;

const char*
priorModeName(PriorMode mode)
{
    switch (mode) {
    case PriorMode::Off: return "off";
    case PriorMode::On: return "on";
    }
    return "off";
}

PriorMode
parsePriorMode(const std::string& text)
{
    if (text == "off")
        return PriorMode::Off;
    if (text == "on")
        return PriorMode::On;
    fatal(strCat("unknown --static-prior mode '", text,
                 "' (expected on or off)"));
}

StaticPrior
StaticPrior::withCaps(PriorMode mode, std::vector<std::uint8_t> caps,
                      std::vector<bool> narrow,
                      std::vector<int> scores)
{
    StaticPrior prior;
    prior.mode_ = mode;
    prior.caps_ = std::move(caps);
    prior.narrow_ = std::move(narrow);
    prior.scores_ = std::move(scores);
    HPCMIXP_ASSERT(prior.caps_.size() == prior.narrow_.size() &&
                       prior.caps_.size() == prior.scores_.size(),
                   "static prior vectors disagree on site count");
    return prior;
}

std::size_t
StaticPrior::pinnedCount() const
{
    std::size_t n = 0;
    for (std::uint8_t cap : caps_)
        if (cap == 0)
            ++n;
    return n;
}

std::vector<std::size_t>
StaticPrior::freeSites() const
{
    std::vector<std::size_t> free;
    free.reserve(caps_.size());
    for (std::size_t i = 0; i < caps_.size(); ++i)
        if (caps_[i] != 0)
            free.push_back(i);
    return free;
}

Config
StaticPrior::seedConfig() const
{
    Config config(caps_.size());
    for (std::size_t i = 0; i < narrow_.size(); ++i)
        if (narrow_[i] && caps_[i] != 0)
            config.set(i);
    return config;
}

Config
StaticPrior::clamped(Config config) const
{
    for (std::size_t i = 0; i < caps_.size() && i < config.size();
         ++i)
        if (config.level(i) > caps_[i])
            config.setLevel(i, caps_[i]);
    return config;
}

int
StaticPrior::groupScore(const std::vector<std::size_t>& sites) const
{
    int total = 0;
    for (std::size_t site : sites)
        if (site < scores_.size())
            total += scores_[site];
    return total;
}

} // namespace hpcmixp::search
