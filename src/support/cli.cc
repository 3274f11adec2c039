#include "support/cli.h"

#include <algorithm>

#include "support/logging.h"
#include "support/string_util.h"

namespace hpcmixp::support {

CommandLine::CommandLine(int argc, const char* const* argv)
{
    program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (!startsWith(arg, "--")) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            std::string name = body.substr(0, eq);
            if (name.empty())
                fatal(strCat("malformed flag '", arg, "'"));
            flags_[name] = body.substr(eq + 1);
        } else if (i + 1 < argc && !startsWith(argv[i + 1], "--")) {
            flags_[body] = argv[++i];
        } else {
            flags_[body] = "";
        }
    }
}

void
CommandLine::rejectUnknown(const std::vector<std::string>& known) const
{
    for (const auto& [name, value] : flags_)
        if (std::find(known.begin(), known.end(), name) == known.end())
            fatal(strCat("unknown flag '--", name, "'"));
}

bool
CommandLine::has(const std::string& name) const
{
    return flags_.count(name) > 0;
}

std::string
CommandLine::getString(const std::string& name,
                       const std::string& fallback) const
{
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
}

long
CommandLine::getLong(const std::string& name, long fallback) const
{
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback
                              : parseLong(it->second, "--" + name);
}

double
CommandLine::getDouble(const std::string& name, double fallback) const
{
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback
                              : parseDouble(it->second, "--" + name);
}

bool
CommandLine::getBool(const std::string& name, bool fallback) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    if (it->second.empty())
        return true;
    std::string v = toLower(it->second);
    return v == "1" || v == "true" || v == "yes" || v == "on";
}

} // namespace hpcmixp::support
