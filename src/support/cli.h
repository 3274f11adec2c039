#ifndef HPCMIXP_SUPPORT_CLI_H_
#define HPCMIXP_SUPPORT_CLI_H_

/**
 * @file
 * Minimal command-line flag parser used by the harness, benches and
 * examples. Supports `--flag value`, `--flag=value` and boolean
 * `--flag` forms plus positional arguments.
 */

#include <map>
#include <string>
#include <vector>

namespace hpcmixp::support {

/** Parsed command line: named flags plus positional arguments. */
class CommandLine {
  public:
    /** Parse argv; fatal()s on `--unknown=` syntax errors only. */
    CommandLine(int argc, const char* const* argv);

    /** True if `--name` appeared (with or without a value). */
    bool has(const std::string& name) const;

    /** Value of `--name`, or @p fallback when absent. */
    std::string getString(const std::string& name,
                          const std::string& fallback) const;

    /** Integer value of `--name`, or @p fallback when absent. */
    long getLong(const std::string& name, long fallback) const;

    /** Double value of `--name`, or @p fallback when absent. */
    double getDouble(const std::string& name, double fallback) const;

    /** Boolean flag: present without value, or value in {1,true,yes}. */
    bool getBool(const std::string& name, bool fallback) const;

    /** fatal()s naming the first flag (in name order) that is not in
     *  @p known, so a mistyped or retired flag stops the program
     *  instead of being silently ignored. */
    void rejectUnknown(const std::vector<std::string>& known) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string>& positional() const { return positional_; }

    /** Program name (argv[0]). */
    const std::string& program() const { return program_; }

  private:
    std::string program_;
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

} // namespace hpcmixp::support

#endif // HPCMIXP_SUPPORT_CLI_H_
