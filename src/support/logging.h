#ifndef HPCMIXP_SUPPORT_LOGGING_H_
#define HPCMIXP_SUPPORT_LOGGING_H_

/**
 * @file
 * Status-message and error-reporting helpers.
 *
 * Follows the gem5 fatal/panic distinction:
 *  - fatal():  the *user* did something wrong (bad configuration, invalid
 *              arguments); throws FatalError without printing, so the
 *              catch that handles it reports the message exactly once.
 *  - panic():  an internal invariant was violated (a bug in this library);
 *              aborts after printing.
 *  - warn()/inform(): non-fatal status messages.
 */

#include <sstream>
#include <stdexcept>
#include <string>

namespace hpcmixp::support {

/** Error thrown by fatal(): a user-correctable condition. */
class FatalError : public std::runtime_error {
  public:
    explicit FatalError(const std::string& what_arg)
        : std::runtime_error(what_arg) {}
};

/** Verbosity levels for the global logger. */
enum class LogLevel { Quiet = 0, Warn = 1, Inform = 2, Debug = 3 };

/** Set the global verbosity (default: Warn). */
void setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

/** Print an informational message (shown at Inform verbosity and above). */
void inform(const std::string& msg);

/** Print a warning (shown at Warn verbosity and above). */
void warn(const std::string& msg);

/** Print a debug message (shown only at Debug verbosity). */
void debug(const std::string& msg);

/** Report a user error: throw FatalError (the catcher prints it). */
[[noreturn]] void fatal(const std::string& msg);

/** Report an internal library bug: print and abort. */
[[noreturn]] void panic(const std::string& msg);

/** Build a message from streamable parts: strCat("x=", 3, "!"). */
template <class... Args>
std::string
strCat(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

/** Assert an internal invariant; panics with location info on failure. */
#define HPCMIXP_ASSERT(cond, msg)                                            \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::hpcmixp::support::panic(::hpcmixp::support::strCat(            \
                __FILE__, ":", __LINE__, ": assertion `", #cond,             \
                "' failed: ", msg));                                         \
        }                                                                    \
    } while (0)

} // namespace hpcmixp::support

#endif // HPCMIXP_SUPPORT_LOGGING_H_
