/**
 * @file
 * Minimal leveled logging used by trainers and benches.
 *
 * Modeled loosely on gem5's inform()/warn() family: these calls report
 * status to the user and never abort the program; fatal() exits with an
 * error code for user-level misconfiguration.
 */

#ifndef ISINGRBM_UTIL_LOGGING_HPP
#define ISINGRBM_UTIL_LOGGING_HPP

#include <sstream>
#include <stdexcept>
#include <string>

namespace ising::util {

/** Severity levels in increasing order of urgency. */
enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/** Global threshold; messages below it are discarded. */
void setLogLevel(LogLevel level);
LogLevel logLevel();

/** Emit one line at the given level (no newline needed). */
void logMessage(LogLevel level, const std::string &msg);

/** Informative message users should know but not worry about. */
inline void
inform(const std::string &msg)
{
    logMessage(LogLevel::Info, msg);
}

/** Something may be off but execution can continue. */
inline void
warn(const std::string &msg)
{
    logMessage(LogLevel::Warn, msg);
}

/** Debug chatter, off by default. */
inline void
debug(const std::string &msg)
{
    logMessage(LogLevel::Debug, msg);
}

/**
 * Unrecoverable user-level error: print and exit(1).
 *
 * Inside a FatalThrowScope (same thread), it throws FatalError instead
 * of exiting, so a supervising layer -- the serving path, a
 * checkpoint-write retry loop -- can contain the failure to one
 * request or one attempt rather than the whole process.
 */
[[noreturn]] void fatal(const std::string &msg);

/** What fatal() throws while a FatalThrowScope is active. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * RAII guard: while alive, fatal() on this thread throws FatalError.
 * Scopes nest (the outermost restores exit-on-fatal), and the flag is
 * thread-local -- a scope on the serving thread does not change what
 * fatal() does on worker threads.
 */
class FatalThrowScope
{
  public:
    FatalThrowScope();
    ~FatalThrowScope();
    FatalThrowScope(const FatalThrowScope &) = delete;
    FatalThrowScope &operator=(const FatalThrowScope &) = delete;

  private:
    bool prev_;
};

/** True when fatal() on this thread would throw instead of exit. */
bool fatalThrows();

/** printf-style convenience built on ostringstream. */
template <typename... Args>
std::string
strcat(Args &&...args)
{
    std::ostringstream os;
    ((os << args), ...);
    return os.str();
}

} // namespace ising::util

#endif // ISINGRBM_UTIL_LOGGING_HPP
