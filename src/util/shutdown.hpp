/**
 * @file
 * Cooperative SIGINT/SIGTERM shutdown latch.
 *
 * The long-running serving process (`isingrbm serve`) must not die
 * mid-write under Ctrl-C: the handler only sets a flag, and the
 * serving loop polls it to stop accepting, drain in-flight work,
 * reply to queued requests, and exit 0.  The handler is installed
 * without SA_RESTART so a blocking epoll_wait/accept returns EINTR
 * immediately and the loop notices the flag on its next iteration.
 */

#ifndef ISINGRBM_UTIL_SHUTDOWN_HPP
#define ISINGRBM_UTIL_SHUTDOWN_HPP

namespace ising::util {

/** Install the SIGINT/SIGTERM flag-setting handler (idempotent). */
void installShutdownHandler();

/** True once SIGINT or SIGTERM has been delivered. */
bool shutdownRequested();

/** Rearm for another run (tests). */
void clearShutdownRequest();

} // namespace ising::util

#endif // ISINGRBM_UTIL_SHUTDOWN_HPP
