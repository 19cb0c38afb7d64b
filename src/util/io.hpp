/**
 * @file
 * Durable file IO helpers for the checkpoint publish path.
 *
 * Rename-atomicity alone only orders the *names*; without an fsync of
 * the temp file a crash after the rename can still publish a file
 * whose data blocks never reached the disk -- exactly the torn archive
 * the rename was supposed to prevent.  These helpers pin the data
 * (fsyncFile) and the directory entry (fsyncParentDir) on platforms
 * that support it, and degrade to no-ops elsewhere.
 */

#ifndef ISINGRBM_UTIL_IO_HPP
#define ISINGRBM_UTIL_IO_HPP

#include <string>

namespace ising::util {

/**
 * Flush a file's data and metadata to stable storage.
 * Returns false (with errno-style detail in @p error when non-null)
 * when the file cannot be opened or synced.
 */
bool fsyncFile(const std::string &path, std::string *error = nullptr);

/**
 * Flush the directory entry containing @p path (after a rename, the
 * new name itself needs to be durable).  Best-effort: failures are
 * reported but some filesystems do not support directory fsync.
 */
bool fsyncParentDir(const std::string &path, std::string *error = nullptr);

/**
 * Read a whole regular file into a string.  Returns false (with detail
 * in @p error when non-null) when it is not one or cannot be read.
 */
bool slurpFile(const std::string &path, std::string &out,
               std::string *error = nullptr);

} // namespace ising::util

#endif // ISINGRBM_UTIL_IO_HPP
