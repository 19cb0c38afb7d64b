/**
 * @file
 * Durable file IO helpers (POSIX fsync; no-ops elsewhere).
 */

#include "util/io.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#define ISINGRBM_HAVE_FSYNC 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace ising::util {

namespace {

#ifdef ISINGRBM_HAVE_FSYNC
bool
syncPath(const std::string &path, int openFlags, std::string *error)
{
    const int fd = ::open(path.c_str(), openFlags);
    if (fd < 0) {
        if (error)
            *error = path + ": open: " + std::strerror(errno);
        return false;
    }
    const bool ok = ::fsync(fd) == 0;
    if (!ok && error)
        *error = path + ": fsync: " + std::strerror(errno);
    ::close(fd);
    return ok;
}
#endif

} // namespace

bool
fsyncFile(const std::string &path, std::string *error)
{
#ifdef ISINGRBM_HAVE_FSYNC
    return syncPath(path, O_RDONLY, error);
#else
    (void)path;
    (void)error;
    return true;
#endif
}

bool
fsyncParentDir(const std::string &path, std::string *error)
{
#ifdef ISINGRBM_HAVE_FSYNC
    std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (parent.empty())
        parent = ".";
    return syncPath(parent.string(), O_RDONLY | O_DIRECTORY, error);
#else
    (void)path;
    (void)error;
    return true;
#endif
}

bool
slurpFile(const std::string &path, std::string &out, std::string *error)
{
    // A directory opens and reports an end offset near 2^63, which must
    // not become a string size.
    std::error_code ec;
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is || !std::filesystem::is_regular_file(path, ec)) {
        if (error)
            *error = "cannot open for reading: " + path;
        return false;
    }
    // One read into a string sized from the open file (the same inode
    // a concurrent rename-publish cannot swap): no staging copy.
    const std::streamoff size = is.tellg();
    if (size >= 0) {
        out.resize(static_cast<std::size_t>(size));
        if (is.seekg(0) && is.read(out.data(), size))
            return true;
    }
    if (error)
        *error = "read failed: " + path;
    return false;
}

} // namespace ising::util
