/**
 * @file
 * ModelRegistry implementation: load-once cache, stamp revalidation,
 * and the last-known-good degradation path.
 */

#include "engine/registry.hpp"

#include <algorithm>
#include <filesystem>

#include "util/logging.hpp"

namespace ising::engine {

namespace fs = std::filesystem;

namespace {

/**
 * Quarantine backoff for a name whose on-disk archive stopped loading:
 * the first failed reload waits this long before the next attempt,
 * doubling per failure up to the cap.  Gets inside the window serve
 * the cached last-good model without touching the bad archive.
 */
constexpr long kReloadBackoffMinMs = 100;
constexpr long kReloadBackoffMaxMs = 5000;

} // namespace

ModelRegistry::ModelRegistry(std::string dir, exec::ThreadPool *pool)
    : dir_(std::move(dir)), pool_(pool)
{
    if (dir_.empty())
        util::fatal("registry: empty checkpoint directory");
}

Status
ModelRegistry::validateName(const std::string &name)
{
    // Names become file stems and single-token checkpoint meta values;
    // reject anything else here so callers fail before doing work
    // (e.g. the CLI validates the name before a long training run).
    if (name.empty() || name.find('/') != std::string::npos ||
        name.find_first_of(" \t\r\n") != std::string::npos)
        return Status(StatusCode::InvalidArgument,
                      "registry: invalid model name '" + name +
                          "' (no whitespace or '/')");
    return Status::okStatus();
}

std::string
ModelRegistry::pathFor(const std::string &name) const
{
    const Status valid = validateName(name);
    if (!valid.ok())
        util::fatal(valid.message());
    return (fs::path(dir_) / (name + rbm::kCheckpointExtension)).string();
}

bool
ModelRegistry::contains(const std::string &name) const
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = cache_.find(name);
        if (it != cache_.end() && it->second.model)
            return true;
    }
    std::error_code ec;
    return fs::exists(pathFor(name), ec);
}

ModelRegistry::FileStamp
ModelRegistry::stampFor(const std::string &path)
{
    FileStamp stamp;
    std::error_code ec;
    stamp.mtime = fs::last_write_time(path, ec);
    stamp.size = fs::file_size(path, ec);
    if (ec)
        stamp.size = 0;
    // Fold the integrity trailer in: an overwrite that lands within
    // mtime granularity and preserves the byte size still changes the
    // body checksum, so the stale-serve race is closed for any archive
    // that carries a trailer.
    if (const auto trailer = rbm::readArchiveTrailer(path)) {
        stamp.trailer = *trailer;
        stamp.hasTrailer = true;
    }
    return stamp;
}

Result<std::shared_ptr<const Model>>
ModelRegistry::loadModelFile(const std::string &path,
                             const FileStamp &stamp) const
{
    std::string error;
    auto ckpt = rbm::tryLoadCheckpointFile(path, &error);
    if (!ckpt)
        return Status(StatusCode::DataLoss, error);
    try {
        // Model construction validates shapes and can reject archives
        // that parsed but cannot be served; contain that too.
        util::FatalThrowScope scope;
        auto model = std::make_shared<Model>(std::move(*ckpt), pool_);
        if (stamp.hasTrailer)
            model->setStamp(stamp.trailer);
        return std::shared_ptr<const Model>(std::move(model));
    } catch (const util::FatalError &e) {
        return Status(StatusCode::DataLoss, e.what());
    }
}

std::shared_ptr<const Model>
ModelRegistry::install(const std::string &name,
                       std::shared_ptr<const Model> model,
                       const FileStamp &stamp)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &entry = cache_[name];
    entry.model = std::move(model);
    entry.stamp = stamp;
    entry.failedReloads = 0;
    entry.retryAfter = {};
    entry.lastError.clear();
    return entry.model;
}

Result<std::shared_ptr<const Model>>
ModelRegistry::tryGet(const std::string &name)
{
    const Status valid = validateName(name);
    if (!valid.ok())
        return valid;
    const std::string path =
        (fs::path(dir_) / (name + rbm::kCheckpointExtension)).string();

    std::error_code ec;
    const bool onDiskExists = fs::exists(path, ec);
    const FileStamp onDisk = onDiskExists ? stampFor(path) : FileStamp{};
    const auto now = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = cache_.find(name);
        if (it != cache_.end()) {
            Entry &entry = it->second;
            // Serve the cache while the archive is unchanged: a
            // checkpoint overwritten mid-training must not be served
            // stale.
            if (entry.model && entry.failedReloads == 0 &&
                onDiskExists && entry.stamp == onDisk)
                return entry.model;
            // Quarantined and still inside the backoff window: serve
            // the last-good model without touching the bad archive --
            // unless a complete archive (it carries a trailer) has
            // replaced the one that failed.
            const bool replaced =
                onDisk.hasTrailer && onDisk != entry.failedStamp;
            if (entry.failedReloads > 0 && now < entry.retryAfter &&
                !replaced) {
                if (entry.model) {
                    ++stats_.reloadFallbacks;
                    return entry.model;
                }
                return Status(StatusCode::DataLoss, entry.lastError);
            }
        }
    }

    if (!onDiskExists) {
        // A cached model whose archive vanished is handled below as a
        // failed reload; a cold miss is a plain NotFound.
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = cache_.find(name);
        if (it == cache_.end() || !it->second.model)
            return Status(StatusCode::NotFound,
                          "registry: no model named '" + name + "' (" +
                              path + " does not exist)");
    }

    // Load outside the lock (archives can be large); when two threads
    // race on the same cold name, the last insertion wins and the
    // losers' redundant loads are discarded.
    auto loaded =
        onDiskExists
            ? loadModelFile(path, onDisk)
            : Result<std::shared_ptr<const Model>>(Status(
                  StatusCode::NotFound,
                  "registry: archive " + path + " disappeared"));
    if (loaded.ok())
        return install(name, std::move(loaded).value(), onDisk);

    // Reload failed: quarantine the path with capped exponential
    // backoff and degrade to the last-known-good model if we have one.
    std::lock_guard<std::mutex> lock(mutex_);
    auto &entry = cache_[name];
    ++entry.failedReloads;
    long backoffMs = kReloadBackoffMinMs;
    for (int i = 1;
         i < entry.failedReloads && backoffMs < kReloadBackoffMaxMs; ++i)
        backoffMs *= 2;
    backoffMs = std::min(backoffMs, kReloadBackoffMaxMs);
    entry.retryAfter = now + std::chrono::milliseconds(backoffMs);
    entry.lastError = loaded.status().toString();
    entry.failedStamp = onDisk;
    if (entry.model) {
        ++stats_.reloadFallbacks;
        util::warn("registry: reload of '" + name +
                   "' failed; serving last-known-good model (retry in " +
                   std::to_string(backoffMs) +
                   " ms): " + entry.lastError);
        return entry.model;
    }
    ++stats_.loadFailures;
    return loaded.status();
}

std::shared_ptr<const Model>
ModelRegistry::get(const std::string &name)
{
    auto result = tryGet(name);
    if (!result.ok())
        util::fatal(result.status().message());
    return std::move(result).value();
}

std::shared_ptr<const Model>
ModelRegistry::put(const std::string &name, rbm::Checkpoint ckpt)
{
    ckpt.meta.name = name;
    ensureDir();
    const std::string path = pathFor(name);
    rbm::saveCheckpoint(ckpt, path);
    const FileStamp stamp = stampFor(path);
    auto model = std::make_shared<Model>(std::move(ckpt), pool_);
    if (stamp.hasTrailer)
        model->setStamp(stamp.trailer);
    return install(name, std::move(model), stamp);
}

void
ModelRegistry::ensureDir()
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        util::fatal("registry: cannot create directory " + dir_ + ": " +
                    ec.message());
}

std::vector<std::string>
ModelRegistry::names() const
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file())
            continue;
        const fs::path path = entry.path();
        if (path.extension() == rbm::kCheckpointExtension)
            out.push_back(path.stem().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

void
ModelRegistry::evict(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.erase(name);
}

std::shared_ptr<const Model>
ModelRegistry::candidate(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = candidates_.find(name);
    return it != candidates_.end() ? it->second.model : nullptr;
}

std::string
ModelRegistry::candidatePath(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = candidates_.find(name);
    return it != candidates_.end() ? it->second.path : std::string();
}

void
ModelRegistry::clearCandidate(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    candidates_.erase(name);
}

void
ModelRegistry::noteRollback()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rollbacks;
}

std::size_t
ModelRegistry::cachedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t count = 0;
    for (const auto &[name, entry] : cache_)
        if (entry.model)
            ++count;
    return count;
}

ModelRegistry::Stats
ModelRegistry::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = stats_;
    out.quarantined = 0;
    for (const auto &[name, entry] : cache_)
        if (entry.failedReloads > 0)
            ++out.quarantined;
    return out;
}

} // namespace ising::engine
