/**
 * @file
 * Named model registry over a checkpoint directory.
 *
 * The registry maps names to `<dir>/<name>.ckpt` archives, loading
 * each at most once and handing out shared immutable engine::Model
 * views -- the uniform, versioned access layer the serving stack and
 * the isingrbm CLI resolve models through.
 *
 * Fault tolerance: a registry backing a serving process degrades, it
 * does not die.  tryGet() reports failures as engine::Status; when an
 * archive that was previously served is overwritten with something
 * unloadable (truncated, torn, mid-write), the cached last-known-good
 * model keeps being served while the bad path is quarantined and
 * reload is retried with capped exponential backoff.  Cached entries
 * revalidate against an (mtime, size, crc64-trailer) stamp, so even a
 * same-size overwrite within mtime granularity is detected.
 */

#ifndef ISINGRBM_ENGINE_REGISTRY_HPP
#define ISINGRBM_ENGINE_REGISTRY_HPP

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/model.hpp"
#include "engine/status.hpp"

namespace ising::engine {

/** What a promote did (returned for rollbacks too). */
struct PromoteReport
{
    bool promoted = false;
    std::string detail;  ///< one-line human-readable outcome
};

/** Thread-safe load-once cache of checkpoints in one directory. */
class ModelRegistry
{
  public:
    /**
     * @param dir checkpoint directory (created lazily on first put())
     * @param pool worker pool handed to loaded models (borrowed;
     *        nullptr selects exec::globalPool())
     */
    explicit ModelRegistry(std::string dir,
                           exec::ThreadPool *pool = nullptr);

    const std::string &dir() const { return dir_; }

    /** Status-returning model-name validation (tryGet's gate). */
    static Status validateName(const std::string &name);

    /** Archive path of a name (whether or not it exists yet). */
    std::string pathFor(const std::string &name) const;

    /** True when the name is cached or present on disk. */
    bool contains(const std::string &name) const;

    /**
     * Resolve a name: cached model, or load `<dir>/<name>.ckpt`.
     *
     * Cached entries revalidate against the archive's (mtime, size,
     * trailer-checksum) stamp, so a checkpoint overwritten on disk --
     * e.g. by a training session streaming periodic saves into the
     * registry directory -- is transparently reloaded instead of
     * served stale.  When that reload *fails* (truncated/corrupt
     * archive, or one mid-overwrite) the last-good cached model is
     * served instead and the name enters quarantine: subsequent gets
     * keep serving the cached model and only re-attempt the load after
     * a capped exponential backoff, recovering automatically once a
     * loadable archive reappears.  A complete archive (one carrying a
     * CRC trailer) that replaces the one that failed ends the backoff
     * window early; one still mid-write waits it out.  Errors (no
     * cached fallback) are returned as Status, never exiting the
     * process.
     */
    Result<std::shared_ptr<const Model>> tryGet(const std::string &name);

    /** Fatal-on-error convenience over tryGet (CLI one-shot paths). */
    std::shared_ptr<const Model> get(const std::string &name);

    // ------------------------------------------------------ promote
    // Every promote goes through engine::Server's shadow gate, which
    // needs the candidate loaded *beside* the incumbent: the server
    // shadows a seeded fraction of live requests (or, offline, one
    // seeded probe: engine::promoteCandidate) through it, and the gate
    // decides -- promoteStaged() or rollback -- while the incumbent
    // keeps serving every client-visible byte.

    /**
     * Load @p candidatePath aside and hold it as @p name's staged
     * candidate (never into the serving cache).  A torn/unloadable
     * candidate or an input-dim mismatch against a resolvable
     * incumbent is rejected here, before any traffic is shadowed.
     * Restaging replaces the previous candidate.  Defined in
     * promote.cpp (crash point "canary.stage").
     */
    Status stageCandidate(const std::string &name,
                          const std::string &candidatePath);

    /** The staged candidate model (nullptr when none). */
    std::shared_ptr<const Model> candidate(const std::string &name) const;

    /** Source path the candidate was staged from (empty when none). */
    std::string candidatePath(const std::string &name) const;

    /** Drop a staged candidate (gate rollback keeps the incumbent). */
    void clearCandidate(const std::string &name);

    /**
     * Publish @p name's staged candidate over the incumbent through
     * the atomic tmp -> fsync -> rename -> fsync-dir path the
     * checkpoint writer uses, then install the already-staged model
     * and clear the stage.  The gate decision was made by the caller
     * (the shadow gate); this is only the swap.  Fails -- incumbent
     * untouched -- when no candidate is staged or its source archive
     * changed since staging (a continuous trainer may have overwritten
     * it).  Defined in promote.cpp (crash points
     * "canary.before-promote", "promote.before-publish",
     * "promote.after-publish", "canary.after-promote").
     */
    Result<PromoteReport> promoteStaged(const std::string &name);

    /** Count a rollback (a gate breach, or a candidate refused at
     *  staging). */
    void noteRollback();

    /**
     * Persist a checkpoint under @p name (meta.name is stamped) and
     * cache the loaded view.  Returns the cached model.
     */
    std::shared_ptr<const Model> put(const std::string &name,
                                     rbm::Checkpoint ckpt);

    /** Names of every archive on disk, sorted. */
    std::vector<std::string> names() const;

    /** Drop a cached entry (the archive stays on disk). */
    void evict(const std::string &name);

    /** Number of models currently cached in memory. */
    std::size_t cachedCount() const;

    /**
     * Create the checkpoint directory.  put() does this lazily;
     * training sessions that stream periodic checkpoints straight to
     * pathFor() need it up front.
     */
    void ensureDir();

    /** Degradation counters: the registry's half of the serving
     *  ledger (engine::Server::Stats holds the request half). */
    struct Stats
    {
        /** Gets served by the last-good cache after a failed reload. */
        std::size_t reloadFallbacks = 0;
        /** Loads that failed with no cached model to fall back on. */
        std::size_t loadFailures = 0;
        /** Names currently quarantined (point-in-time, not lifetime). */
        std::size_t quarantined = 0;
        std::size_t promotions = 0;
        std::size_t rollbacks = 0;
    };
    Stats stats() const;

  private:
    /** Freshness stamp of an archive on disk. */
    struct FileStamp
    {
        std::filesystem::file_time_type mtime;
        std::uintmax_t size = 0;
        /**
         * The archive's crc64 trailer (0 / false for legacy
         * un-checksummed files).  Folding it into the stamp closes the
         * revalidation race where an overwrite lands within mtime
         * granularity and happens to preserve the byte size.
         */
        std::uint64_t trailer = 0;
        bool hasTrailer = false;
        bool operator==(const FileStamp &) const = default;
    };

    struct Entry
    {
        std::shared_ptr<const Model> model;
        FileStamp stamp;
        // Quarantine state: set while the on-disk archive is
        // unloadable and the cached model is serving in its place.
        int failedReloads = 0;
        std::chrono::steady_clock::time_point retryAfter{};
        std::string lastError;
        FileStamp failedStamp;  ///< the archive the last reload failed on
    };

    /** A staged candidate (held beside the incumbent). */
    struct Candidate
    {
        std::shared_ptr<const Model> model;
        std::string path;  ///< source archive it was staged from
        FileStamp stamp;   ///< source stamp at staging time
    };

    static FileStamp stampFor(const std::string &path);

    /**
     * Load + wrap an archive with this registry's pool/options.  The
     * caller-provided stamp (taken before the read, so it can never be
     * *newer* than the loaded bytes) supplies the model's CRC-64
     * identity stamp for the server's response-cache keying.
     */
    Result<std::shared_ptr<const Model>>
    loadModelFile(const std::string &path, const FileStamp &stamp) const;

    /** Install a freshly loaded model (resets quarantine). */
    std::shared_ptr<const Model>
    install(const std::string &name, std::shared_ptr<const Model> model,
            const FileStamp &stamp);

    std::string dir_;
    exec::ThreadPool *pool_;
    mutable std::mutex mutex_;
    std::map<std::string, Entry> cache_;
    std::map<std::string, Candidate> candidates_;
    Stats stats_;
};

} // namespace ising::engine

#endif // ISINGRBM_ENGINE_REGISTRY_HPP
