/**
 * @file
 * Candidate staging, the atomic publish, and the offline promote that
 * replays a seeded probe through the live canary gate
 * (engine::promoteCandidate, declared in server.hpp).
 */

#include <filesystem>
#include <fstream>

#include "engine/registry.hpp"
#include "engine/server.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"
#include "util/logging.hpp"

namespace ising::engine {

namespace fs = std::filesystem;

namespace {

/**
 * Copy an archive byte-exactly into place with the same durability
 * discipline as the checkpoint writer: stage, fsync, rename, fsync
 * directory.  The candidate's integrity trailer is preserved, so the
 * published file revalidates against the same checksum.
 */
Status
publishArchive(const std::string &sourcePath, const std::string &destPath)
{
    std::string bytes, error;
    if (!util::slurpFile(sourcePath, bytes, &error))
        return Status(StatusCode::DataLoss, "promote: " + error);

    util::FaultInjector &faults = util::FaultInjector::instance();
    faults.onCrashPoint("promote.before-publish");

    const std::string tmpPath = destPath + ".tmp";
    {
        std::ofstream os(tmpPath, std::ios::binary | std::ios::trunc);
        if (!os)
            return Status(StatusCode::Internal,
                          "promote: cannot open " + tmpPath);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
        os.flush();
        if (!os || faults.shouldFailWrite(destPath))
            return Status(StatusCode::Internal,
                          "promote: write failed: " + tmpPath);
    }
    if (!util::fsyncFile(tmpPath, &error))
        return Status(StatusCode::Internal, "promote: " + error);

    std::error_code ec;
    fs::rename(tmpPath, destPath, ec);
    if (ec)
        return Status(StatusCode::Internal,
                      "promote: cannot rename " + tmpPath + " -> " +
                          destPath + ": " + ec.message());
    if (!util::fsyncParentDir(destPath, &error))
        util::warn("promote: " + error);
    faults.onCrashPoint("promote.after-publish");
    return Status::okStatus();
}

} // namespace

Status
ModelRegistry::stageCandidate(const std::string &name,
                              const std::string &candidatePath)
{
    const Status valid = validateName(name);
    if (!valid.ok())
        return valid;
    util::FaultInjector::instance().onCrashPoint("canary.stage");

    // Load aside -- never into the serving cache.  A torn candidate is
    // rejected here, before a single request is shadowed through it.
    const FileStamp stamp = stampFor(candidatePath);
    auto loaded = loadModelFile(candidatePath, stamp);
    if (!loaded.ok())
        return Status(loaded.status().code(),
                      "canary: candidate " + candidatePath + ": " +
                          loaded.status().message());
    std::shared_ptr<const Model> model = std::move(loaded).value();

    // Shape-gate against the incumbent now: shadowing feeds the
    // candidate the incumbent's live inputs, so a width mismatch could
    // only ever breach.  A name with no resolvable incumbent stages
    // ungated (first publish semantics).
    if (auto current = tryGet(name); current.ok()) {
        const std::size_t dim = current.value()->inputDim();
        if (model->inputDim() != dim)
            return Status(StatusCode::FailedPrecondition,
                          "canary: candidate input dim " +
                              std::to_string(model->inputDim()) +
                              " != incumbent " + std::to_string(dim));
    }

    std::lock_guard<std::mutex> lock(mutex_);
    candidates_[name] = Candidate{std::move(model), candidatePath, stamp};
    return Status::okStatus();
}

Result<PromoteReport>
ModelRegistry::promoteStaged(const std::string &name)
{
    Candidate staged;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = candidates_.find(name);
        if (it == candidates_.end())
            return Status(StatusCode::FailedPrecondition,
                          "canary: no candidate staged for '" + name +
                              "'");
        staged = it->second;
    }

    util::FaultInjector &faults = util::FaultInjector::instance();
    faults.onCrashPoint("canary.before-promote");

    // The gate shadowed the *staged* model; publish only if the source
    // archive still holds those bytes.  A continuous trainer may have
    // overwritten the file since staging -- publishing it would swap
    // in parameters no shadow ever vetted.
    if (stampFor(staged.path) != staged.stamp) {
        clearCandidate(name);
        return Status(StatusCode::FailedPrecondition,
                      "canary: candidate " + staged.path +
                          " changed since staging; restage to promote");
    }

    ensureDir();
    const std::string destPath = pathFor(name);
    std::error_code ec;
    const bool samePath = fs::equivalent(staged.path, destPath, ec);
    if (!samePath) {
        const Status published = publishArchive(staged.path, destPath);
        if (!published.ok()) {
            util::warn(published.toString());
            return published;
        }
    }

    // Serve the exact bytes the gate vetted: install the staged model
    // against the published file's stamp.
    install(name, std::move(staged.model), stampFor(destPath));
    clearCandidate(name);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.promotions;
    }
    faults.onCrashPoint("canary.after-promote");

    PromoteReport report;
    report.promoted = true;
    report.detail = "promoted: live canary gate passed";
    return report;
}

Result<PromoteReport>
promoteCandidate(ModelRegistry &registry, const std::string &name,
                 const std::string &candidatePath, double tolerance,
                 std::size_t probeRows, std::uint64_t probeSeed)
{
    // An unloadable or mis-shaped candidate never gets near the gate.
    const Status staged = registry.stageCandidate(name, candidatePath);
    if (!staged.ok()) {
        registry.noteRollback();
        return staged;
    }

    // The incumbent is whatever tryGet would serve.  With none (a
    // first publish, or a quarantined name with nothing cached), or no
    // Reconstruct to compare, there is nothing to gate against.
    auto incumbent = registry.tryGet(name);
    std::string skip;
    if (!incumbent.ok())
        skip = "no incumbent";
    else if (!incumbent.value()->supports(Op::Reconstruct) ||
             !registry.candidate(name)->supports(Op::Reconstruct))
        skip = "no reconstruct op to compare";
    if (!skip.empty()) {
        auto published = registry.promoteStaged(name);
        if (!published.ok()) {
            registry.clearCandidate(name);
            return published.status();
        }
        published.value().detail =
            "promoted: " + skip + ", canary gate skipped";
        return published;
    }

    // Offline there is no live latency to protect, and one probe
    // decides: every request shadows, one clean shadow promotes.
    ServerConfig config;
    config.canary.model = name;
    config.canary.fraction = 1.0;
    config.canary.minShadows = 1;
    config.canary.maxDivergence = tolerance;
    config.canary.maxLatencyMultiple = 0.0;
    Server server(registry, config);
    const Response served = std::move(
        server.serve(probeRequests(*incumbent.value(), name,
                                   Op::Reconstruct, 1, probeRows, 0,
                                   probeSeed))
            .front());
    registry.clearCandidate(name);
    if (!served.status.ok())
        return served.status;

    // A breach has already quarantined the candidate and counted the
    // rollback; a clean shadow has already published it.
    const Server::Stats &stats = server.stats();
    PromoteReport report;
    report.promoted = stats.canaryPromotions > 0;
    report.detail =
        report.promoted || stats.canaryDivergenceBreaches > 0
            ? util::strcat(report.promoted ? "promoted" : "rollback",
                           ": canary divergence ",
                           stats.canaryLastDivergence,
                           report.promoted ? " within" : " exceeds",
                           " tolerance ", tolerance, " over ", probeRows,
                           " probe rows")
            : "rollback: the candidate failed the canary gate";
    return report;
}

} // namespace ising::engine
