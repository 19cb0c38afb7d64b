/**
 * @file
 * engine::Server implementation.
 */

#include "engine/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>

#include "linalg/bitops.hpp"
#include "util/checksum.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace ising::engine {

namespace {

/** FNV-1a 64: the second, CRC-independent input digest. */
std::uint64_t
fnv1a64(const void *data, std::size_t n, std::uint64_t hash)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** CPU ns used by every thread of the process: the canary's cost
 *  clock.  It does not advance while a thread waits for a core, so a
 *  busy host cannot make a shadow look costly. */
std::uint64_t
processCpuNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

} // namespace

std::size_t
Server::CacheKeyHash::operator()(const CacheKey &key) const
{
    std::uint64_t h = key.stamp;
    const auto mix = [&h](std::uint64_t value) {
        h ^= value + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(key.inputHash);
    mix(key.inputMix);
    mix(key.seed);
    mix(key.rows);
    mix(static_cast<std::uint64_t>(key.op));
    mix(static_cast<std::uint64_t>(key.steps));
    return static_cast<std::size_t>(h);
}

Server::Server(ModelRegistry &registry, ServerConfig config)
    : registry_(registry), config_(config)
{
    if (config_.maxBatchRows == 0)
        util::fatal("server: maxBatchRows must be positive");
    if (config_.canary.quarantineMinMs < 1)
        config_.canary.quarantineMinMs = 1;
    if (config_.canary.quarantineMaxMs < config_.canary.quarantineMinMs)
        config_.canary.quarantineMaxMs = config_.canary.quarantineMinMs;
    // A candidate staged before start-up is shadowed from the first
    // request on, so the gate reports it before any traffic arrives.
    if (config_.canary.fraction > 0.0 && !config_.canary.model.empty() &&
        registry_.candidate(config_.canary.model))
        stats_.canaryState = CanaryState::Shadowing;
}

const char *
canaryStateName(CanaryState state)
{
    switch (state) {
      case CanaryState::Idle: return "idle";
      case CanaryState::Shadowing: return "shadowing";
      case CanaryState::Quarantined: return "quarantined";
      case CanaryState::Promoted: return "promoted";
    }
    return "?";
}

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

bool
canaryShadowSelected(std::uint64_t seed, double fraction)
{
    if (fraction <= 0.0)
        return false;
    if (fraction >= 1.0)
        return true;
    // splitmix64 finalizer: decorrelates the selection bit from the
    // seed's other life as the per-row Rng stream root, then maps the
    // top 53 bits to [0, 1).  No state, no clock, no counter -- the
    // same request shadows (or not) wherever and whenever it arrives.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53 < fraction;
}

namespace {

/** An already-resolved DeadlineExceeded future (no warn: an expired
 *  deadline is load pressure, not a malformed request). */
std::future<Response>
expireNow(const char *where)
{
    std::promise<Response> promise;
    auto future = promise.get_future();
    Response response;
    response.status = Status(StatusCode::DeadlineExceeded,
                             std::string("server: deadline expired ") +
                                 where);
    promise.set_value(std::move(response));
    return future;
}

} // namespace

std::future<Response>
Server::submit(Request req)
{
    ++stats_.requests;
    // The deadline outranks everything, even validation: an expired
    // request is answered before any work is spent on it.
    if (req.deadlineNs != 0 && steadyNowNs() >= req.deadlineNs) {
        ++stats_.deadlineExpired;
        return expireNow("before admission");
    }
    // Validation failures resolve the future immediately: the bad
    // request never reaches the queue, so it cannot poison the
    // requests it would have been coalesced with.
    const auto reject = [this](Status status) {
        ++stats_.rejected;
        util::warn("server: rejected request: " + status.toString());
        std::promise<Response> promise;
        auto future = promise.get_future();
        Response response;
        response.status = std::move(status);
        promise.set_value(std::move(response));
        return future;
    };

    Status resolveStatus;
    const Model *model = resolveForFlush(req.model, &resolveStatus);
    if (!model)
        return reject(std::move(resolveStatus));
    if (!model->supports(req.op))
        return reject(Status(
            StatusCode::InvalidArgument,
            std::string("server: model '") + req.model + "' (" +
                model->familyName() + ") does not support op " +
                opName(req.op)));

    std::size_t rows = 0;
    if (req.op == Op::Sample) {
        if (req.count == 0)
            return reject(
                Status(StatusCode::InvalidArgument,
                       "server: sample request needs count > 0"));
        rows = req.count;
    } else {
        const std::size_t inRows =
            req.packed ? req.packedInput.rows() : req.input.rows();
        const std::size_t inCols =
            req.packed ? req.packedInput.cols() : req.input.cols();
        if (inRows == 0)
            return reject(
                Status(StatusCode::InvalidArgument,
                       "server: request carries no input rows"));
        if (inCols != model->inputDim())
            return reject(Status(
                StatusCode::InvalidArgument,
                util::strcat("server: input width ", inCols,
                             " != model '", req.model, "' input dim ",
                             model->inputDim())));
        rows = inRows;
    }

    Pending pending;
    pending.req = std::move(req);
    pending.rows = rows;
    auto future = pending.promise.get_future();
    pending_.push_back(std::move(pending));
    pendingRows_ += rows;

    if (pendingRows_ >= config_.maxBatchRows)
        flush();
    return future;
}

Server::CacheKey
Server::makeKey(const Model &model, const Pending &pending) const
{
    CacheKey key;
    key.stamp = model.stamp();
    key.op = pending.req.op;
    key.seed = pending.req.seed;
    key.rows = pending.rows;
    key.steps = pending.req.op == Op::Sample ? pending.req.steps : 0;
    if (pending.req.op == Op::Sample)
        return key;  // no input plane: the seed is the whole walk
    // Binary inputs hash their canonical packed words (rows are padded
    // with zero bits, so equal bit patterns digest equally and the hit
    // path never re-reads the floats); non-binary inputs hash the raw
    // float bytes.  The FNV seed separates the two domains.
    const void *bytes = nullptr;
    std::size_t size = 0;
    std::uint64_t domain = 0x62697473ull;  // "bits"
    if (pending.binaryInput) {
        const linalg::BitMatrix &bits = inputBits(pending);
        bytes = bits.row(0);
        size = bits.rows() * bits.wordsPerRow() * sizeof(std::uint64_t);
    } else {
        bytes = pending.req.input.data();
        size = pending.req.input.size() * sizeof(float);
        domain = 0x666c6f6174ull;  // "float"
    }
    util::Crc64 crc;
    crc.update(bytes, size);
    key.inputHash = crc.value();
    key.inputMix = fnv1a64(bytes, size, 0xcbf29ce484222325ull ^ domain);
    return key;
}

const Server::CacheEntry *
Server::cacheFind(const CacheKey &key)
{
    const auto it = cacheIndex_.find(key);
    if (it == cacheIndex_.end())
        return nullptr;
    cacheLru_.splice(cacheLru_.begin(), cacheLru_, it->second);
    return &*it->second;
}

void
Server::cacheInsert(const CacheKey &key, const Response &response)
{
    const std::size_t bytes = sizeof(CacheEntry) +
                              response.output.size() * sizeof(float) +
                              response.labels.size() * sizeof(int);
    // An over-budget response can never fit; a key already present
    // means the same request appeared twice in one flush (both missed
    // and executed together) -- keep the first insertion.
    if (bytes > config_.cacheBytes ||
        cacheIndex_.find(key) != cacheIndex_.end())
        return;
    cacheLru_.push_front(
        CacheEntry{key, response.output, response.labels, bytes});
    cacheIndex_.emplace(key, cacheLru_.begin());
    stats_.cacheBytes += bytes;
    while (stats_.cacheBytes > config_.cacheBytes) {
        const CacheEntry &victim = cacheLru_.back();
        stats_.cacheBytes -= victim.bytes;
        cacheIndex_.erase(victim.key);
        cacheLru_.pop_back();
        ++stats_.cacheEvictions;
    }
}

const Model *
Server::resolveForFlush(const std::string &name, Status *status)
{
    for (const FlushModel &entry : flushModels_)
        if (entry.name == name)
            return entry.model.get();
    auto resolved = registry_.tryGet(name);
    if (!resolved.ok()) {
        if (status)
            *status = resolved.status();
        return nullptr;
    }
    FlushModel entry;
    entry.name = name;
    entry.model = std::move(resolved).value();
    flushModels_.push_back(std::move(entry));
    return flushModels_.back().model.get();
}

const linalg::BitMatrix &
Server::inputBits(const Pending &pending)
{
    return pending.req.packed ? pending.req.packedInput
                              : pending.packedInput;
}

void
Server::prepare(Pending &pending)
{
    const Request &req = pending.req;
    const bool caching = config_.cacheBytes > 0;
    if (req.packed) {
        // Wire-packed rows are binary by construction and already in
        // canonical packed form: nothing to classify, nothing to pack.
        pending.binaryInput = true;
    } else if (req.op != Op::Sample) {
        // One scan classifies the input; binary rows then pack
        // exactly once, feeding both the key hash and the packed
        // gather.
        pending.binaryInput = linalg::isBinary01(req.input);
        if (pending.binaryInput) {
            pending.packedInput.reset(req.input.rows(), req.input.cols());
            for (std::size_t r = 0; r < req.input.rows(); ++r)
                pending.packedInput.packRowFrom(r, req.input.row(r));
        }
    }
    if (!caching)
        return;
    const Model *model = resolveForFlush(req.model);
    if (!model)
        return;  // the group execution path owns failure reporting
    if (!model->hasStamp()) {
        // Legacy un-checksummed archive: no identity stamp means no
        // sound cache key, so the request always takes the miss path.
        ++stats_.cacheMisses;
        return;
    }
    pending.key = makeKey(*model, pending);
    if (const CacheEntry *entry = cacheFind(pending.key)) {
        ++stats_.cacheHits;
        Response response;
        response.output = entry->output;
        response.labels = entry->labels;
        pending.promise.set_value(std::move(response));
        pending.done = true;
    } else {
        ++stats_.cacheMisses;
        pending.cacheable = true;
    }
}

void
Server::flush()
{
    if (pending_.empty())
        return;
    ++stats_.flushes;
    util::Stopwatch watch;

    // Stage 0: re-check deadlines (queueing must not silently eat a
    // budget that already ran out -- and the check beats even the
    // cache probe: an expired request gets no bytes, cached or not),
    // then pack binary inputs and probe the response cache.  Hits
    // resolve their futures right here -- no gather, no group, no
    // kernel -- and whatever survives forms (possibly partial-hit)
    // groups below.  flushModels_ already holds the batch's
    // submit-time resolutions; prepare() reuses them.
    const std::uint64_t flushNow = steadyNowNs();
    for (Pending &p : pending_) {
        if (p.req.deadlineNs != 0 && flushNow >= p.req.deadlineNs) {
            ++stats_.deadlineExpired;
            Response response;
            response.status =
                Status(StatusCode::DeadlineExceeded,
                       "server: deadline expired while queued");
            p.promise.set_value(std::move(response));
            p.done = true;
            continue;
        }
        prepare(p);
    }

    // Stage 1: group by (model, op, steps) into reused flat slots;
    // steps only shapes Sample walks, so other ops coalesce regardless
    // of it.  Groups keep submit order.  A flush carries a handful of
    // groups, so a linear key match beats a keyed map -- and unlike
    // the map, slots and their member vectors keep their capacity, so
    // steady-state grouping allocates nothing (groupResizes counts the
    // slot pool's high-water growth).
    std::size_t active = 0;
    for (Pending &p : pending_) {
        if (p.done)
            continue;
        Group *slot = nullptr;
        for (std::size_t g = 0; g < active; ++g) {
            const Request &lead = groups_[g].members.front()->req;
            if (lead.op == p.req.op && lead.model == p.req.model &&
                (p.req.op != Op::Sample || lead.steps == p.req.steps)) {
                slot = &groups_[g];
                break;
            }
        }
        if (!slot) {
            if (active == groups_.size()) {
                groups_.emplace_back();
                ++stats_.groupResizes;
            }
            slot = &groups_[active++];
            slot->members.clear();
        }
        slot->members.push_back(&p);
    }
    for (std::size_t g = 0; g < active; ++g)
        executeGroup(groups_[g].members);

    pending_.clear();
    pendingRows_ = 0;
    // Memoized resolutions do not outlive their batch: the next
    // batch's first submit revalidates against the archive again.
    flushModels_.clear();

    stats_.flushLatencyNs.record(
        static_cast<std::uint64_t>(watch.seconds() * 1e9));
}

void
Server::executeGroup(const std::vector<Pending *> &group)
{
    // Fail every request of the group with one status.  The group is
    // the blast radius: other groups in the same flush still execute.
    const auto failGroup = [&](Status status) {
        util::warn("server: group of " + std::to_string(group.size()) +
                   " request(s) failed: " + status.toString());
        stats_.rejected += group.size();
        for (Pending *p : group) {
            Response response;
            response.status = status;
            p->promise.set_value(std::move(response));
        }
    };

    // Re-resolve at execution time (the registry may have reloaded or
    // hot-swapped since submit); an unresolvable model fails the
    // group, never the process.
    auto resolved = registry_.tryGet(group.front()->req.model);
    if (!resolved.ok()) {
        failGroup(resolved.status());
        return;
    }
    const auto model = std::move(resolved).value();
    ++stats_.groups;

    const std::uint64_t cpuStart = processCpuNs();
    auto ran = runChunks(*model, group.front()->req.op, group, true);
    if (!ran.ok()) {
        failGroup(ran.status());
        return;
    }
    std::vector<Response> responses = std::move(ran).value();
    const std::uint64_t incumbentCpuNs = processCpuNs() - cpuStart;
    for (const Pending *p : group)
        stats_.rows += p->rows;

    // Shadow the gate-selected members through the staged candidate
    // *before* the responses are cached or delivered -- the gate sees
    // exactly the bytes the clients will -- but strictly read-only:
    // promotion or quarantine can only affect later flushes.
    maybeShadow(group, responses, incumbentCpuNs);

    // Cache the executed responses, unless the model hot-swapped
    // between the cache probe and this execution (the key would claim
    // the old stamp for the new model's bytes).
    const std::uint64_t modelStamp =
        model->hasStamp() ? model->stamp() : 0;
    for (std::size_t q = 0; q < group.size(); ++q) {
        if (group[q]->cacheable && group[q]->key.stamp == modelStamp)
            cacheInsert(group[q]->key, responses[q]);
        group[q]->promise.set_value(std::move(responses[q]));
    }
}

Result<std::vector<Response>>
Server::runChunks(const Model &model, Op op,
                  const std::vector<Pending *> &members, bool serving)
{
    // submit() checked each member's width against the model resolved
    // then; the model run now (a republished incumbent, the staged
    // candidate) may differ, and its gather would read past a row.
    const std::size_t inDim = model.inputDim();
    if (op != Op::Sample)
        for (const Pending *p : members) {
            const std::size_t cols = p->req.packed
                                         ? p->req.packedInput.cols()
                                         : p->req.input.cols();
            if (cols != inDim)
                return Status(StatusCode::FailedPrecondition,
                              util::strcat("server: request width ", cols,
                                           " != model input dim ",
                                           inDim));
        }

    // Map each coalesced row back to (member, in-request row); every
    // row keeps the stream derived from *its own request's* seed and
    // in-request index, so results cannot depend on what the row was
    // coalesced with -- or on which model runs it.  The map and stream
    // vectors are members reused across runs (capacity sticks at the
    // high-water mark).
    std::size_t totalRows = 0;
    for (const Pending *p : members)
        totalRows += p->rows;
    rowMap_.clear();
    rowMap_.reserve(totalRows);
    rngs_.clear();
    rngs_.reserve(totalRows);
    for (std::size_t q = 0; q < members.size(); ++q)
        for (std::size_t r = 0; r < members[q]->rows; ++r) {
            rowMap_.push_back({q, r});
            rngs_.push_back(util::Rng::stream(members[q]->req.seed, r));
        }

    // Per-member result storage, written as each kernel-sized chunk
    // completes: one gather copy in, one scatter copy out.
    const std::size_t width = model.outputDim(op);
    std::vector<Response> out(members.size());
    for (std::size_t q = 0; q < members.size(); ++q) {
        if (op == Op::Classify)
            out[q].labels.assign(members[q]->rows, -1);
        else
            out[q].output.reset(members[q]->rows, width);
    }

    // The packed plane serves the run when every member packed its
    // input (all-binary) and the model family takes a packed layer-0
    // plane for this op.  Gathering is then a word-level row copy per
    // row instead of a float copy plus a per-row repack inside the
    // kernels -- binary inputs pack exactly once, at prepare().
    const bool packedPlane =
        model.supportsPackedInput(op) &&
        std::all_of(members.begin(), members.end(),
                    [](const Pending *p) { return p->binaryInput; });
    const auto count = [serving](std::size_t &counter) {
        if (serving)
            ++counter;
    };

    // Contain execution: anything fatal inside the batched kernels
    // (impossible-shape archive that slipped past validation, scratch
    // exhaustion) fails this run instead of the process.
    try {
        util::FatalThrowScope scope;
        for (std::size_t begin = 0; begin < totalRows;
             begin += config_.maxBatchRows) {
            const std::size_t end =
                std::min(totalRows, begin + config_.maxBatchRows);
            count(stats_.kernelBatches);
            // Reused gather buffers: reshaping only when the chunk
            // shape actually changes is what scratchResizes counts.
            if (packedPlane) {
                if (packedIn_.rows() != end - begin ||
                    packedIn_.cols() != inDim) {
                    packedIn_.reset(end - begin, inDim);
                    count(stats_.scratchResizes);
                }
                for (std::size_t g = begin; g < end; ++g) {
                    const RowRef &ref = rowMap_[g];
                    packedIn_.copyRowFrom(
                        g - begin, inputBits(*members[ref.pending]),
                        ref.row);
                }
            } else if (op != Op::Sample) {
                if (in_.rows() != end - begin || in_.cols() != inDim) {
                    in_.reset(end - begin, inDim);
                    count(stats_.scratchResizes);
                }
                for (std::size_t g = begin; g < end; ++g) {
                    const RowRef &ref = rowMap_[g];
                    const Pending &p = *members[ref.pending];
                    // Wire-packed requests have no float plane; a
                    // float-plane run unpacks per gathered row.
                    if (p.req.packed)
                        p.req.packedInput.unpackRowTo(ref.row,
                                                      in_.row(g - begin));
                    else
                        std::copy_n(p.req.input.row(ref.row), inDim,
                                    in_.row(g - begin));
                }
            }
            switch (op) {
              case Op::Sample:
                model.sampleRows(members.front()->req.steps, end - begin,
                                 rngs_.data() + begin, chunk_,
                                 modelScratch_);
                break;
              case Op::Featurize:
                if (packedPlane)
                    model.featurizeRowsPacked(packedIn_, chunk_,
                                              modelScratch_);
                else
                    model.featurizeRows(in_, chunk_, modelScratch_);
                break;
              case Op::Reconstruct:
                if (packedPlane)
                    model.reconstructRowsPacked(packedIn_,
                                                rngs_.data() + begin,
                                                chunk_, modelScratch_);
                else
                    model.reconstructRows(in_, rngs_.data() + begin,
                                          chunk_, modelScratch_);
                break;
              case Op::Classify:
                model.classifyRows(in_, labelChunk_);
                break;
            }
            for (std::size_t g = begin; g < end; ++g) {
                const RowRef &ref = rowMap_[g];
                if (op == Op::Classify)
                    out[ref.pending].labels[ref.row] =
                        labelChunk_[g - begin];
                else
                    std::copy_n(chunk_.row(g - begin), width,
                                out[ref.pending].output.row(ref.row));
            }
        }
    } catch (const util::FatalError &e) {
        return Status(StatusCode::Internal, e.what());
    }
    return out;
}

void
Server::canaryQuarantine(const std::string &reason)
{
    ++stats_.canaryQuarantines;
    registry_.noteRollback();
    stats_.canaryCleanStreak = 0;
    canarySlowStreak_ = 0;
    // Capped exponential backoff, doubling per breach; only restaging
    // a candidate (a new Server / a new gate) resets the ladder, so a
    // persistently bad candidate costs asymptotically nothing.
    canaryBackoffMs_ = canaryBackoffMs_ <= 0
                           ? config_.canary.quarantineMinMs
                           : std::min(canaryBackoffMs_ * 2,
                                      config_.canary.quarantineMaxMs);
    canaryResumeNs_ =
        steadyNowNs() +
        static_cast<std::uint64_t>(canaryBackoffMs_) * 1000000ull;
    stats_.canaryState = CanaryState::Quarantined;
    util::warn(util::strcat("server: canary quarantined (", reason,
                            ") for ", canaryBackoffMs_, " ms"));
}

void
Server::maybeShadow(const std::vector<Pending *> &group,
                    const std::vector<Response> &responses,
                    std::uint64_t incumbentCpuNs)
{
    const ServerConfig::CanaryGate &gate = config_.canary;
    if (gate.fraction <= 0.0 || gate.model.empty() ||
        group.front()->req.model != gate.model)
        return;
    const Op op = group.front()->req.op;
    if (op == Op::Classify)
        return;  // integer labels carry no graded divergence to gate
    if (stats_.canaryState == CanaryState::Promoted)
        return;
    const bool resuming = stats_.canaryState == CanaryState::Quarantined;
    if (resuming) {
        if (steadyNowNs() < canaryResumeNs_)
            return;
        // Backoff window over: resume shadowing the staged candidate
        // from a zero streak (quarantined shadows prove nothing).
        stats_.canaryCleanStreak = 0;
    }
    const auto candidate = registry_.candidate(gate.model);
    if (!candidate) {
        stats_.canaryState = CanaryState::Idle;
        return;
    }
    if (resuming)
        util::inform(util::strcat("server: canary backoff of ",
                                  canaryBackoffMs_,
                                  " ms over; resume shadowing"));
    stats_.canaryState = CanaryState::Shadowing;
    if (!candidate->supports(op))
        return;

    // The seeded splitter picks members one by one -- a pure function
    // of each request's own seed, so the shadow set is identical under
    // any coalescing, arrival order or batch depth.
    shadowMembers_.clear();
    shadowPicked_.clear();
    for (std::size_t q = 0; q < group.size(); ++q)
        if (canaryShadowSelected(group[q]->req.seed, gate.fraction)) {
            shadowMembers_.push_back(group[q]);
            shadowPicked_.push_back(q);
        }
    if (shadowPicked_.empty())
        return;

    // A candidate whose output width drifted from the incumbent's has
    // nothing comparable to serve: breach immediately.
    const std::size_t width =
        responses[shadowPicked_.front()].output.cols();
    if (candidate->outputDim(op) != width) {
        ++stats_.canaryFailureBreaches;
        canaryQuarantine(
            util::strcat("candidate output dim ",
                         candidate->outputDim(op), " != incumbent ",
                         width, " for op ", opName(op)));
        return;
    }

    // Re-run the shadowed members through the incumbent's own chunk
    // runner: the same per-row streams, plane and kernels, so any
    // output difference is the models', never the randomness' or the
    // code path's.  A run that cannot start (input width drift) or
    // dies in the kernels is a candidate failure.
    util::Stopwatch shadowWatch;
    const std::uint64_t cpuStart = processCpuNs();
    auto ran = runChunks(*candidate, op, shadowMembers_, false);
    if (!ran.ok()) {
        ++stats_.canaryFailureBreaches;
        canaryQuarantine("candidate execution failed: " +
                         ran.status().toString());
        return;
    }
    const std::uint64_t shadowCpuNs = processCpuNs() - cpuStart;
    stats_.shadowLatencyNs.record(
        static_cast<std::uint64_t>(shadowWatch.seconds() * 1e9));

    // Score member by member in group order; the first divergent one
    // breaches and ends the group's scoring.
    const std::vector<Response> &shadow = ran.value();
    for (std::size_t i = 0; i < shadow.size(); ++i) {
        const linalg::Matrix &cand = shadow[i].output;
        const linalg::Matrix &inc = responses[shadowPicked_[i]].output;
        double absSum = 0.0;
        for (std::size_t k = 0; k < cand.size(); ++k)
            absSum += std::fabs(static_cast<double>(cand.data()[k]) -
                                static_cast<double>(inc.data()[k]));
        const double mae =
            cand.size() ? absSum / static_cast<double>(cand.size()) : 0.0;
        ++stats_.canaryShadows;
        stats_.canaryLastDivergence = mae;
        stats_.canaryDivergenceNano.record(
            static_cast<std::uint64_t>(mae * 1e9));
        if (mae > gate.maxDivergence) {
            ++stats_.canaryDivergenceBreaches;
            canaryQuarantine(util::strcat("divergence ", mae,
                                          " exceeds gate ",
                                          gate.maxDivergence));
            return;
        }
    }

    // Cost is judged on a sustained run of CPU-time samples, not one
    // wall-clock sample: a slow group adds nothing to the clean streak,
    // and only minShadows consecutive slow groups breach.
    if (incumbentCpuNs > 0 && gate.maxLatencyMultiple > 0.0 &&
        static_cast<double>(shadowCpuNs) >
            gate.maxLatencyMultiple * static_cast<double>(incumbentCpuNs)) {
        if (++canarySlowStreak_ >= gate.minShadows) {
            ++stats_.canaryLatencyBreaches;
            canaryQuarantine(util::strcat(
                canarySlowStreak_, " consecutive groups over ",
                gate.maxLatencyMultiple, "x incumbent CPU cost (last ",
                shadowCpuNs, " ns vs ", incumbentCpuNs, " ns)"));
            return;
        }
    } else {
        canarySlowStreak_ = 0;
        stats_.canaryCleanStreak += shadow.size();
    }
    // Deadline pressure: these members were all unexpired when the
    // flush started; if one ran out *now*, shadow work is what ate the
    // budget -- the gate backs off before clients feel it.
    const std::uint64_t now = steadyNowNs();
    for (const Pending *p : group)
        if (p->req.deadlineNs != 0 && now >= p->req.deadlineNs) {
            ++stats_.canaryDeadlineBreaches;
            canaryQuarantine(
                "shadow work crossed a live request's deadline");
            return;
        }

    if (gate.autoPromote && stats_.canaryCleanStreak >= gate.minShadows) {
        auto promoted = registry_.promoteStaged(gate.model);
        if (promoted.ok()) {
            ++stats_.canaryPromotions;
            stats_.canaryState = CanaryState::Promoted;
        } else {
            // Stale stage (source overwritten) or a publish failure:
            // the incumbent is untouched either way; back off and let
            // a restage (or the operator) decide.
            ++stats_.canaryFailureBreaches;
            canaryQuarantine("promote failed: " +
                             promoted.status().toString());
        }
    }
}

std::vector<Request>
probeRequests(const Model &model, const std::string &name, Op op,
              std::size_t requests, std::size_t rows, int steps,
              std::uint64_t seedBase)
{
    return probeRequests(model.inputDim(), name, op, requests, rows,
                         steps, seedBase);
}

std::vector<Request>
probeRequests(std::size_t inputDim, const std::string &name, Op op,
              std::size_t requests, std::size_t rows, int steps,
              std::uint64_t seedBase)
{
    util::Rng rng(seedBase);
    std::vector<Request> out;
    out.reserve(requests);
    for (std::size_t q = 0; q < requests; ++q) {
        Request req;
        req.model = name;
        req.op = op;
        req.steps = steps;
        req.seed = seedBase + q;
        if (op == Op::Sample) {
            req.count = rows;
        } else {
            req.input.reset(rows, inputDim);
            for (std::size_t r = 0; r < rows; ++r)
                for (std::size_t i = 0; i < inputDim; ++i)
                    req.input(r, i) = rng.bernoulli(0.5) ? 1.0f : 0.0f;
        }
        out.push_back(std::move(req));
    }
    return out;
}

std::vector<Response>
Server::serve(std::vector<Request> requests)
{
    std::vector<std::future<Response>> futures;
    futures.reserve(requests.size());
    for (Request &req : requests)
        futures.push_back(submit(std::move(req)));
    flush();
    std::vector<Response> out;
    out.reserve(futures.size());
    for (auto &f : futures)
        out.push_back(f.get());
    return out;
}

} // namespace ising::engine
