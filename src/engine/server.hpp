/**
 * @file
 * Batched inference server over the model registry.
 *
 * The serving problem: requests arrive one at a time (a handful of
 * rows each), but the PR-2 packed kernels earn their speedup on deep
 * (batch x units) state matrices.  engine::Server closes the gap by
 * coalescing: submitted requests queue up, and flush() groups them by
 * (model, op, anneal steps), concatenates their rows into one state
 * matrix, and executes kernel batches of at most maxBatchRows rows
 * through engine::Model's batched ops, which fan out over the worker
 * pool underneath.  A group whose rows are all binary gathers onto the
 * packed bit plane when the model family takes packed input for the
 * op; any other group (Classify, a non-binary row, ConvRbm/Dbm)
 * gathers float rows.
 *
 * Bit-reproducibility contract: a request's result is independent of
 * what it was batched with.  Row r of request q draws randomness only
 * from util::Rng::stream(q.seed, r), and the batched kernels guarantee
 * a row's bits do not depend on batch depth, chunk boundaries or
 * worker count -- so serving a request alone, coalesced, or under a
 * different maxBatchRows produces identical bits (enforced by
 * tests/test_engine.cpp).
 *
 * Threading model: submit()/flush()/serve() are called from one
 * dispatcher thread (the server loop); parallelism happens inside the
 * kernel batches.  Responses are delivered through std::future, so
 * consumers may wait from other threads.
 *
 * Deadlines: a request may carry an absolute expiry
 * (Request::deadlineNs); one that is already expired at submit, or
 * expires while queued, resolves with StatusCode::DeadlineExceeded
 * before any kernel work -- checked at admission *and* again at flush
 * so queueing cannot silently eat the budget.
 *
 * Live canary (ServerConfig::canary): with a candidate staged in the
 * registry, a deterministic seeded splitter -- a pure function of the
 * request seed, so the split reproduces at any arrival interleaving --
 * routes a configured fraction of executed requests into *shadow*
 * execution: the candidate re-runs the selected rows through the same
 * chunk runner the incumbent used (same streams, same plane, same
 * kernels), the outputs are compared, and the divergence and CPU cost
 * land in the gate state machine.  Client-visible bytes always come
 * from the incumbent, so served output is bit-identical with the
 * canary on or off; after minShadows consecutive clean shadows the
 * gate auto-promotes through ModelRegistry::promoteStaged, and a breach
 * (divergence, candidate failure, deadline pressure, or minShadows
 * consecutive groups over the cost multiple) quarantines the candidate
 * with capped backoff and rolls back.  The offline `isingrbm promote`
 * decides through this same gate (promoteCandidate).
 */

#ifndef ISINGRBM_ENGINE_SERVER_HPP
#define ISINGRBM_ENGINE_SERVER_HPP

#include <cstdint>
#include <future>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/registry.hpp"
#include "util/histogram.hpp"

namespace ising::engine {

/**
 * The live-canary gate's state machine.  The value is also the byte
 * the Health frame carries (net::HealthSnapshot::canaryState).
 */
enum class CanaryState : std::uint8_t {
    Idle = 0,         ///< no candidate staged (or gate off)
    Shadowing = 1,    ///< candidate staged; shadowing live traffic
    Quarantined = 2,  ///< breached; waiting out the backoff window
    Promoted = 3,     ///< candidate swapped in; gate done
};

/** Log/CLI spelling of a gate state; "?" for a byte outside the enum
 *  (a Health frame from a newer server). */
const char *canaryStateName(CanaryState state);

/** Server tuning knobs. */
struct ServerConfig
{
    /**
     * Kernel batch depth: coalesced rows are executed in chunks of at
     * most this many rows (sized so a chunk's packed state tiles stay
     * cache-resident), and submit() auto-flushes once this many rows
     * are queued.
     */
    std::size_t maxBatchRows = 256;

    /**
     * Deterministic response-cache budget in bytes (0 disables the
     * cache).  A served response is a pure function of (model bytes,
     * op, steps, seed, input bits) -- the bit-reproducibility contract
     * -- so the server may replay it from an LRU keyed by exactly that
     * tuple, with the model bytes represented by the checkpoint
     * archive's CRC-64 trailer stamp.  Hits bypass gather, grouping
     * and the kernels entirely; and because a promoted, reloaded or
     * overwritten checkpoint publishes a different stamp, stale
     * entries stop matching and age out with no invalidation hook.
     */
    std::size_t cacheBytes = 0;

    /**
     * Live-canary gate knobs (see the file comment).  The gate is off
     * until `model` names a registry entry with a staged candidate and
     * `fraction` is positive; it then shadows that fraction of
     * executed requests and decides promote-or-quarantine.
     */
    struct CanaryGate
    {
        std::string model;       ///< registry name under canary
        /** Fraction of executed requests routed into shadow execution
         *  (0 disables; the split is a pure function of the seed). */
        double fraction = 0.0;
        /** Consecutive clean shadows required before auto-promote. */
        std::size_t minShadows = 32;
        /** Max mean-absolute divergence (candidate vs incumbent
         *  output) a shadow may show and still count as clean. */
        double maxDivergence = 0.05;
        /** A shadowed group whose candidate run costs more than this
         *  multiple of the incumbent's run (process CPU time, which a
         *  busy host does not inflate) is slow: it adds nothing to the
         *  clean streak, and minShadows consecutive slow groups breach
         *  -- one sample never does (0 disables). */
        double maxLatencyMultiple = 8.0;
        /** Quarantine backoff: first breach waits min ms, doubling
         *  per breach up to max; shadowing resumes after the window. */
        long quarantineMinMs = 200;
        long quarantineMaxMs = 5000;
        /** Promote through ModelRegistry::promoteStaged on a clean
         *  streak (off = observe-only: gate counters still move). */
        bool autoPromote = true;
    };
    CanaryGate canary;
};

/** One inference request. */
struct Request
{
    std::string model;         ///< registry name
    Op op = Op::Featurize;
    linalg::Matrix input;      ///< data rows (unused for Sample)
    /**
     * Pre-packed binary input rows (one unit per bit), the wire-side
     * alternative to `input`: the net front end decodes packed frames
     * straight into this plane, so a socket request never round-trips
     * through floats -- flush feeds the words directly to the packed
     * gather and the cache-key hash, and only a float-plane group
     * (Classify, a non-binary co-member, ConvRbm/Dbm) unpacks.  Set
     * `packed` to make this plane authoritative; `input` is then
     * ignored.
     */
    linalg::BitMatrix packedInput;
    bool packed = false;       ///< packedInput carries the data rows
    std::size_t count = 0;     ///< chains to draw (Sample only)
    int steps = 25;            ///< anneal sweeps (Sample only)
    std::uint64_t seed = 0;    ///< roots this request's per-row streams
    /**
     * Absolute steady-clock expiry in nanoseconds (steadyNowNs()'s
     * domain); 0 means no deadline.  A request already expired at
     * submit, or expired by the time its flush starts, resolves with
     * StatusCode::DeadlineExceeded before any kernel work.
     */
    std::uint64_t deadlineNs = 0;
};

/** One inference response. */
struct Response
{
    /**
     * Outcome of the request.  A serving process outlives any single
     * request, so malformed requests, missing models, and contained
     * execution failures resolve the future with a non-ok status
     * (output/labels empty) instead of killing the process.
     */
    Status status;
    linalg::Matrix output;     ///< one row per requested row/chain
    std::vector<int> labels;   ///< Classify results (empty otherwise)
};

/** Coalescing request broker over a ModelRegistry. */
class Server
{
  public:
    explicit Server(ModelRegistry &registry, ServerConfig config = {});

    /**
     * Queue a request; the future resolves at the flush that executes
     * it.  A malformed request (unknown model, unsupported op, wrong
     * input width) resolves its future *immediately* with a non-ok
     * Response::status -- a bad request fails that request, never the
     * process, and never poisons the requests it would have been
     * coalesced with.
     */
    std::future<Response> submit(Request req);

    /** Execute everything queued. */
    void flush();

    /** Convenience: submit all, flush, return responses in order. */
    std::vector<Response> serve(std::vector<Request> requests);

    /** Rows currently queued. */
    std::size_t pendingRows() const { return pendingRows_; }

    /**
     * Lifetime counters and gate state: the one live record, updated
     * in place by the dispatcher thread.  The Health frame, the
     * --stats-every-ms ledger, serve's exit ledger and serve-bench are
     * views of it; the registry-owned degradation counters (reload
     * fallbacks, promotions, rollbacks) stay in ModelRegistry::Stats.
     */
    struct Stats
    {
        std::size_t requests = 0;      ///< submitted
        std::size_t rows = 0;          ///< total rows served
        std::size_t groups = 0;        ///< coalesced (model,op) groups
        std::size_t kernelBatches = 0; ///< incumbent chunks (no shadows)
        std::size_t flushes = 0;
        /**
         * Times the reused gather buffer changed shape for an incumbent
         * chunk.  The serve loop reuses all per-request scratch across
         * flushes, so in the steady state this stays flat while
         * kernelBatches grows -- the allocation-count measure the
         * serve-bench reports.  (A partial-fraction canary shadow
         * shares the buffer, so its smaller chunks reshape it too.)
         */
        std::size_t scratchResizes = 0;
        /**
         * Coalescing group slots grown (the grouping analogue of
         * scratchResizes): flush() groups into reused flat slots, so
         * once every (model, op) combination in flight has claimed a
         * slot this stays flat while flushes grow -- steady-state
         * grouping allocates nothing.
         */
        std::size_t groupResizes = 0;
        // ---- response cache (all zero while cacheBytes == 0) ----
        std::size_t cacheHits = 0;       ///< futures resolved from cache
        std::size_t cacheMisses = 0;     ///< probed but executed
        std::size_t cacheEvictions = 0;  ///< entries aged out of budget
        std::size_t cacheBytes = 0;      ///< bytes currently cached
        // ---- failure counters ----
        /** Requests resolved with a non-ok status (bad submit or a
         *  group whose model could not be resolved/executed). */
        std::size_t rejected = 0;
        /** Requests resolved DeadlineExceeded before any kernel work
         *  (distinct from rejected: the request was well-formed). */
        std::size_t deadlineExpired = 0;
        // ---- live canary gate (all zero while the gate is off) ----
        std::size_t canaryShadows = 0;  ///< shadow executions scored
        std::size_t canaryDivergenceBreaches = 0;
        std::size_t canaryLatencyBreaches = 0;
        std::size_t canaryFailureBreaches = 0;  ///< candidate op failed
        std::size_t canaryDeadlineBreaches = 0; ///< shadow ate a budget
        std::size_t canaryQuarantines = 0;  ///< gate trips (-> backoff)
        std::size_t canaryPromotions = 0;   ///< auto-promotes via gate
        CanaryState canaryState = CanaryState::Idle;  ///< the gate
        std::size_t canaryCleanStreak = 0;  ///< consecutive clean shadows
        double canaryLastDivergence = 0.0;  ///< most recent shadow MAE
        /** Per-shadow candidate-vs-incumbent MAE in nano-units
         *  (uint64(mae * 1e9)), as a mergeable distribution. */
        util::Histogram canaryDivergenceNano;
        /** Candidate wall-clock nanoseconds per shadowed group: the
         *  latency the shadow adds to its flush. */
        util::Histogram shadowLatencyNs;
        /**
         * Wall-clock nanoseconds per flush() that executed work, as a
         * mergeable log-bucketed distribution: the engine-side half of
         * the latency story (the net layer adds queueing and socket
         * time on top).
         */
        util::Histogram flushLatencyNs;
    };

    /** The live record (read it from the dispatcher thread, or after
     *  the serving loop stops). */
    const Stats &stats() const { return stats_; }

  private:
    /**
     * Response-cache key: the complete functional input of a request.
     * The stamp stands in for the model parameter bytes; the two
     * independent 64-bit input digests (plus the exact row count) make
     * an accidental collision -- which would serve wrong bytes --
     * cryptographically negligible.
     */
    struct CacheKey
    {
        std::uint64_t stamp = 0;      ///< archive CRC-64 trailer
        std::uint64_t inputHash = 0;  ///< CRC-64 of the input plane
        std::uint64_t inputMix = 0;   ///< independent FNV-1a digest
        std::uint64_t seed = 0;
        std::uint64_t rows = 0;       ///< input rows / sample count
        Op op = Op::Sample;
        int steps = 0;                ///< Sample only (0 otherwise)
        bool operator==(const CacheKey &) const = default;
    };

    struct CacheKeyHash
    {
        std::size_t operator()(const CacheKey &key) const;
    };

    struct CacheEntry
    {
        CacheKey key;
        linalg::Matrix output;
        std::vector<int> labels;
        std::size_t bytes = 0;
    };

    struct Pending
    {
        Request req;
        std::size_t rows = 0;
        std::promise<Response> promise;
        /**
         * Input rows packed one unit per bit, filled at flush for
         * binary inputs: the single packing pass both the cache key
         * hash and the packed group gather read from.
         */
        linalg::BitMatrix packedInput;
        bool binaryInput = false;  ///< every input entry is 0.0f/1.0f
        bool cacheable = false;    ///< missed with a valid key: insert
        bool done = false;         ///< future resolved by a cache hit
        CacheKey key;
    };

    /** Coalesced-row origin: (request, in-request row). */
    struct RowRef
    {
        std::size_t pending;  ///< index into the group
        std::size_t row;      ///< row within that request
    };

    /** One coalescing slot; the slot pool and each slot's member
     *  vector are reused across flushes (capacity sticks). */
    struct Group
    {
        std::vector<Pending *> members;
    };

    /** One model resolution shared by every request of a flush. */
    struct FlushModel
    {
        std::string name;
        std::shared_ptr<const Model> model;  ///< null when tryGet failed
    };

    /** Flush stage 0: pack binary inputs and probe the response
     *  cache (hits resolve their future immediately). */
    void prepare(Pending &pending);

    /**
     * Resolve a model once per batch (memoized in flushModels_ until
     * the flush that serves it completes): tryGet stats the archive
     * and re-reads its integrity trailer on every call, so neither
     * submit validation nor the cache probe may pay that per request.
     * Only successful resolutions are memoized -- a name that fails
     * keeps being retried, so a model published mid-batch is picked
     * up.  Returns null (and fills @p status) when the name does not
     * resolve; executeGroup still re-resolves fresh at execution time.
     */
    const Model *resolveForFlush(const std::string &name,
                                 Status *status = nullptr);

    /** The cache key of @p pending under @p model's stamp. */
    CacheKey makeKey(const Model &model, const Pending &pending) const;

    /** The packed input plane: the request's own for wire-packed
     *  requests, the prepare()-packed copy otherwise. */
    static const linalg::BitMatrix &inputBits(const Pending &pending);

    /** Lookup + LRU touch; nullptr on miss. */
    const CacheEntry *cacheFind(const CacheKey &key);

    /** Insert a copy of an executed response, evicting LRU entries
     *  past the byte budget. */
    void cacheInsert(const CacheKey &key, const Response &response);

    /** Execute one coalesced group of pending requests. */
    void executeGroup(const std::vector<Pending *> &group);

    /**
     * The one chunk runner, for the incumbent (executeGroup) and the
     * canary candidate (maybeShadow): run @p op of @p model over every
     * row of @p members, one response per member.  Row r of a member
     * draws from Rng::stream(its seed, r); chunks of at most
     * maxBatchRows gather onto the packed plane when every member is
     * binary and the family takes packed input, else the float plane.
     * A row width other than the model's input dim fails the run
     * before any gather; a kernel fatal fails it, not the process.
     * Only @p serving runs count kernelBatches and scratchResizes.
     */
    Result<std::vector<Response>> runChunks(
        const Model &model, Op op, const std::vector<Pending *> &members,
        bool serving);

    /**
     * Shadow-execute the gate-selected members of @p group through the
     * staged candidate and feed the gate state machine.  Reads the
     * incumbent @p responses strictly read-only -- shadow execution
     * never touches client-visible bytes or the response cache.
     * @p incumbentCpuNs is the process CPU time the incumbent's
     * runChunks took for this group (the cost baseline).
     */
    void maybeShadow(const std::vector<Pending *> &group,
                     const std::vector<Response> &responses,
                     std::uint64_t incumbentCpuNs);

    /** Gate breach: quarantine the candidate with capped backoff. */
    void canaryQuarantine(const std::string &reason);

    ModelRegistry &registry_;
    ServerConfig config_;
    std::vector<Pending> pending_;
    std::size_t pendingRows_ = 0;
    Stats stats_;

    // Live-canary gate internals beside stats_'s state and streak (one
    // dispatcher thread, no locking).
    std::size_t canarySlowStreak_ = 0;  ///< consecutive slow groups
    long canaryBackoffMs_ = 0;          ///< 0 until the first breach
    std::uint64_t canaryResumeNs_ = 0;  ///< quarantine expiry

    // Per-flush scratch, reused across groups and flushes (one
    // dispatcher thread): group slots, row map, per-row streams, the
    // gather/scatter chunk buffers (float and packed planes) and the
    // model ops' staging matrices.  The canary candidate's runChunks
    // reuses them after the incumbent's; each run rewrites what it reads.
    std::vector<Group> groups_;
    std::vector<FlushModel> flushModels_;
    std::vector<RowRef> rowMap_;
    std::vector<util::Rng> rngs_;
    linalg::Matrix in_, chunk_;
    linalg::BitMatrix packedIn_;
    std::vector<int> labelChunk_;
    BatchScratch modelScratch_;
    // The splitter-selected members of a shadowed group, and their
    // indices into it (where the incumbent's responses sit).
    std::vector<Pending *> shadowMembers_;
    std::vector<std::size_t> shadowPicked_;

    // Response cache: LRU list (front = most recent) indexed by key.
    std::list<CacheEntry> cacheLru_;
    std::unordered_map<CacheKey, std::list<CacheEntry>::iterator,
                       CacheKeyHash>
        cacheIndex_;
};

/**
 * Offline promote (`isingrbm promote`) through the live canary gate:
 * stage @p candidatePath as @p name's candidate, then replay one
 * seeded Reconstruct probe -- probeRequests over the incumbent with
 * @p probeRows rows and seed @p probeSeed -- through a Server whose
 * gate shadows every request (fraction 1, minShadows 1, maxDivergence
 * @p tolerance, no cost multiple).  A clean shadow publishes through
 * promoteStaged; a breach quarantines the candidate, a counted
 * rollback (promoted false).  With no resolvable incumbent, or no
 * Reconstruct on either side (ClassRbm), the candidate publishes
 * ungated and the detail says so.  An unloadable or mis-shaped
 * candidate fails at staging: an error Status, counted as a rollback.
 * Defined in promote.cpp.
 */
Result<PromoteReport> promoteCandidate(ModelRegistry &registry,
                                       const std::string &name,
                                       const std::string &candidatePath,
                                       double tolerance,
                                       std::size_t probeRows,
                                       std::uint64_t probeSeed);

/** Nanoseconds on the steady clock: Request::deadlineNs's domain. */
std::uint64_t steadyNowNs();

/**
 * The live-canary traffic splitter: true when a request carrying
 * @p seed falls inside the shadowed @p fraction.  A pure function of
 * the seed (a splitmix64 finalizer mapped to [0, 1)), so the shadow
 * set is identical at any connection interleaving, coalescing shape
 * or worker count -- the property the splitter tests pin down.
 */
bool canaryShadowSelected(std::uint64_t seed, double fraction);

/**
 * Uniform probe workload for throughput measurement: @p requests
 * requests of @p rows rows each (random binary input rows for the
 * data-bearing ops, chain counts for Sample), request q seeded
 * seedBase + q.  Shared by `isingrbm serve-bench` and bench_scaling's
 * serve section so both surfaces measure the same workload shape.
 */
std::vector<Request> probeRequests(const Model &model,
                                   const std::string &name, Op op,
                                   std::size_t requests,
                                   std::size_t rows, int steps,
                                   std::uint64_t seedBase);

/**
 * The same corpus built from the input width alone, so a remote
 * client (`isingrbm loadgen`) can regenerate byte-identical probe
 * traffic from an Info frame without loading the model locally.
 */
std::vector<Request> probeRequests(std::size_t inputDim,
                                   const std::string &name, Op op,
                                   std::size_t requests,
                                   std::size_t rows, int steps,
                                   std::uint64_t seedBase);

} // namespace ising::engine

#endif // ISINGRBM_ENGINE_SERVER_HPP
