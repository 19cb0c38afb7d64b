/**
 * @file
 * Workloads serve_miss, serve_hot and serve_canary: reconstruct
 * traffic of 4-row packed requests against a 784x500 RBM through the
 * whole socket chain -- net::NetServer (epoll loop) -> engine::Server
 * (coalescing, response cache, canary shadow) -> engine::Model -> the
 * packed rbm/linalg kernels on the exec pool.
 *
 * One process holds the server (its epoll thread plus the engine
 * pool) and the load generator: one thread driving two connections.
 * A run has two measured phases:
 *
 *  - fixed rate: open-loop Poisson arrivals at the workload's rate,
 *    well below saturation.  Latency is completion minus *scheduled*
 *    arrival, so a stall also charges the requests queued behind it;
 *    a non-ok reply counts as exceeding every latency limit.
 *  - saturating: a fixed window of requests kept in flight per
 *    connection, so the server never idles; goodput counts ok replies
 *    only.
 *
 * Every fixed-rate reply, and a sample of the saturating ones, is
 * byte-compared (by digest) with an in-process engine::Server serving
 * the same requests.
 */

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "common.hpp"
#include "data/registry.hpp"
#include "exec/thread_pool.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "probes.hpp"
#include "train/strategies.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace ising;

constexpr std::size_t kVisible = 784;
constexpr std::size_t kHidden = 500;
constexpr std::size_t kRowsPerRequest = 4;
constexpr std::size_t kPoolRows = 2048;      ///< request rows to draw from
constexpr std::size_t kWarmSet = 16;         ///< serve_hot's repeated set
constexpr std::size_t kConnections = 2;
constexpr std::size_t kWindowPerConn = 64;   ///< saturating in-flight
constexpr std::size_t kWarmupRequests = 1024;
constexpr std::size_t kCacheBytes = 8u << 20;  ///< full after warm-up
constexpr int kSetups = 3;
constexpr std::uint64_t kSampleEvery = 16;   ///< saturating replies checked
constexpr std::size_t kMaxSampled = 4096;
constexpr std::uint64_t kTraceEvery = 8;     ///< requests given a span
constexpr double kProgressTimeoutSec = 30.0;
constexpr double kWindowSec = 0.25;          ///< goodput window
/** Share of --seconds for the fixed-rate phase; the rest saturates,
 *  and goodput (the gated metric) gets the larger share. */
constexpr double kFixedShare = 0.4;
const char *const kModel = "serve";

/** What distinguishes the serving workloads. */
struct Shape
{
    const char *name;
    /** req/s of the fixed-rate phase: about a sixth of the saturated
     *  goodput on a 4-vCPU Xeon VM, so a host running slower for a
     *  while still leaves the server far below its knee. */
    double fixedRate;
    int hitPct;        ///< % of requests drawn from the warm set
    bool canary;       ///< byte-copy candidate shadowing every request
};

constexpr Shape kShapes[] = {
    {"serve_miss", 1500.0, 0, false},
    {"serve_hot", 5000.0, 99, false},
    {"serve_canary", 500.0, 0, true},
};

/** One request: which pool rows it carries, and its seed. */
struct Spec
{
    std::uint32_t rows[kRowsPerRequest];
    std::uint64_t seed;
};

/**
 * The request stream: request q is a pure function of (seed, q), so
 * the in-process check rebuilds exactly what went over the wire.
 * Unique requests differ in their seed (and usually their rows); with
 * hitPct > 0 that share of requests repeats one of kWarmSet requests.
 */
class Corpus
{
  public:
    Corpus(std::uint64_t seed, int hitPct) : seed_(seed), hitPct_(hitPct) {}

    Spec
    at(std::uint64_t q) const
    {
        util::Rng rng = util::Rng::stream(seed_, q);
        if (hitPct_ > 0 &&
            rng.uniformInt(100) < static_cast<std::uint64_t>(hitPct_))
            return make(kWarmKey + rng.uniformInt(kWarmSet));
        return make(q);
    }

  private:
    static constexpr std::uint64_t kWarmKey = 1ull << 62;

    Spec
    make(std::uint64_t key) const
    {
        util::Rng rng = util::Rng::stream(seed_ ^ 0x636f72707573ull, key);
        Spec spec;
        for (std::uint32_t &row : spec.rows)
            row = static_cast<std::uint32_t>(rng.uniformInt(kPoolRows));
        spec.seed = rng.next();
        return spec;
    }

    std::uint64_t seed_;
    int hitPct_;
};

/** Order-sensitive digest of a reply's floats (four 64-bit lanes). */
std::uint64_t
replyDigest(const float *data, std::size_t count)
{
    std::uint64_t lane[4] = {0xcbf29ce484222325ull, 1, 2, 3};
    const std::size_t words = count * sizeof(float) / 8;
    const auto *bytes = reinterpret_cast<const unsigned char *>(data);
    for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t v;
        std::memcpy(&v, bytes + w * 8, 8);
        std::uint64_t &h = lane[w & 3];
        h = (h ^ v) * 0x100000001b3ull;
    }
    std::uint64_t tail = 0;
    std::memcpy(&tail, bytes + words * 8,
                count * sizeof(float) - words * 8);
    return fnv1a(lane, sizeof lane) ^ tail;
}

/** The packed engine request of @p spec (what the server decodes). */
engine::Request
engineRequest(const linalg::BitMatrix &pool, const Spec &spec)
{
    engine::Request req;
    req.model = kModel;
    req.op = engine::Op::Reconstruct;
    req.steps = 0;
    req.seed = spec.seed;
    req.packed = true;
    req.packedInput.reset(kRowsPerRequest, pool.cols());
    for (std::size_t r = 0; r < kRowsPerRequest; ++r)
        req.packedInput.copyRowFrom(r, pool, spec.rows[r]);
    return req;
}

/** Fixed-rate phase outcome (indexed by position in the phase). */
struct FixedPhase
{
    std::uint64_t firstId = 0;
    std::size_t count = 0;
    std::size_t nonOk = 0;
    std::vector<double> latency;        ///< seconds; +inf for non-ok
    std::vector<std::uint64_t> digest;  ///< 0 for non-ok
    double overrunPct = 0.0;
};

/** Saturating phase outcome. */
struct SaturatedPhase
{
    std::size_t sent = 0;
    std::size_t ok = 0;
    std::size_t shed = 0;
    std::size_t nonOk = 0;
    double seconds = 0.0;
    /** ok replies per kWindowSec window of the sending interval. */
    std::vector<double> windowOk;
    /** (request id, digest) of the byte-checked sample. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sampled;
};

/**
 * The load generator: one thread, kConnections non-blocking
 * connections, frames built on the fly from the corpus.  Request ids
 * run on across phases; the id is also the corpus index.
 */
class Generator
{
  public:
    Generator(const linalg::BitMatrix &pool, const Corpus &corpus,
              Tracer &tracer)
        : pool_(pool), corpus_(corpus), tracer_(tracer),
          conns_(kConnections)
    {
        frame_.type = net::FrameType::InferRequest;
        frame_.model = kModel;
        frame_.op = engine::Op::Reconstruct;
        frame_.payload = net::PayloadKind::Packed;
        frame_.steps = 0;
        frame_.rows = kRowsPerRequest;
        frame_.cols = static_cast<std::uint32_t>(pool.cols());
        frame_.words.resize(kRowsPerRequest * pool.wordsPerRow());
    }

    void
    connect(std::uint16_t port)
    {
        for (Conn &conn : conns_) {
            std::string error;
            if (!conn.client.connect("127.0.0.1", port, &error))
                throw std::runtime_error("connect: " + error);
            const int fd = conn.client.fd();
            ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
        }
    }

    /** The encoded Infer frame of request @p id (probe input). */
    std::string
    frameBytes(std::uint64_t id)
    {
        std::string out;
        encode(id, out);
        return out;
    }

    FixedPhase
    runFixed(double rate, double seconds, std::uint64_t arrivalSeed,
             std::uint32_t span)
    {
        std::vector<double> arrival;
        util::Rng gaps(arrivalSeed);
        for (double t = 0.0;;) {
            t += -std::log(1.0 - gaps.uniform()) / rate;
            if (t > seconds)
                break;
            arrival.push_back(t);
        }
        FixedPhase phase;
        phase.firstId = nextId_;
        phase.count = arrival.size();
        phase.latency.assign(phase.count, 0.0);
        phase.digest.assign(phase.count, 0);
        if (phase.count == 0)
            return phase;

        const double start = nowSec() + 1e-3;
        std::size_t next = 0, done = 0;
        double lastDone = start;
        const auto onReply = [&](const net::Response &res, double at) {
            const std::uint64_t index = res.id - phase.firstId;
            if (res.id < phase.firstId || index >= phase.count)
                throw std::runtime_error("reply for an unknown request");
            const double due = start + arrival[index];
            if (res.code == net::kWireOk) {
                phase.latency[index] = at - due;
                phase.digest[index] =
                    replyDigest(res.floats.data(), res.floats.size());
            } else {
                ++phase.nonOk;
                phase.latency[index] =
                    std::numeric_limits<double>::infinity();
            }
            if (index % kTraceEvery == 0)
                tracer_.record("gen.request", due, at, span, res.id);
            lastDone = at;
            ++done;
        };
        while (done < phase.count) {
            const double now = nowSec();
            while (next < phase.count && start + arrival[next] <= now)
                send(next++ % kConnections);
            const double wait =
                next < phase.count ? start + arrival[next] - nowSec() : 0.05;
            pump(std::clamp(wait, 0.0, 0.05), onReply);
        }
        const double scheduled = arrival.back();
        phase.overrunPct =
            100.0 * (lastDone - (start + scheduled)) / scheduled;
        return phase;
    }

    /**
     * Keep kWindowPerConn requests in flight per connection until
     * @p seconds pass or @p maxRequests were sent, then drain.
     */
    SaturatedPhase
    runSaturated(double seconds, std::size_t maxRequests,
                 std::uint32_t span)
    {
        SaturatedPhase phase;
        const double start = nowSec();
        double lastDone = start;
        std::size_t inflight = 0;
        if (seconds < 1e6)
            phase.windowOk.assign(
                static_cast<std::size_t>(seconds / kWindowSec), 0.0);
        const auto onReply = [&](const net::Response &res, double at) {
            --inflight;
            if (res.code == net::kWireOk) {
                ++phase.ok;
                const auto window =
                    static_cast<std::size_t>((at - start) / kWindowSec);
                if (window < phase.windowOk.size())
                    ++phase.windowOk[window];
                if (res.id % kSampleEvery == 0 &&
                    phase.sampled.size() < kMaxSampled)
                    phase.sampled.emplace_back(
                        res.id,
                        replyDigest(res.floats.data(), res.floats.size()));
            } else if (res.code == net::kWireOverloaded) {
                ++phase.shed;
            } else {
                ++phase.nonOk;
            }
            if (res.id % (kTraceEvery * 8) == 0)
                tracer_.record("gen.request", sentAt_[res.id % kRing], at,
                               span, res.id);
            lastDone = at;
        };
        for (;;) {
            const double now = nowSec();
            const bool open =
                now - start < seconds && phase.sent < maxRequests;
            for (std::size_t c = 0; open && c < kConnections; ++c)
                while (conns_[c].inflight < kWindowPerConn &&
                       phase.sent < maxRequests) {
                    if (tracer_.enabled())
                        sentAt_[nextId_ % kRing] = now;
                    send(c);
                    ++phase.sent;
                    ++inflight;
                }
            if (!open && inflight == 0)
                break;
            pump(0.05, onReply);
        }
        phase.seconds = lastDone - start;
        return phase;
    }

  private:
    struct Conn
    {
        net::Client client;
        net::FrameReader reader;
        std::string out;
        std::size_t outPos = 0;
        std::size_t inflight = 0;
    };

    /** Ring of send times for saturating-phase spans. */
    static constexpr std::size_t kRing = 4096;

    void
    encode(std::uint64_t id, std::string &out)
    {
        const Spec spec = corpus_.at(id);
        const std::size_t wpr = pool_.wordsPerRow();
        for (std::size_t r = 0; r < kRowsPerRequest; ++r)
            std::copy_n(pool_.row(spec.rows[r]), wpr,
                        frame_.words.data() + r * wpr);
        frame_.id = static_cast<std::uint32_t>(id);
        frame_.seed = spec.seed;
        net::encodeRequest(frame_, out);
    }

    void
    send(std::size_t c)
    {
        Conn &conn = conns_[c];
        encode(nextId_++, conn.out);
        ++conn.inflight;
        flushOut(conn);
    }

    void
    flushOut(Conn &conn)
    {
        while (conn.outPos < conn.out.size()) {
            const ssize_t n =
                ::send(conn.client.fd(), conn.out.data() + conn.outPos,
                       conn.out.size() - conn.outPos, MSG_NOSIGNAL);
            if (n > 0) {
                conn.outPos += static_cast<std::size_t>(n);
            } else if (n < 0 && errno == EINTR) {
                continue;
            } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                return;
            } else {
                throw std::runtime_error("send failed: " +
                                         std::string(std::strerror(errno)));
            }
        }
        conn.out.clear();
        conn.outPos = 0;
    }

    /** One poll round: write what is pending, deliver what arrived. */
    template <typename OnReply>
    void
    pump(double timeoutSec, const OnReply &onReply)
    {
        pollfd fds[kConnections];
        for (std::size_t c = 0; c < kConnections; ++c) {
            fds[c].fd = conns_[c].client.fd();
            fds[c].events = static_cast<short>(
                POLLIN |
                (conns_[c].outPos < conns_[c].out.size() ? POLLOUT : 0));
            fds[c].revents = 0;
        }
        const timespec timeout = {
            static_cast<time_t>(timeoutSec),
            static_cast<long>(std::fmod(timeoutSec, 1.0) * 1e9)};
        if (::ppoll(fds, kConnections, &timeout, nullptr) < 0 &&
            errno != EINTR)
            throw std::runtime_error("poll failed");
        bool progress = false;
        for (std::size_t c = 0; c < kConnections; ++c) {
            Conn &conn = conns_[c];
            if (fds[c].revents & POLLOUT)
                flushOut(conn);
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            char buf[1 << 16];
            for (;;) {
                const ssize_t n =
                    ::recv(conn.client.fd(), buf, sizeof buf, 0);
                if (n > 0) {
                    conn.reader.feed(buf, static_cast<std::size_t>(n));
                    continue;
                }
                if (n < 0 && errno == EINTR)
                    continue;
                if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                    break;
                throw std::runtime_error("server closed a connection");
            }
            const double at = nowSec();
            while (conn.reader.next(body_)) {
                if (!net::decodeResponse(body_.data(), body_.size(),
                                         reply_) ||
                    reply_.type != net::FrameType::InferResponse)
                    throw std::runtime_error("malformed reply frame");
                --conn.inflight;
                onReply(reply_, at);
                progress = true;
            }
        }
        const double now = nowSec();
        if (progress)
            lastProgress_ = now;
        else if (lastProgress_ == 0.0)
            lastProgress_ = now;
        else if (now - lastProgress_ > kProgressTimeoutSec)
            throw std::runtime_error("no reply for 30 s");
    }

    const linalg::BitMatrix &pool_;
    const Corpus &corpus_;
    Tracer &tracer_;
    std::vector<Conn> conns_;
    net::Request frame_;   ///< reused encode scratch
    std::string body_;
    net::Response reply_;
    std::uint64_t nextId_ = 0;
    double lastProgress_ = 0.0;
    double sentAt_[kRing] = {};
};

/** One server + generator instance. */
struct ServeRig
{
    std::string dir;
    linalg::BitMatrix pool;
    rbm::Rbm model;  ///< the served parameters
    std::unique_ptr<Corpus> corpus;
    std::unique_ptr<engine::ModelRegistry> registry;
    std::unique_ptr<net::NetServer> server;
    std::thread loop;
    std::unique_ptr<Generator> gen;

    ServeRig() = default;
    ServeRig(const ServeRig &) = delete;
    ServeRig &operator=(const ServeRig &) = delete;
    ~ServeRig() { stop(); }

    /** Stop the epoll loop and wait for it (idempotent). */
    void
    stop()
    {
        if (server)
            server->requestStop();
        if (loop.joinable())
            loop.join();
    }
};

std::unique_ptr<ServeRig>
setUp(const Options &options, const Shape &shape, int index,
      Tracer &tracer)
{
    auto rig = std::make_unique<ServeRig>();
    rig->dir = options.workDir + "/serve-" + std::to_string(index);
    fs::remove_all(rig->dir);
    fs::create_directories(rig->dir);

    // Request rows and the served model: one CD-1 epoch on the same
    // synthetic digits, so hidden activity is a trained model's.
    const data::Dataset rows = data::binarizeThreshold(
        data::makeBenchmarkData("MNIST", kPoolRows, options.seed));
    rig->pool.reset(kPoolRows, kVisible);
    for (std::size_t r = 0; r < kPoolRows; ++r)
        rig->pool.packRowFrom(r, rows.sample(r));
    util::Rng initRng(options.seed);
    rbm::Rbm init(kVisible, kHidden);
    init.initRandom(initRng);
    train::TrainOptions trainOptions;
    trainOptions.batchSize = 50;
    trainOptions.seed = options.seed;
    auto strategy =
        train::makeRbmStrategy(std::move(init), rows, trainOptions);
    util::Rng epochRng = util::Rng::stream(options.seed, 0);
    strategy->runEpoch(train::EpochParams{}, epochRng);
    rig->model = std::get<rbm::Rbm>(strategy->snapshot());

    rig->registry = std::make_unique<engine::ModelRegistry>(rig->dir);
    rbm::Checkpoint ckpt;
    ckpt.meta.backend = "cd";
    ckpt.meta.seed = options.seed;
    ckpt.model = rig->model;
    rig->registry->put(kModel, std::move(ckpt));

    net::NetConfig config;
    config.server.cacheBytes = kCacheBytes;
    if (shape.canary) {
        const std::string candidate = rig->dir + "/candidate.ckpt";
        fs::copy_file(rig->registry->pathFor(kModel), candidate);
        const engine::Status staged =
            rig->registry->stageCandidate(kModel, candidate);
        if (!staged.ok())
            throw std::runtime_error("stage candidate: " +
                                     staged.toString());
        // Observe-only gate: every request shadowed, never promoted,
        // no wall-clock latency breach.
        config.server.canary.model = kModel;
        config.server.canary.fraction = 1.0;
        config.server.canary.autoPromote = false;
        config.server.canary.maxLatencyMultiple = 0.0;
    }
    rig->server = std::make_unique<net::NetServer>(*rig->registry, config);
    const std::uint16_t port = rig->server->start();
    net::NetServer *server = rig->server.get();
    rig->loop = std::thread([server] {
        pinCurrentThread(kLoopCpu);
        server->run();
    });

    rig->corpus = std::make_unique<Corpus>(options.seed, shape.hitPct);
    rig->gen = std::make_unique<Generator>(rig->pool, *rig->corpus, tracer);
    rig->gen->connect(port);
    const SaturatedPhase warm =
        rig->gen->runSaturated(1e9, kWarmupRequests, 0);
    if (warm.ok != warm.sent)
        throw std::runtime_error("warm-up requests failed");
    return rig;
}

/** Result of replaying requests through an in-process engine. */
struct Replay
{
    std::size_t mismatches = 0;
    double reconErr = 0.0;   ///< mean |reply - input|, distinct requests
    double usPerReq = 0.0;
};

Replay
replay(ServeRig &rig, const FixedPhase &fixed, const SaturatedPhase &sat)
{
    struct Item
    {
        std::uint64_t id, digest;
        bool fixed;
    };
    std::vector<Item> items;
    for (std::size_t i = 0; i < fixed.count; ++i)
        if (fixed.digest[i] != 0)
            items.push_back({fixed.firstId + i, fixed.digest[i], true});
    for (const auto &[id, digest] : sat.sampled)
        items.push_back({id, digest, false});

    engine::ServerConfig config;
    config.cacheBytes = kCacheBytes;
    engine::Server server(*rig.registry, config);
    Replay out;
    double absSum = 0.0, terms = 0.0, engineSec = 0.0;
    std::unordered_set<std::uint64_t> distinct;
    constexpr std::size_t kChunk = 64;
    for (std::size_t begin = 0; begin < items.size(); begin += kChunk) {
        const std::size_t end = std::min(items.size(), begin + kChunk);
        std::vector<engine::Request> reqs;
        for (std::size_t i = begin; i < end; ++i)
            reqs.push_back(
                engineRequest(rig.pool, rig.corpus->at(items[i].id)));
        // Only submit + flush + collect is the engine's time.
        const double start = nowSec();
        std::vector<std::future<engine::Response>> futures;
        for (const engine::Request &req : reqs)
            futures.push_back(server.submit(req));
        server.flush();
        std::vector<engine::Response> responses;
        for (auto &future : futures)
            responses.push_back(future.get());
        engineSec += nowSec() - start;
        for (std::size_t i = begin; i < end; ++i) {
            const engine::Response &res = responses[i - begin];
            const linalg::Matrix &o = res.output;
            if (!res.status.ok() ||
                replyDigest(o.data(), o.size()) != items[i].digest) {
                ++out.mismatches;
                continue;
            }
            // recon_err weighs each distinct request once, so the hot
            // workload's repeats do not make it a 16-request sample.
            if (!items[i].fixed ||
                !distinct.insert(reqs[i - begin].seed).second)
                continue;
            const linalg::BitMatrix &in = reqs[i - begin].packedInput;
            std::vector<float> row(in.cols());
            for (std::size_t r = 0; r < o.rows(); ++r) {
                in.unpackRowTo(r, row.data());
                for (std::size_t c = 0; c < o.cols(); ++c)
                    absSum += std::abs(o.row(r)[c] - row[c]);
                terms += static_cast<double>(o.cols());
            }
        }
    }
    out.usPerReq = items.empty() ? 0.0
                                 : engineSec * 1e6 /
                                       static_cast<double>(items.size());
    out.reconErr = terms > 0 ? absSum / terms : 0.0;
    return out;
}

const Shape &
shapeOf(const std::string &name)
{
    for (const Shape &shape : kShapes)
        if (name == shape.name)
            return shape;
    throw std::runtime_error("unknown serving workload " + name);
}

} // namespace

void
runServe(const Options &options, Result &result, Tracer &tracer)
{
    const Shape &shape = shapeOf(options.workload);
    // The generator sleeps in ppoll between arrivals: spinning instead
    // lowered saturated goodput by 7-21% in interleaved runs (the
    // spinning vCPU competes with the server's).  A 1 us timer slack
    // keeps the sleeps from sending late.
    ::prctl(PR_SET_TIMERSLACK, 1000ul);

    std::vector<double> setups;
    std::unique_ptr<ServeRig> rig;
    for (int i = 0; i < kSetups; ++i) {
        rig.reset();
        const double start = nowSec();
        rig = setUp(options, shape, i, tracer);
        setups.push_back(nowSec() - start);
    }

    const std::uint32_t fixedSpan = tracer.begin("serve.fixed_rate");
    const FixedPhase fixed =
        rig->gen->runFixed(shape.fixedRate, options.seconds * kFixedShare,
                           options.seed ^ 0x617272ull, fixedSpan);
    tracer.end(fixedSpan);
    const std::uint32_t satSpan = tracer.begin("serve.saturating");
    const SaturatedPhase sat = rig->gen->runSaturated(
        options.seconds * (1.0 - kFixedShare),
        std::numeric_limits<std::size_t>::max(), satSpan);
    tracer.end(satSpan);
    rig->stop();  // engine counters are read only after the loop ends
    const engine::Server::Stats stats = rig->server->engine().stats();

    // Output checks.
    result.attempted = fixed.count + sat.sent;
    for (std::size_t i = 0; i < fixed.nonOk; ++i)
        result.fail("fixed-rate request answered non-ok");
    for (std::size_t i = 0; i < sat.nonOk; ++i)
        result.fail("saturating request failed (not shed)");
    const Replay check = replay(*rig, fixed, sat);
    for (std::size_t i = 0; i < check.mismatches; ++i)
        result.fail("reply differs from the in-process engine's");
    if (shape.canary) {
        const std::size_t executed = stats.requests - stats.cacheHits -
                                     stats.rejected -
                                     stats.deadlineExpired;
        if (stats.canaryShadows != executed ||
            stats.canaryQuarantines != 0 || stats.canaryPromotions != 0)
            result.fail("canary run invalid: " +
                        std::to_string(stats.canaryShadows) +
                        " shadows for " + std::to_string(executed) +
                        " executed requests, " +
                        std::to_string(stats.canaryQuarantines) +
                        " quarantines, " +
                        std::to_string(stats.canaryPromotions) +
                        " promotions");
    }

    std::vector<double> latency = fixed.latency;
    std::sort(latency.begin(), latency.end());
    const double p50 = quantile(latency, 0.5);
    result.add("setup_s", median(setups), "s");
    result.add("gen.p50_ms", p50 * 1e3, "ms");
    result.add("gen.p99_ms", tailQuantile(latency) * 1e3, "ms");
    result.add("goodput_per_s",
               sat.windowOk.empty()
                   ? static_cast<double>(sat.ok) / sat.seconds
                   : interquartileMean(sat.windowOk) / kWindowSec,
               "1/s");
    result.add("recon_err", check.reconErr, "mae");
    result.add("peak_rss_mb", peakRssMb(), "MB");
    stampHost(result, exec::globalPool().numWorkers(), kConnections);
    if (!tracer.enabled())
        return;

    // Per-layer: engine counters, then probes at the served shape.
    const auto ratio = [](std::size_t a, std::size_t b) {
        return b > 0 ? static_cast<double>(a) / static_cast<double>(b)
                     : 0.0;
    };
    const double rowsPerBatch = ratio(stats.rows, stats.kernelBatches);
    const double flushP50Us =
        static_cast<double>(stats.flushLatencyNs.quantile(0.5)) / 1e3;
    result.add("engine.rows_per_kernel_batch", rowsPerBatch, "rows");
    result.add("engine.requests_per_flush",
               ratio(stats.requests, stats.flushes), "count");
    result.add("engine.flush_p50_us", flushP50Us, "us");
    result.add("engine.cache_hit_ratio",
               ratio(stats.cacheHits, stats.cacheHits + stats.cacheMisses),
               "ratio");
    result.add("engine.shadow_p50_us",
               static_cast<double>(stats.shadowLatencyNs.quantile(0.5)) /
                   1e3,
               "us");
    result.add("engine.shadows_per_request",
               ratio(stats.canaryShadows, stats.requests), "ratio");
    result.add("engine.inproc_us_per_req", check.usPerReq, "us");
    result.add("net.shed_pct", 100.0 * ratio(sat.shed, sat.sent), "%");
    result.add("gen.overrun_pct", fixed.overrunPct, "%");
    result.add("gen.latency_samples", static_cast<double>(fixed.count),
               "count");

    const std::size_t chunkRows = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(rowsPerBatch)));
    linalg::BitMatrix chunk(chunkRows, kVisible);
    for (std::size_t r = 0; r < chunkRows; ++r)
        chunk.copyRowFrom(r, rig->pool, r % kPoolRows);
    const std::shared_ptr<const engine::Model> model =
        rig->registry->get(kModel);
    std::vector<util::Rng> rngs;
    for (std::size_t r = 0; r < chunkRows; ++r)
        rngs.push_back(util::Rng::stream(options.seed, r));
    engine::BatchScratch scratch;
    linalg::Matrix out;
    double probeStart = nowSec();
    result.add("engine.model_us_per_row",
               1e6 * secondsPerCall(kProbeSeconds, [&] {
                   model->reconstructRowsPacked(chunk, rngs.data(), out,
                                                scratch);
               }) / static_cast<double>(chunkRows),
               "us");
    tracer.record("probe.model", probeStart, nowSec());
    probeStart = nowSec();
    result.add("engine.registry_get_us",
               1e6 * secondsPerCall(kProbeSeconds, [&] {
                   if (!rig->registry->tryGet(kModel).ok())
                       throw std::runtime_error("registry lost the model");
               }),
               "us");
    tracer.record("probe.registry_get", probeStart, nowSec());

    // Codec probes on this workload's frames.
    const std::string frame = rig->gen->frameBytes(fixed.firstId);
    net::Request decoded;
    const double decodeNs =
        1e9 * secondsPerCall(kProbeSeconds, [&] {
            if (!net::decodeRequest(frame.data() + 4, frame.size() - 4,
                                    decoded))
                throw std::runtime_error("probe frame does not decode");
        });
    net::Response reply;
    reply.type = net::FrameType::InferResponse;
    reply.rows = kRowsPerRequest;
    reply.cols = static_cast<std::uint32_t>(out.cols());
    for (std::size_t r = 0; r < kRowsPerRequest; ++r)
        reply.floats.insert(reply.floats.end(), out.row(r % out.rows()),
                            out.row(r % out.rows()) + out.cols());
    std::string encoded;
    const double encodeNs = 1e9 * secondsPerCall(kProbeSeconds, [&] {
        encoded.clear();
        net::encodeResponse(reply, encoded);
    });
    result.add("net.decode_ns_per_req", decodeNs, "ns");
    result.add("net.encode_ns_per_reply", encodeNs, "ns");
    result.add("net.reply_bytes_per_req",
               static_cast<double>(encoded.size()), "bytes");
    result.add("net.outside_engine_p50_ms",
               p50 * 1e3 - flushP50Us / 1e3 - (decodeNs + encodeNs) / 1e6,
               "ms");

    probeStart = nowSec();
    result.add("rbm.halfsweep_ns_per_row",
               halfsweepNsPerRow(rig->model, chunk), "ns");
    tracer.record("probe.halfsweep", probeStart, nowSec());
    result.add("linalg.halfsweep_bytes",
               halfsweepBytes(kVisible, kHidden, chunkRows), "bytes");
    probeStart = nowSec();
    result.add("exec.parallel_for_us", parallelForUs(), "us");
    tracer.record("probe.parallel_for", probeStart, nowSec());
}

} // namespace perfbench
