/**
 * @file
 * Load generator implementation: corpus encoding and the poll loop.
 */

#include "net/loadgen.hpp"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "engine/server.hpp"
#include "linalg/bits.hpp"
#include "net/client.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace ising::net {

namespace {

/** Reconnect attempts per connection before the run gives up. */
constexpr int kMaxReconnectAttempts = 10;

/** Seed of the exponential inter-arrival gap stream. */
constexpr std::uint64_t kArrivalSeed = 1;

/** Abort if no response arrives for this long (a hung server must
 *  fail the harness, not wedge it). */
constexpr double kProgressTimeoutSec = 30.0;

/** Encode one corpus request as a complete Infer frame. */
std::string
encodeCorpusFrame(const engine::Request &req, std::uint32_t id,
                  bool packedPayload, std::uint32_t deadlineMs)
{
    Request frame;
    frame.type = FrameType::InferRequest;
    frame.id = id;
    frame.deadlineMs = deadlineMs;
    frame.model = req.model;
    frame.op = req.op;
    frame.steps = req.steps;
    frame.seed = req.seed;
    if (req.op == engine::Op::Sample) {
        frame.payload = PayloadKind::None;
        frame.rows = static_cast<std::uint32_t>(req.count);
        frame.cols = 0;
    } else if (packedPayload) {
        // probeRequests rows are 0/1 floats: pack them into the
        // canonical bit layout the server feeds straight to the
        // packed gather.
        frame.payload = PayloadKind::Packed;
        frame.rows = static_cast<std::uint32_t>(req.input.rows());
        frame.cols = static_cast<std::uint32_t>(req.input.cols());
        linalg::BitMatrix bits(req.input.rows(), req.input.cols());
        for (std::size_t r = 0; r < req.input.rows(); ++r)
            bits.packRowFrom(r, req.input.row(r));
        frame.words.assign(bits.row(0),
                           bits.row(0) + req.input.rows() *
                                             bits.wordsPerRow());
    } else {
        frame.payload = PayloadKind::Float;
        frame.rows = static_cast<std::uint32_t>(req.input.rows());
        frame.cols = static_cast<std::uint32_t>(req.input.cols());
        frame.floats.assign(req.input.data(),
                            req.input.data() + req.input.size());
    }
    std::string bytes;
    encodeRequest(frame, bytes);
    return bytes;
}

struct GenConn
{
    int fd = -1;
    FrameReader reader;
    std::string out;
    std::size_t outPos = 0;
    /**
     * Self-healing state.  Corpus indices assigned to this connection
     * stay listed until their response arrives, so a reconnect can
     * rebuild the outgoing buffer and resend them all -- safe because
     * a response is a pure function of the request tuple, so the
     * duplicate execution returns bit-identical bytes.
     */
    std::vector<std::uint32_t> unanswered;
    bool down = false;
    int attempts = 0;        ///< consecutive failed reconnects
    double reconnectAt = 0;  ///< watch-seconds of the next attempt
};

} // namespace

std::size_t
queryInputDim(const std::string &host, std::uint16_t port,
              const std::string &model, std::string *error)
{
    Client client;
    if (!client.connect(host, port, error))
        return 0;
    Request req;
    req.type = FrameType::InfoRequest;
    req.model = model;
    Response res;
    if (!client.call(req, res)) {
        if (error)
            *error = "info round trip failed";
        return 0;
    }
    if (res.code != kWireOk || res.models.empty()) {
        if (error)
            *error = std::string("info: [") + wireCodeName(res.code) +
                     "] " + res.message;
        return 0;
    }
    return res.models.front().inputDim;
}

LoadGenReport
runLoadGen(const LoadGenConfig &config)
{
    LoadGenReport report;
    const auto fail = [&](const std::string &what) {
        report.error = what;
        return report;
    };

    std::size_t inputDim = config.inputDim;
    if (inputDim == 0 && config.op != engine::Op::Sample) {
        std::string error;
        inputDim = queryInputDim(config.host, config.port, config.model,
                                 &error);
        if (inputDim == 0)
            return fail("loadgen: " + error);
    }

    // The deterministic corpus: the byte-diff baseline regenerates
    // the identical stream through in-process serve-bench.  With
    // hitPct > 0 a slice of requests is redirected at a small warm
    // set (disjoint seed range) so repeats hit the response cache.
    const std::vector<engine::Request> unique = engine::probeRequests(
        inputDim, config.model, config.op, config.requests, config.rows,
        config.steps, config.seed);
    std::vector<engine::Request> warm;
    if (config.hitPct > 0)
        warm = engine::probeRequests(
            inputDim, config.model, config.op,
            std::max<std::size_t>(1, config.warmCount), config.rows,
            config.steps, config.seed + 9000000);
    util::Rng pick(config.seed ^ 0x70616e656cull);
    std::vector<std::string> frames(config.requests);
    std::vector<std::size_t> rowsOf(config.requests);
    for (std::size_t q = 0; q < config.requests; ++q) {
        const bool hit =
            config.hitPct > 0 &&
            pick.uniformInt(100) < static_cast<std::uint64_t>(
                std::min(config.hitPct, 100));
        const engine::Request &req =
            hit ? warm[pick.uniformInt(warm.size())] : unique[q];
        frames[q] = encodeCorpusFrame(req, static_cast<std::uint32_t>(q),
                                      config.packedPayload,
                                      config.deadlineMs);
        rowsOf[q] = config.op == engine::Op::Sample ? req.count
                                                    : req.input.rows();
    }

    // Scheduled arrivals: exponential gaps at the offered rate, or
    // everything at t=0 (saturate).
    std::vector<double> arrival(config.requests, 0.0);
    if (config.ratePerSec > 0) {
        util::Rng gaps(kArrivalSeed);
        double t = 0;
        for (std::size_t q = 0; q < config.requests; ++q) {
            t += -std::log(1.0 - gaps.uniform()) / config.ratePerSec;
            arrival[q] = t;
        }
    }

    const std::size_t nConns =
        std::max<std::size_t>(1, config.connections);
    std::vector<Client> clients(nConns);
    std::vector<GenConn> conns(nConns);
    for (std::size_t c = 0; c < nConns; ++c) {
        std::string error;
        if (!clients[c].connect(config.host, config.port, &error))
            return fail("loadgen: connect: " + error);
        conns[c].fd = clients[c].fd();
        ::fcntl(conns[c].fd, F_SETFL,
                ::fcntl(conns[c].fd, F_GETFL, 0) | O_NONBLOCK);
    }

    if (config.keepResponses)
        report.responses.resize(config.requests);

    util::Stopwatch watch;
    double lastProgress = 0;
    std::size_t next = 0;      ///< next unsent corpus index
    std::size_t completed = 0;
    std::string body;
    std::vector<pollfd> fds(nConns);

    // A severed connection is healed, not fatal: close, back off, and
    // let the reconnect pass below rebuild + resend its unanswered
    // requests.  Anything partially received is discarded (the fresh
    // FrameReader) and re-asked for.
    const auto sever = [&](std::size_t c) {
        GenConn &conn = conns[c];
        clients[c].close();
        conn.fd = -1;
        conn.down = true;
        conn.out.clear();
        conn.outPos = 0;
        conn.reader = FrameReader();
        const long backoffMs = std::min<long>(
            50l << std::min(conn.attempts, 5), 2000);
        conn.reconnectAt = watch.seconds() + backoffMs / 1000.0;
    };

    while (completed < config.requests) {
        double now = watch.seconds();

        // Heal downed connections whose backoff has elapsed.
        for (std::size_t c = 0; c < nConns; ++c) {
            GenConn &conn = conns[c];
            if (!conn.down || now < conn.reconnectAt)
                continue;
            std::string error;
            if (!clients[c].connect(config.host, config.port, &error)) {
                if (++conn.attempts >= kMaxReconnectAttempts)
                    return fail("loadgen: reconnect failed after " +
                                std::to_string(conn.attempts) +
                                " attempts: " + error);
                const long backoffMs = std::min<long>(
                    50l << std::min(conn.attempts, 5), 2000);
                conn.reconnectAt = now + backoffMs / 1000.0;
                continue;
            }
            conn.fd = clients[c].fd();
            ::fcntl(conn.fd, F_SETFL,
                    ::fcntl(conn.fd, F_GETFL, 0) | O_NONBLOCK);
            conn.down = false;
            conn.attempts = 0;
            conn.reader = FrameReader();
            ++report.reconnects;
            report.retries += conn.unanswered.size();
            for (const std::uint32_t id : conn.unanswered)
                conn.out.append(frames[id]);
            lastProgress = now;  // healing is progress, not a hang
        }

        // Open loop: every request whose arrival time has passed goes
        // into its connection's buffer regardless of response state
        // (a downed connection just queues it for the resend pass).
        while (next < config.requests && arrival[next] <= now) {
            GenConn &conn = conns[next % nConns];
            conn.unanswered.push_back(
                static_cast<std::uint32_t>(next));
            if (!conn.down)
                conn.out.append(frames[next]);
            ++report.sent;
            ++next;
        }

        for (std::size_t c = 0; c < nConns; ++c) {
            fds[c].fd = conns[c].down ? -1 : conns[c].fd;
            fds[c].events = static_cast<short>(
                POLLIN |
                (conns[c].outPos < conns[c].out.size() ? POLLOUT : 0));
            fds[c].revents = 0;
        }
        int timeoutMs = 100;
        if (next < config.requests)
            timeoutMs = std::clamp(
                static_cast<int>((arrival[next] - now) * 1000.0), 0,
                timeoutMs);
        if (::poll(fds.data(), fds.size(), timeoutMs) < 0 &&
            errno != EINTR)
            return fail("loadgen: poll failed: " +
                        std::string(std::strerror(errno)));

        for (std::size_t c = 0; c < nConns; ++c) {
            GenConn &conn = conns[c];
            if (conn.down)
                continue;
            if (fds[c].revents & POLLOUT) {
                bool severed = false;
                while (conn.outPos < conn.out.size()) {
                    const ssize_t n = ::send(
                        conn.fd, conn.out.data() + conn.outPos,
                        conn.out.size() - conn.outPos, MSG_NOSIGNAL);
                    if (n > 0) {
                        conn.outPos += static_cast<std::size_t>(n);
                        continue;
                    }
                    if (n < 0 &&
                        (errno == EAGAIN || errno == EWOULDBLOCK))
                        break;
                    if (n < 0 && errno == EINTR)
                        continue;
                    sever(c);  // EPIPE/ECONNRESET: heal, don't abort
                    severed = true;
                    break;
                }
                if (severed)
                    continue;
                if (conn.outPos >= conn.out.size()) {
                    conn.out.clear();
                    conn.outPos = 0;
                }
            }
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            bool severed = false;
            while (true) {
                char buf[65536];
                const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
                if (n > 0) {
                    conn.reader.feed(buf,
                                     static_cast<std::size_t>(n));
                    continue;
                }
                if (n == 0) {
                    // Mid-run EOF (server restart, injected netdrop):
                    // decode what arrived whole, then heal.
                    severed = true;
                    break;
                }
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    break;
                if (errno == EINTR)
                    continue;
                severed = true;
                break;
            }
            const double done = watch.seconds();
            while (conn.reader.next(body)) {
                Response res;
                if (!decodeResponse(body.data(), body.size(), res))
                    return fail("loadgen: malformed response frame");
                if (res.type != FrameType::InferResponse ||
                    res.id >= config.requests)
                    return fail("loadgen: unexpected response frame");
                if (res.code == kWireOverloaded) {
                    ++report.shed;
                } else if (res.code == kWireDeadlineExceeded) {
                    ++report.deadlineExpired;
                } else if (res.code == kWireOk) {
                    ++report.ok;
                    report.okRows += rowsOf[res.id];
                    report.latencyNs.record(static_cast<std::uint64_t>(
                        (done - arrival[res.id]) * 1e9));
                } else {
                    ++report.failed;
                }
                const auto answered =
                    std::find(conn.unanswered.begin(),
                              conn.unanswered.end(), res.id);
                if (answered != conn.unanswered.end())
                    conn.unanswered.erase(answered);
                if (config.keepResponses)
                    report.responses[res.id] = std::move(res);
                ++completed;
                lastProgress = done;
            }
            if (conn.reader.overflow())
                return fail("loadgen: oversized response frame");
            if (severed)
                sever(c);
        }

        if (watch.seconds() - lastProgress > kProgressTimeoutSec)
            return fail("loadgen: no response for " +
                        std::to_string(kProgressTimeoutSec) +
                        "s; giving up");
    }
    report.seconds = watch.seconds();
    return report;
}

} // namespace ising::net
