/**
 * @file
 * NetServer implementation: the epoll event loop.
 *
 * Cycle shape: epoll_wait -> accept/read/write whatever is ready ->
 * flush the engine once -> settle the resolved futures into reply
 * slots -> drain each connection's ready slots into its write buffer.
 * One engine flush per cycle is the latency/throughput bargain: every
 * request admitted in a cycle coalesces into the same kernel batches,
 * and the admission budget bounds how much one cycle can take on.
 */

#include "net/server.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace ising::net {

namespace {

/** Events per epoll_wait call; more just take another cycle. */
constexpr int kMaxEvents = 64;

/** Grace period for draining reply bytes after stop is requested. */
constexpr double kDrainGraceSec = 5.0;

util::Stopwatch &
loopClock()
{
    static util::Stopwatch watch;
    return watch;
}

} // namespace

NetServer::NetServer(engine::ModelRegistry &registry, NetConfig config)
    : registry_(registry), config_(std::move(config)),
      engine_(registry, config_.server)
{
}

NetServer::~NetServer()
{
    for (auto &[fd, conn] : conns_)
        ::close(fd);
    conns_.clear();
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (epollFd_ >= 0)
        ::close(epollFd_);
}

std::uint16_t
NetServer::start()
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listenFd_ < 0)
        util::fatal("net: socket() failed: " +
                    std::string(std::strerror(errno)));
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.bindAddress.c_str(),
                    &addr.sin_addr) != 1)
        util::fatal("net: bad bind address '" + config_.bindAddress +
                    "'");
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0)
        util::fatal("net: bind(" + config_.bindAddress + ":" +
                    std::to_string(config_.port) +
                    ") failed: " + std::strerror(errno));
    if (::listen(listenFd_, SOMAXCONN) != 0)
        util::fatal("net: listen() failed: " +
                    std::string(std::strerror(errno)));

    socklen_t len = sizeof addr;
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    epollFd_ = ::epoll_create1(0);
    if (epollFd_ < 0)
        util::fatal("net: epoll_create1() failed: " +
                    std::string(std::strerror(errno)));
    epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
    return port_;
}

bool
NetServer::stopping() const
{
    if (stop_.load(std::memory_order_relaxed))
        return true;
    return config_.stopRequested && config_.stopRequested();
}

void
NetServer::run()
{
    epoll_event events[kMaxEvents];
    statsLastAt_ = loopClock().seconds();
    statsNextAt_ = statsLastAt_ + config_.statsEveryMs / 1000.0;
    while (true) {
        double now = loopClock().seconds();

        // Wake at least every 200 ms to poll the stop latch and the
        // idle deadlines; sooner when a deadline (or the next stats
        // ledger tick) is nearer.
        int timeoutMs = draining_ ? 10 : 200;
        for (const auto &[fd, conn] : conns_) {
            const double deadline =
                conn.lastActivity + config_.idleTimeoutMs / 1000.0;
            const int remaining =
                static_cast<int>((deadline - now) * 1000.0) + 1;
            timeoutMs = std::clamp(remaining, 0, timeoutMs);
        }
        if (config_.statsEveryMs > 0) {
            const int remaining =
                static_cast<int>((statsNextAt_ - now) * 1000.0) + 1;
            timeoutMs = std::clamp(remaining, 0, timeoutMs);
        }

        const int n =
            ::epoll_wait(epollFd_, events, kMaxEvents, timeoutMs);
        if (n < 0 && errno != EINTR)
            util::fatal("net: epoll_wait failed: " +
                        std::string(std::strerror(errno)));
        now = loopClock().seconds();

        for (int i = 0; i < std::max(n, 0); ++i) {
            const int fd = events[i].data.fd;
            if (fd == listenFd_) {
                acceptAll(now);
                continue;
            }
            // An earlier event in this batch may have closed the fd.
            const auto it = conns_.find(fd);
            if (it == conns_.end())
                continue;
            if (events[i].events & (EPOLLHUP | EPOLLERR)) {
                closeConn(fd);
                continue;
            }
            if (events[i].events & EPOLLIN)
                readConn(it->second, now);
            const auto again = conns_.find(fd);
            if (again != conns_.end() && (events[i].events & EPOLLOUT))
                writeConn(again->second, now);
        }

        // Stop transition: close the door, then drain what's inside.
        if (!draining_ && stopping()) {
            draining_ = true;
            drainDeadline_ = now + kDrainGraceSec;
            if (listenFd_ >= 0) {
                ::close(listenFd_);  // epoll drops it automatically
                listenFd_ = -1;
            }
        }

        // One engine flush per cycle; every admitted future resolves.
        if (engine_.pendingRows() > 0)
            engine_.flush();
        settleInflight();
        for (auto it = conns_.begin(); it != conns_.end();) {
            Conn &conn = (it++)->second;  // drain may close the conn
            drainConn(conn, now);
        }
        reapIdle(now);

        if (config_.statsEveryMs > 0 && now >= statsNextAt_) {
            logStatsLine(now);
            statsNextAt_ = now + config_.statsEveryMs / 1000.0;
        }

        if (draining_) {
            const bool drained =
                inflight_.empty() &&
                std::all_of(conns_.begin(), conns_.end(),
                            [](const auto &entry) {
                                const Conn &c = entry.second;
                                return c.outPos >= c.out.size();
                            });
            if (drained || now >= drainDeadline_)
                break;
        }
    }
    while (!conns_.empty())
        closeConn(conns_.begin()->first);
}

void
NetServer::acceptAll(double now)
{
    while (true) {
        const int fd =
            ::accept4(listenFd_, nullptr, nullptr, SOCK_NONBLOCK);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == EINTR)
                return;
            util::warn("net: accept failed: " +
                       std::string(std::strerror(errno)));
            return;
        }
        if (conns_.size() >= config_.maxConnections) {
            // Connection-level shedding: no fd budget left to even
            // read a frame, so the close *is* the reply.
            ::close(fd);
            ++stats_.overCapacity;
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        Conn conn;
        conn.fd = fd;
        conn.id = ++nextConnId_;
        conn.lastActivity = now;
        conn.armed = EPOLLIN;
        epoll_event ev = {};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
        conns_.emplace(fd, std::move(conn));
        ++stats_.accepted;
    }
}

void
NetServer::readConn(Conn &conn, double now)
{
    char buf[65536];
    while (true) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
        if (n > 0) {
            conn.reader.feed(buf, static_cast<std::size_t>(n));
            conn.lastActivity = now;
            continue;
        }
        if (n == 0) {  // peer closed
            closeConn(conn.fd);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeConn(conn.fd);
        return;
    }
    std::string body;
    while (conn.reader.next(body)) {
        ++stats_.frames;
        if (!handleFrame(conn, body)) {
            ++stats_.protocolErrors;
            closeConn(conn.fd);
            return;
        }
    }
    if (conn.reader.overflow()) {
        ++stats_.protocolErrors;
        closeConn(conn.fd);
    }
}

bool
NetServer::handleFrame(Conn &conn, const std::string &body)
{
    Request req;
    if (!decodeRequest(body.data(), body.size(), req))
        return false;
    switch (req.type) {
      case FrameType::ListRequest: {
        Response res;
        res.type = FrameType::ListResponse;
        for (const std::string &name : registry_.names()) {
            Response one = describe(name);
            if (one.code == kWireOk)
                res.models.push_back(std::move(one.models.front()));
        }
        auto reply = std::make_shared<Reply>();
        encodeResponse(res, reply->bytes);
        reply->ready = true;
        conn.slots.push_back(std::move(reply));
        return true;
      }
      case FrameType::InfoRequest: {
        auto reply = std::make_shared<Reply>();
        encodeResponse(describe(req.model), reply->bytes);
        reply->ready = true;
        conn.slots.push_back(std::move(reply));
        return true;
      }
      case FrameType::ShutdownRequest: {
        Response res;
        res.type = FrameType::ShutdownResponse;
        auto reply = std::make_shared<Reply>();
        encodeResponse(res, reply->bytes);
        reply->ready = true;
        conn.slots.push_back(std::move(reply));
        requestStop();
        return true;
      }
      case FrameType::HealthRequest: {
        Response res;
        res.type = FrameType::HealthResponse;
        res.health = healthSnapshot();
        auto reply = std::make_shared<Reply>();
        encodeResponse(res, reply->bytes);
        reply->ready = true;
        conn.slots.push_back(std::move(reply));
        return true;
      }
      case FrameType::InferRequest:
        handleInfer(conn, req);
        return true;
      default:
        return false;  // response types are not valid requests
    }
}

void
NetServer::handleInfer(Conn &conn, Request &req)
{
    const std::size_t rows = req.rows;
    auto reply = std::make_shared<Reply>();

    // Admission control: the cycle budget is the whole queue policy.
    // A shed request costs one encode -- no engine work, no buffering
    // beyond the reply frame -- and tells the client immediately.
    if (rows == 0 || cycleRows_ + rows > config_.maxPendingRows) {
        if (rows > 0) {
            ++stats_.shed;
            Response res;
            res.type = FrameType::InferResponse;
            res.id = req.id;
            res.code = kWireOverloaded;
            res.message = "net: admission budget exceeded";
            encodeResponse(res, reply->bytes);
            reply->ready = true;
            conn.slots.push_back(std::move(reply));
            return;
        }
        // rows == 0 falls through to the engine's validation reject
        // so the client gets the same status as in-process callers.
    }

    engine::Request ereq;
    ereq.model = std::move(req.model);
    ereq.op = req.op;
    ereq.steps = req.steps;
    ereq.seed = req.seed;
    // The relative wire budget becomes absolute here, at admission:
    // the engine re-checks it at flush, so queueing (or shadow work)
    // that eats the budget turns into DEADLINE_EXCEEDED, not silence.
    if (req.deadlineMs != 0)
        ereq.deadlineNs =
            engine::steadyNowNs() +
            static_cast<std::uint64_t>(req.deadlineMs) * 1000000ull;
    if (req.op == engine::Op::Sample) {
        ereq.count = rows;
    } else if (req.payload == PayloadKind::Packed) {
        // Wire words are already the canonical packed layout: land
        // them row by row in the request's bit plane; flush gathers
        // them with word copies (the PR-8 zero-copy miss path).  The
        // tail word is masked because clients control the pad bits:
        // BitMatrix documents them zero, and the response cache hashes
        // raw words, so unmasked pads would split logically identical
        // inputs into distinct cache keys.
        ereq.packed = true;
        ereq.packedInput.reset(req.rows, req.cols);
        const std::size_t wpr = ereq.packedInput.wordsPerRow();
        const std::uint64_t tailMask =
            (req.cols & 63) ? (1ull << (req.cols & 63)) - 1 : ~0ull;
        for (std::size_t r = 0; r < req.rows; ++r) {
            std::uint64_t *dst = ereq.packedInput.row(r);
            std::copy_n(req.words.data() + r * wpr, wpr, dst);
            if (wpr > 0)
                dst[wpr - 1] &= tailMask;
        }
    } else if (req.payload == PayloadKind::Float) {
        ereq.input.reset(req.rows, req.cols);
        std::copy(req.floats.begin(), req.floats.end(),
                  ereq.input.data());
    } else {
        ereq.input.reset(0, req.cols);  // engine rejects: no input rows
    }

    Inflight entry;
    entry.future = engine_.submit(std::move(ereq));
    entry.reply = reply;
    entry.id = req.id;
    inflight_.push_back(std::move(entry));
    conn.slots.push_back(std::move(reply));
    cycleRows_ += rows;
    ++stats_.infers;
}

Response
NetServer::describe(const std::string &name) const
{
    Response res;
    res.type = FrameType::InfoResponse;
    auto resolved = registry_.tryGet(name);
    if (!resolved.ok()) {
        res.code = wireCode(resolved.status().code());
        res.message = resolved.status().message();
        return res;
    }
    const auto model = std::move(resolved).value();
    ModelInfo info;
    info.name = name;
    info.family = model->familyName();
    info.backend = model->meta().backend;
    info.epoch = model->meta().epoch;
    info.inputDim = static_cast<std::uint32_t>(model->inputDim());
    info.outputDim =
        model->supports(engine::Op::Featurize)
            ? static_cast<std::uint32_t>(
                  model->outputDim(engine::Op::Featurize))
            : 0;
    res.models.push_back(std::move(info));
    return res;
}

void
NetServer::settleInflight()
{
    for (Inflight &entry : inflight_) {
        engine::Response er = entry.future.get();
        Response res;
        res.type = FrameType::InferResponse;
        res.id = entry.id;
        res.code = wireCode(er.status.code());
        res.message = er.status.message();
        if (!er.labels.empty()) {
            res.rows = static_cast<std::uint32_t>(er.labels.size());
            res.labels = std::move(er.labels);
        } else {
            res.rows = static_cast<std::uint32_t>(er.output.rows());
            res.cols = static_cast<std::uint32_t>(er.output.cols());
            res.floats.assign(er.output.data(),
                              er.output.data() + er.output.size());
        }
        encodeResponse(res, entry.reply->bytes);
        entry.reply->ready = true;
    }
    inflight_.clear();
    cycleRows_ = 0;
}

void
NetServer::drainConn(Conn &conn, double now)
{
    util::FaultInjector &faults = util::FaultInjector::instance();
    while (!conn.slots.empty() && conn.slots.front()->ready) {
        const std::shared_ptr<Reply> reply =
            std::move(conn.slots.front());
        conn.slots.pop_front();
        if (faults.armed()) {
            const std::string key = "conn:" + std::to_string(conn.id);
            switch (faults.netFault(key)) {
              case util::FaultInjector::NetFault::Drop: {
                // Close mid-frame: push half the reply out, then
                // reset.  The peer sees a truncated frame + EOF.
                ++stats_.faultDrops;
                const std::string &bytes = reply->bytes;
                (void)::send(conn.fd, bytes.data(), bytes.size() / 2,
                             MSG_NOSIGNAL);
                closeConn(conn.fd);
                return;
              }
              case util::FaultInjector::NetFault::Stall:
                ++stats_.faultStalls;
                conn.stalled = true;
                break;
              case util::FaultInjector::NetFault::None:
                break;
            }
        }
        conn.out.append(reply->bytes);
    }
    writeConn(conn, now);
}

void
NetServer::writeConn(Conn &conn, double now)
{
    // netstall: never write, but still run the backlog check below so
    // a frozen connection stops being read once its replies pile up.
    while (!conn.stalled && conn.outPos < conn.out.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.out.data() + conn.outPos,
                   conn.out.size() - conn.outPos, MSG_NOSIGNAL);
        if (n > 0) {
            conn.outPos += static_cast<std::size_t>(n);
            conn.lastActivity = now;
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            conn.wantWrite = true;  // resume on EPOLLOUT
            break;
        }
        if (n < 0 && errno == EINTR)
            continue;
        closeConn(conn.fd);
        return;
    }
    if (conn.outPos >= conn.out.size()) {
        conn.out.clear();
        conn.outPos = 0;
        conn.wantWrite = false;
    }

    // Backlog cap: a peer that pipelines requests but does not read
    // replies stops being read here, so its buffered bytes are
    // bounded and -- reads no longer refreshing lastActivity -- the
    // idle reaper collects it if it never drains.
    const bool over = conn.out.size() - conn.outPos > outCap();
    if (over && !conn.paused)
        ++stats_.backpressured;
    conn.paused = over;
    syncEvents(conn);
}

std::size_t
NetServer::outCap() const
{
    return config_.maxConnBacklog != 0 ? config_.maxConnBacklog
                                       : 2 * kMaxFrameBody;
}

void
NetServer::syncEvents(Conn &conn)
{
    const std::uint32_t want = (conn.paused ? 0u : EPOLLIN) |
                               (conn.wantWrite ? EPOLLOUT : 0u);
    if (want == conn.armed)
        return;
    conn.armed = want;
    epoll_event ev = {};
    ev.events = want;
    ev.data.fd = conn.fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void
NetServer::closeConn(int fd)
{
    const auto it = conns_.find(fd);
    if (it == conns_.end())
        return;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(it);
    ++stats_.closed;
}

HealthSnapshot
NetServer::healthSnapshot() const
{
    const engine::Server::Stats &es = engine_.stats();
    HealthSnapshot h;
    h.requests = es.requests;
    h.rows = es.rows;
    h.shed = stats_.shed;
    h.backpressured = stats_.backpressured;
    h.deadlineExpired = es.deadlineExpired;
    h.canaryShadows = es.canaryShadows;
    h.canaryCleanStreak = es.canaryCleanStreak;
    h.canaryQuarantines = es.canaryQuarantines;
    h.canaryPromotions = es.canaryPromotions;
    h.rollbacks = registry_.stats().rollbacks;
    h.canaryState = static_cast<std::uint8_t>(es.canaryState);
    h.lastDivergence = es.canaryLastDivergence;
    h.meanDivergence = es.canaryDivergenceNano.count() > 0
                           ? es.canaryDivergenceNano.mean() / 1e9
                           : 0.0;
    return h;
}

void
NetServer::logStatsLine(double now)
{
    const HealthSnapshot h = healthSnapshot();
    const double dt = now - statsLastAt_;
    const double rate =
        dt > 0 ? static_cast<double>(h.requests - statsLastRequests_) / dt
               : 0.0;
    statsLastAt_ = now;
    statsLastRequests_ = static_cast<std::size_t>(h.requests);
    // One line, stderr: greppable by the smoke harness, and safe in a
    // pipeline whose stdout reader may already have exited.
    std::fprintf(stderr,
                 "serve: %.1f req/s | conns %zu | shed %llu | "
                 "backpressured %llu | deadline-expired %llu | %s\n",
                 rate, conns_.size(),
                 static_cast<unsigned long long>(h.shed),
                 static_cast<unsigned long long>(h.backpressured),
                 static_cast<unsigned long long>(h.deadlineExpired),
                 gateSummary(h, &engine_.stats()).c_str());
}

std::string
gateSummary(const HealthSnapshot &h, const engine::Server::Stats *stats)
{
    char causes[128] = "";
    if (stats)
        std::snprintf(causes, sizeof causes,
                      " (%zu divergence, %zu latency, %zu failure, "
                      "%zu deadline)",
                      stats->canaryDivergenceBreaches,
                      stats->canaryLatencyBreaches,
                      stats->canaryFailureBreaches,
                      stats->canaryDeadlineBreaches);
    char line[384];
    std::snprintf(line, sizeof line,
                  "canary: %s, %llu shadows (streak %llu), %llu "
                  "quarantines%s, %llu promotions, last divergence %.6f",
                  engine::canaryStateName(
                      static_cast<engine::CanaryState>(h.canaryState)),
                  static_cast<unsigned long long>(h.canaryShadows),
                  static_cast<unsigned long long>(h.canaryCleanStreak),
                  static_cast<unsigned long long>(h.canaryQuarantines),
                  causes,
                  static_cast<unsigned long long>(h.canaryPromotions),
                  h.lastDivergence);
    return line;
}

void
NetServer::reapIdle(double now)
{
    std::vector<int> victims;
    for (const auto &[fd, conn] : conns_)
        if (now - conn.lastActivity >
            config_.idleTimeoutMs / 1000.0)
            victims.push_back(fd);
    for (const int fd : victims) {
        ++stats_.idleClosed;
        closeConn(fd);
    }
}

} // namespace ising::net
