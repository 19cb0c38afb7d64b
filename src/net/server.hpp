/**
 * @file
 * Single-threaded epoll serving front end over engine::Server.
 *
 * One event loop owns everything: a non-blocking listener and N
 * non-blocking connections, polled level-triggered.  Each cycle reads
 * whatever arrived, decodes complete frames, and feeds Infer requests
 * straight into engine::Server::submit -- per-request seeds keep the
 * served bytes bit-identical to the in-process path at any connection
 * count or interleaving -- then flushes the engine once and fans the
 * responses back out.  Requests from different connections coalesce
 * into the same kernel batches, so the socket front end inherits the
 * engine's batching and response-cache speedups wholesale.
 *
 * Admission control is explicit: a cycle admits at most
 * NetConfig::maxPendingRows rows; beyond that, requests are shed with
 * an immediate OVERLOADED reply (bounded queue, bounded memory,
 * bounded flush latency for the requests that were admitted).
 * maxConnections bounds the fd table; over-limit accepts are closed.
 * Per-connection replies preserve request order, write backpressure is
 * EPOLLOUT-driven with partial-write resumption, and connections idle
 * (or write-stalled) past idleTimeoutMs are reaped.  A connection
 * whose unsent reply backlog exceeds maxConnBacklog stops being read
 * (TCP backpressure) until the backlog drains -- a client that
 * pipelines requests without ever reading responses cannot grow the
 * output buffer unboundedly, and with its reads paused it goes idle
 * and is reaped like any other stuck peer.
 *
 * Faults: the write path consults util::FaultInjector with key
 * "conn:<accept-index>" -- netdrop closes the connection mid-frame,
 * netstall freezes its writes -- so tests can prove a dying client
 * never perturbs other connections' bytes.
 */

#ifndef ISINGRBM_NET_SERVER_HPP
#define ISINGRBM_NET_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/server.hpp"
#include "net/frame.hpp"

namespace ising::net {

/** Front-end tuning knobs (engine knobs ride in `server`). */
struct NetConfig
{
    std::string bindAddress = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral (see NetServer::port())

    /** Accepted-connection cap; accepts beyond it are closed. */
    std::size_t maxConnections = 256;

    /**
     * Admission budget: rows admitted to the engine per event-loop
     * cycle.  A request that would push the cycle past this is shed
     * with an immediate OVERLOADED reply instead of queueing -- the
     * knob that keeps admitted-request latency and server memory
     * bounded under any offered load.
     */
    std::size_t maxPendingRows = 4096;

    /** Reap a connection after this long without reading or writing
     *  a byte (also what collects netstall'd peers). */
    int idleTimeoutMs = 30000;

    /**
     * Unsent-reply backlog cap per connection (bytes).  Above it the
     * server stops reading from the connection until the backlog
     * drains below it, so a peer that pipelines requests without
     * reading replies is throttled by TCP instead of buffering
     * without bound (and, no longer being read, idles out if it
     * never drains).  0 = 2 x kMaxFrameBody.
     */
    std::size_t maxConnBacklog = 0;

    /**
     * Print a one-line serving/canary ledger to stderr this often
     * (milliseconds); 0 disables.  The operator's heartbeat:
     * req/s, sheds, backpressure, deadline expiries and the live
     * canary gate state without attaching a client.
     */
    int statsEveryMs = 0;

    /** Extra stop condition polled each cycle (the CLI passes the
     *  SIGINT/SIGTERM latch); may be empty. */
    std::function<bool()> stopRequested;

    engine::ServerConfig server;
};

/** The epoll listener; construct, start(), then run() to completion. */
class NetServer
{
  public:
    NetServer(engine::ModelRegistry &registry, NetConfig config);
    ~NetServer();

    NetServer(const NetServer &) = delete;
    NetServer &operator=(const NetServer &) = delete;

    /** Bind + listen (fatal on failure); returns the bound port --
     *  the real one when config.port was 0. */
    std::uint16_t start();

    /** Bound port (valid after start()). */
    std::uint16_t port() const { return port_; }

    /**
     * The event loop: serves until a Shutdown frame, requestStop(),
     * or config.stopRequested(), then stops accepting, drains
     * in-flight flushes and queued replies, and returns.
     */
    void run();

    /** Ask the loop to begin graceful shutdown (any thread). */
    void requestStop() { stop_.store(true, std::memory_order_relaxed); }

    /** Front-end counters (read after run() returns, or from the
     *  loop thread). */
    struct Stats
    {
        std::size_t accepted = 0;       ///< connections accepted
        std::size_t closed = 0;         ///< connections closed (any cause)
        std::size_t overCapacity = 0;   ///< accepts refused (maxConnections)
        std::size_t frames = 0;         ///< request frames decoded
        std::size_t infers = 0;         ///< Infer requests admitted
        std::size_t shed = 0;           ///< Infer requests shed (OVERLOADED)
        std::size_t protocolErrors = 0; ///< malformed frames (conn closed)
        std::size_t idleClosed = 0;     ///< idle-timeout reaps
        std::size_t backpressured = 0;  ///< reads paused (backlog cap)
        std::size_t faultDrops = 0;     ///< injected netdrop closes
        std::size_t faultStalls = 0;    ///< injected netstall freezes
    };

    Stats stats() const { return stats_; }

    /** The engine broker underneath (stats, tests). */
    engine::Server &engine() { return engine_; }

    /** Point-in-time serving + canary counters (the Health frame's
     *  payload and the --stats-every-ms ledger's source). */
    HealthSnapshot healthSnapshot() const;

  private:
    /** One reply slot; per-connection slots resolve in FIFO order so
     *  pipelined responses match request order. */
    struct Reply
    {
        bool ready = false;
        std::string bytes;  ///< encoded frame, filled when ready
    };

    /** One accepted connection. */
    struct Conn
    {
        int fd = -1;
        std::uint64_t id = 0;        ///< accept index (fault key)
        FrameReader reader;
        std::deque<std::shared_ptr<Reply>> slots;
        std::string out;             ///< encoded bytes awaiting write
        std::size_t outPos = 0;      ///< partial-write resume offset
        bool wantWrite = false;      ///< EPOLLOUT wanted
        bool paused = false;         ///< reads paused (backlog cap)
        bool stalled = false;        ///< netstall: never write again
        std::uint32_t armed = 0;     ///< epoll events currently armed
        double lastActivity = 0;     ///< loop-clock seconds
    };

    /** An admitted Infer awaiting its engine future. */
    struct Inflight
    {
        std::future<engine::Response> future;
        std::shared_ptr<Reply> reply;
        std::uint32_t id = 0;  ///< request id to echo
    };

    void acceptAll(double now);
    void readConn(Conn &conn, double now);
    bool handleFrame(Conn &conn, const std::string &body);
    void handleInfer(Conn &conn, Request &req);
    Response describe(const std::string &name) const;
    void settleInflight();
    void drainConn(Conn &conn, double now);
    void writeConn(Conn &conn, double now);
    void syncEvents(Conn &conn);
    std::size_t outCap() const;
    void closeConn(int fd);
    void reapIdle(double now);
    bool stopping() const;
    void logStatsLine(double now);

    engine::ModelRegistry &registry_;
    NetConfig config_;
    engine::Server engine_;

    int epollFd_ = -1;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::uint64_t nextConnId_ = 0;
    std::map<int, Conn> conns_;  ///< keyed by fd
    std::vector<Inflight> inflight_;
    std::size_t cycleRows_ = 0;  ///< rows admitted this cycle
    std::atomic<bool> stop_{false};
    bool draining_ = false;
    double drainDeadline_ = 0;
    Stats stats_;

    // --stats-every-ms ledger state (loop-clock seconds).
    double statsNextAt_ = 0;
    double statsLastAt_ = 0;
    std::size_t statsLastRequests_ = 0;
};

/**
 * The one spelling of the canary gate, shared by the --stats-every-ms
 * ledger, serve's exit ledger and `promote --live`:
 * "canary: <state>, <n> shadows (streak <n>), <n> quarantines, <n>
 * promotions, last divergence <mae>".  The Health frame carries only
 * the quarantine total; in-process callers pass the engine's @p stats
 * to break it down by cause after the total ("(<n> divergence, <n>
 * latency, <n> failure, <n> deadline)").
 */
std::string gateSummary(const HealthSnapshot &h,
                        const engine::Server::Stats *stats = nullptr);

} // namespace ising::net

#endif // ISINGRBM_NET_SERVER_HPP
