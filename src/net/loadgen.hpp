/**
 * @file
 * Open-loop Poisson load generator for the serving front end.
 *
 * Closed-loop clients (send, wait, send) hide overload: when the
 * server slows down, the offered load politely drops with it, and the
 * tail looks fine.  This generator is open-loop -- request q's arrival
 * time is drawn from a seeded exponential inter-arrival process (or 0
 * in saturate mode) and its frame goes out at that time whether or not
 * earlier responses came back -- so queueing delay is *measured*
 * instead of absorbed: latency is completion minus scheduled arrival.
 *
 * The request corpus is the deterministic engine::probeRequests stream
 * (regenerated from the model's Info frame, no local checkpoint
 * needed), so the bytes served over the socket can be diffed against
 * the in-process `serve-bench` path; a hit-percentage knob redirects
 * requests at a small warm set to exercise the response cache through
 * the wire.  One thread drives N connections with poll(); latencies
 * land in a util::Histogram (p50/p90/p99/p99.9), sheds are counted
 * separately.
 *
 * Self-healing: a connection severed mid-run (server restart,
 * injected netdrop, reset) does not abort the run.  The generator
 * reconnects with capped exponential backoff and resends that
 * connection's unanswered requests -- safe because responses are pure
 * functions of the request tuple -- and reports the retries and
 * reconnects instead of an error.  Requests carrying a deadline
 * budget count DEADLINE_EXCEEDED replies separately from failures.
 */

#ifndef ISINGRBM_NET_LOADGEN_HPP
#define ISINGRBM_NET_LOADGEN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "engine/model.hpp"
#include "net/frame.hpp"
#include "util/histogram.hpp"

namespace ising::net {

struct LoadGenConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::string model;
    engine::Op op = engine::Op::Featurize;
    std::size_t requests = 64;
    std::size_t rows = 4;        ///< rows (or Sample chains) per request
    int steps = 10;              ///< anneal sweeps (Sample only)
    std::uint64_t seed = 13;     ///< corpus seed (probeRequests seedBase)
    std::size_t connections = 4;
    /** Mean offered load in requests/s; <= 0 sends everything at t=0
     *  (saturate mode). */
    double ratePerSec = 0;
    /** Percent of requests redirected at the warm set (cache traffic). */
    int hitPct = 0;
    std::size_t warmCount = 16;  ///< warm-set size for hitPct > 0
    bool packedPayload = true;   ///< binary rows travel packed
    /** Per-request deadline budget in ms carried on every Infer frame
     *  (0 = none).  DEADLINE_EXCEEDED replies are counted in
     *  LoadGenReport::deadlineExpired, separate from failures. */
    std::uint32_t deadlineMs = 0;
    /** Input width; 0 = ask the server (Info frame) before starting. */
    std::size_t inputDim = 0;
    /** Keep each response (corpus order) for byte-diff dumps. */
    bool keepResponses = false;
};

struct LoadGenReport
{
    std::string error;        ///< empty on success
    std::size_t sent = 0;
    std::size_t ok = 0;
    std::size_t shed = 0;     ///< OVERLOADED replies
    std::size_t failed = 0;   ///< non-ok, non-shed replies
    /** DEADLINE_EXCEEDED replies: the budget ran out, by design --
     *  neither a success nor a failure. */
    std::size_t deadlineExpired = 0;
    /** Requests resent after a severed connection (self-healing). */
    std::size_t retries = 0;
    /** Successful mid-run reconnects. */
    std::size_t reconnects = 0;
    std::size_t okRows = 0;   ///< rows served across ok replies
    double seconds = 0;       ///< first send to last completion
    util::Histogram latencyNs;  ///< ok requests only
    /** Responses indexed by corpus position (keepResponses). */
    std::vector<Response> responses;

    double reqPerSec() const
    {
        return seconds > 0
                   ? static_cast<double>(ok + shed + failed +
                                         deadlineExpired) /
                         seconds
                   : 0;
    }

    double rowsPerSec() const
    {
        return seconds > 0 ? static_cast<double>(okRows) / seconds : 0;
    }
};

/** Run the configured load; never throws, errors land in the report. */
LoadGenReport runLoadGen(const LoadGenConfig &config);

/** One Info round trip: the model's input width (0 + error on
 *  failure).  Lets callers fill LoadGenConfig::inputDim. */
std::size_t queryInputDim(const std::string &host, std::uint16_t port,
                          const std::string &model, std::string *error);

} // namespace ising::net

#endif // ISINGRBM_NET_LOADGEN_HPP
