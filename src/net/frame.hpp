/**
 * @file
 * Length-prefixed binary frame protocol for the serving front end.
 *
 * Every frame on the wire is a little-endian u32 body length followed
 * by the body; the body's first byte is the FrameType.  The request
 * surface mirrors the registry's resource-collection shape: List
 * enumerates the models with their metadata, Info describes one, Infer
 * carries one engine::Server request, Shutdown asks the server to
 * drain and exit (used by tests and the smoke harness).
 *
 * An Infer body is: u32 id (echoed in the response so pipelined
 * replies match up), u8 op, u8 payload kind, model name, i32 anneal
 * steps, u64 seed, u32 rows, u32 cols, then the payload.  Binary rows
 * travel *packed* -- rows x bitWords(cols) u64 words, the exact
 * canonical layout linalg::BitMatrix uses -- so the server lands them
 * on the packed zero-copy gather path with no float round-trip on the
 * wire; float rows travel as raw IEEE-754 bytes, so served bytes are
 * bit-identical to the in-process path for either payload kind.
 * Every payload array (packed words, float rows, response floats and
 * labels) crosses the codec in one bulk copy each way, in little-endian
 * wire order on any host.  Strings carry a u16 length; a longer one
 * travels as its first 65535 bytes, so every encoded frame decodes.
 * An Infer body may end with an *optional* trailing u32 deadline_ms
 * (relative request budget; the server answers DEADLINE_EXCEEDED
 * without kernel work once it expires).  The field is appended only
 * when nonzero, so frames from older clients -- which simply end at
 * the payload -- still decode, and frames with the field are exactly
 * four bytes longer (any other trailing length stays malformed).
 *
 * A Health request (empty body) returns a HealthSnapshot: the serving
 * counters plus the live-canary gate state, so an operator or the
 * `promote --live` driver can watch a server without load-bearing
 * traffic.
 *
 * Responses carry a wire status code (engine::StatusCode plus
 * OVERLOADED for admission-control sheds) and the op's output: raw
 * float rows or i32 labels.
 *
 * Encoding and the incremental FrameReader are pure byte-buffer
 * transforms -- no sockets -- so plain unit tests pin the wire bytes
 * and round-trip every frame type (tests/test_net.cpp), and a seeded
 * mutation fuzzer drives the decoders (tests/test_frame_fuzz.cpp).
 */

#ifndef ISINGRBM_NET_FRAME_HPP
#define ISINGRBM_NET_FRAME_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/model.hpp"
#include "engine/status.hpp"

namespace ising::net {

/** Upper bound on a frame body; a longer length prefix is treated as
 *  a protocol error and the connection is closed. */
constexpr std::size_t kMaxFrameBody = 64u << 20;

/** Body discriminator (first body byte). */
enum class FrameType : std::uint8_t {
    ListRequest = 1,
    InfoRequest = 2,
    InferRequest = 3,
    ShutdownRequest = 4,
    HealthRequest = 5,
    ListResponse = 65,
    InfoResponse = 66,
    InferResponse = 67,
    ShutdownResponse = 68,
    HealthResponse = 69,
};

/** How an Infer request's rows travel. */
enum class PayloadKind : std::uint8_t {
    None = 0,    ///< Sample: no input plane, rows = chain count
    Packed = 1,  ///< binary rows, one unit per bit (u64 words)
    Float = 2,   ///< raw IEEE-754 float rows
};

/** Wire status codes (superset of engine::StatusCode). */
enum : std::uint8_t {
    kWireOk = 0,
    kWireInvalidArgument = 1,
    kWireNotFound = 2,
    kWireDataLoss = 3,
    kWireFailedPrecondition = 4,
    kWireInternal = 5,
    kWireOverloaded = 6,
    kWireBadFrame = 7,
    kWireDeadlineExceeded = 8,
};

std::uint8_t wireCode(engine::StatusCode code);
const char *wireCodeName(std::uint8_t code);

/**
 * Point-in-time serving/canary counters (Health responses), read from
 * engine::Server::stats(), the front end's own counters and the
 * registry's rollbacks.
 */
struct HealthSnapshot
{
    std::uint64_t requests = 0;         ///< engine requests submitted
    std::uint64_t rows = 0;             ///< rows served
    std::uint64_t shed = 0;             ///< admission sheds (OVERLOADED)
    std::uint64_t backpressured = 0;    ///< reads paused (backlog cap)
    std::uint64_t deadlineExpired = 0;  ///< DEADLINE_EXCEEDED answers
    std::uint64_t canaryShadows = 0;    ///< shadow executions
    std::uint64_t canaryCleanStreak = 0;  ///< consecutive clean shadows
    std::uint64_t canaryQuarantines = 0;  ///< gate breaches -> backoff
    std::uint64_t canaryPromotions = 0;   ///< live auto-promotes
    std::uint64_t rollbacks = 0;        ///< rollbacks (offline + live)
    std::uint8_t canaryState = 0;       ///< an engine::CanaryState
    double lastDivergence = 0.0;        ///< most recent shadow MAE
    double meanDivergence = 0.0;        ///< mean shadow MAE so far
};

/** One model's metadata (List/Info responses). */
struct ModelInfo
{
    std::string name;
    std::string family;
    std::string backend;
    std::int32_t epoch = 0;
    std::uint32_t inputDim = 0;
    std::uint32_t outputDim = 0;  ///< Featurize output width
};

/** Decoded request frame (any request type). */
struct Request
{
    FrameType type = FrameType::InferRequest;
    std::uint32_t id = 0;          ///< echoed in the Infer response
    std::string model;             ///< Info + Infer
    engine::Op op = engine::Op::Featurize;
    PayloadKind payload = PayloadKind::None;
    std::int32_t steps = 25;
    std::uint64_t seed = 0;
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    /** Relative request budget in ms; 0 = no deadline.  Travels as an
     *  optional trailing field (appended only when nonzero). */
    std::uint32_t deadlineMs = 0;
    std::vector<std::uint64_t> words;  ///< Packed payload
    std::vector<float> floats;         ///< Float payload
};

/** Decoded response frame (any response type). */
struct Response
{
    FrameType type = FrameType::InferResponse;
    std::uint32_t id = 0;
    std::uint8_t code = kWireOk;
    std::string message;           ///< non-ok diagnostics
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::vector<float> floats;     ///< output rows (raw bytes)
    std::vector<std::int32_t> labels;  ///< Classify results
    std::vector<ModelInfo> models;     ///< List (all) / Info (one)
    HealthSnapshot health;             ///< Health response payload
};

/** Append @p req as one complete frame (length prefix included). */
void encodeRequest(const Request &req, std::string &out);

/** Append @p res as one complete frame (length prefix included). */
void encodeResponse(const Response &res, std::string &out);

/** Decode a frame body; false on malformed bytes (wrong type, short
 *  fields, payload size mismatch). */
bool decodeRequest(const char *body, std::size_t size, Request &out);
bool decodeResponse(const char *body, std::size_t size, Response &out);

/**
 * Incremental frame assembler: feed() whatever recv() returned, next()
 * yields complete frame bodies in order.  A length prefix beyond
 * @p maxBody poisons the stream (overflow(); the connection owner
 * closes) -- garbage on a fresh connection cannot make the server
 * buffer unboundedly.
 */
class FrameReader
{
  public:
    explicit FrameReader(std::size_t maxBody = kMaxFrameBody)
        : maxBody_(maxBody)
    {
    }

    void feed(const char *data, std::size_t n);

    /** Extract the next complete body into @p body; false when the
     *  buffer holds no complete frame (or the stream overflowed). */
    bool next(std::string &body);

    bool overflow() const { return overflow_; }
    std::size_t buffered() const { return buffer_.size() - pos_; }

  private:
    std::string buffer_;
    std::size_t pos_ = 0;
    std::size_t maxBody_;
    bool overflow_ = false;
};

} // namespace ising::net

#endif // ISINGRBM_NET_FRAME_HPP
