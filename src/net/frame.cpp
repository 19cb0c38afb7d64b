/**
 * @file
 * Frame codec implementation: little-endian put/get helpers for the
 * scalar header fields, one bulk-copy helper per direction for the
 * payload arrays (packed words, float rows, labels), the
 * request/response encoders and bounds-checked decoders, and the
 * incremental FrameReader.
 */

#include "net/frame.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "linalg/bits.hpp"

namespace ising::net {

std::uint8_t
wireCode(engine::StatusCode code)
{
    using engine::StatusCode;
    switch (code) {
      case StatusCode::Ok: return kWireOk;
      case StatusCode::InvalidArgument: return kWireInvalidArgument;
      case StatusCode::NotFound: return kWireNotFound;
      case StatusCode::DataLoss: return kWireDataLoss;
      case StatusCode::FailedPrecondition:
        return kWireFailedPrecondition;
      case StatusCode::Internal: return kWireInternal;
      case StatusCode::Overloaded: return kWireOverloaded;
      case StatusCode::DeadlineExceeded: return kWireDeadlineExceeded;
    }
    return kWireInternal;
}

const char *
wireCodeName(std::uint8_t code)
{
    switch (code) {
      case kWireOk: return "ok";
      case kWireInvalidArgument: return "invalid-argument";
      case kWireNotFound: return "not-found";
      case kWireDataLoss: return "data-loss";
      case kWireFailedPrecondition: return "failed-precondition";
      case kWireInternal: return "internal";
      case kWireOverloaded: return "overloaded";
      case kWireBadFrame: return "bad-frame";
      case kWireDeadlineExceeded: return "deadline-exceeded";
    }
    return "?";
}

namespace {

// ---------------------------------------------------------- encoding

void
putU8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

void
putU16(std::string &out, std::uint16_t v)
{
    for (int i = 0; i < 2; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/**
 * u16 length + bytes.  A longer string -- a status message can echo a
 * client-chosen model name -- travels as its first 65535 bytes, so
 * every encoded frame decodes.
 */
void
putStr(std::string &out, const std::string &s)
{
    const std::size_t n = std::min<std::size_t>(s.size(), 0xffff);
    putU16(out, static_cast<std::uint16_t>(n));
    out.append(s, 0, n);
}

/**
 * Append a payload array in one bulk copy, little-endian on the wire
 * whatever the host: a big-endian host byte-swaps each word in place
 * (the loop compiles out on little-endian).  An empty array's data()
 * may be null; append() takes that empty range without a memcpy.
 */
template <typename T>
void
putArray(std::string &out, const std::vector<T> &words)
{
    const std::size_t at = out.size();
    out.append(reinterpret_cast<const char *>(words.data()),
               words.size() * sizeof(T));
    if constexpr (std::endian::native == std::endian::big)
        for (std::size_t i = at; i < out.size(); i += sizeof(T))
            std::reverse(out.begin() + i, out.begin() + i + sizeof(T));
}

void
putModelInfo(std::string &out, const ModelInfo &info)
{
    putStr(out, info.name);
    putStr(out, info.family);
    putStr(out, info.backend);
    putU32(out, static_cast<std::uint32_t>(info.epoch));
    putU32(out, info.inputDim);
    putU32(out, info.outputDim);
}

/** Patch the frame's u32 length prefix once the body is complete. */
void
sealFrame(std::string &out, std::size_t lengthAt)
{
    const std::uint32_t body =
        static_cast<std::uint32_t>(out.size() - lengthAt - 4);
    for (int i = 0; i < 4; ++i)
        out[lengthAt + static_cast<std::size_t>(i)] =
            static_cast<char>((body >> (8 * i)) & 0xff);
}

// ---------------------------------------------------------- decoding

/** Bounds-checked little-endian cursor over one frame body. */
struct Cursor
{
    const unsigned char *p;
    std::size_t left;

    bool
    getU8(std::uint8_t &v)
    {
        if (left < 1)
            return false;
        v = p[0];
        p += 1;
        left -= 1;
        return true;
    }

    bool
    getU16(std::uint16_t &v)
    {
        if (left < 2)
            return false;
        v = static_cast<std::uint16_t>(p[0] | (p[1] << 8));
        p += 2;
        left -= 2;
        return true;
    }

    bool
    getU32(std::uint32_t &v)
    {
        if (left < 4)
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
        p += 4;
        left -= 4;
        return true;
    }

    bool
    getU64(std::uint64_t &v)
    {
        if (left < 8)
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        p += 8;
        left -= 8;
        return true;
    }

    bool
    getStr(std::string &s)
    {
        std::uint16_t n = 0;
        if (!getU16(n) || left < n)
            return false;
        s.assign(reinterpret_cast<const char *>(p), n);
        p += n;
        left -= n;
        return true;
    }

    /** Copy @p n little-endian words into @p words in one bulk copy
     *  (byte-swapped on a big-endian host).  Callers size-check the
     *  body first by dividing, never multiplying, client dims; the
     *  check here only guards the copy. */
    template <typename T>
    bool
    getArray(std::vector<T> &words, std::size_t n)
    {
        if (left / sizeof(T) < n)
            return false;
        words.resize(n);
        if (n == 0)
            return true;  // data() may be null: no memcpy
        const std::size_t bytes = n * sizeof(T);
        std::memcpy(words.data(), p, bytes);
        if constexpr (std::endian::native == std::endian::big) {
            auto *b = reinterpret_cast<unsigned char *>(words.data());
            for (std::size_t i = 0; i < bytes; i += sizeof(T))
                std::reverse(b + i, b + i + sizeof(T));
        }
        p += bytes;
        left -= bytes;
        return true;
    }

    bool
    getModelInfo(ModelInfo &info)
    {
        std::uint32_t epoch = 0;
        if (!getStr(info.name) || !getStr(info.family) ||
            !getStr(info.backend) || !getU32(epoch) ||
            !getU32(info.inputDim) || !getU32(info.outputDim))
            return false;
        info.epoch = static_cast<std::int32_t>(epoch);
        return true;
    }
};

} // namespace

void
encodeRequest(const Request &req, std::string &out)
{
    const std::size_t lengthAt = out.size();
    out.append(4, '\0');
    putU8(out, static_cast<std::uint8_t>(req.type));
    switch (req.type) {
      case FrameType::ListRequest:
      case FrameType::ShutdownRequest:
      case FrameType::HealthRequest:
        break;
      case FrameType::InfoRequest:
        putStr(out, req.model);
        break;
      case FrameType::InferRequest: {
        putU32(out, req.id);
        putU8(out, static_cast<std::uint8_t>(req.op));
        putU8(out, static_cast<std::uint8_t>(req.payload));
        putStr(out, req.model);
        putU32(out, static_cast<std::uint32_t>(req.steps));
        putU64(out, req.seed);
        putU32(out, req.rows);
        putU32(out, req.cols);
        if (req.payload == PayloadKind::Packed)
            putArray(out, req.words);
        else if (req.payload == PayloadKind::Float)
            putArray(out, req.floats);
        // Optional trailing deadline: appended only when set, so a
        // deadline-free frame is byte-identical to the older format.
        if (req.deadlineMs != 0)
            putU32(out, req.deadlineMs);
        break;
      }
      default:
        break;  // response types never encode as requests
    }
    sealFrame(out, lengthAt);
}

void
encodeResponse(const Response &res, std::string &out)
{
    const std::size_t lengthAt = out.size();
    out.append(4, '\0');
    putU8(out, static_cast<std::uint8_t>(res.type));
    switch (res.type) {
      case FrameType::ListResponse:
      case FrameType::InfoResponse:
        putU8(out, res.code);
        putStr(out, res.message);
        putU16(out, static_cast<std::uint16_t>(res.models.size()));
        for (const ModelInfo &info : res.models)
            putModelInfo(out, info);
        break;
      case FrameType::InferResponse: {
        putU32(out, res.id);
        putU8(out, res.code);
        putStr(out, res.message);
        putU32(out, res.rows);
        putU32(out, res.cols);
        const std::uint8_t kind = !res.labels.empty() ? 2
                                  : !res.floats.empty() ? 1
                                                        : 0;
        putU8(out, kind);
        if (kind == 1)
            putArray(out, res.floats);
        else if (kind == 2)
            putArray(out, res.labels);
        break;
      }
      case FrameType::ShutdownResponse:
        putU8(out, res.code);
        break;
      case FrameType::HealthResponse: {
        putU8(out, res.code);
        const HealthSnapshot &h = res.health;
        putU64(out, h.requests);
        putU64(out, h.rows);
        putU64(out, h.shed);
        putU64(out, h.backpressured);
        putU64(out, h.deadlineExpired);
        putU64(out, h.canaryShadows);
        putU64(out, h.canaryCleanStreak);
        putU64(out, h.canaryQuarantines);
        putU64(out, h.canaryPromotions);
        putU64(out, h.rollbacks);
        putU8(out, h.canaryState);
        putU64(out, std::bit_cast<std::uint64_t>(h.lastDivergence));
        putU64(out, std::bit_cast<std::uint64_t>(h.meanDivergence));
        break;
      }
      default:
        break;  // request types never encode as responses
    }
    sealFrame(out, lengthAt);
}

bool
decodeRequest(const char *body, std::size_t size, Request &out)
{
    Cursor c{reinterpret_cast<const unsigned char *>(body), size};
    std::uint8_t type = 0;
    if (!c.getU8(type))
        return false;
    out = Request();
    out.type = static_cast<FrameType>(type);
    switch (out.type) {
      case FrameType::ListRequest:
      case FrameType::ShutdownRequest:
      case FrameType::HealthRequest:
        return c.left == 0;
      case FrameType::InfoRequest:
        return c.getStr(out.model) && c.left == 0;
      case FrameType::InferRequest: {
        std::uint8_t op = 0, payload = 0;
        std::uint32_t steps = 0;
        if (!c.getU32(out.id) || !c.getU8(op) || !c.getU8(payload) ||
            !c.getStr(out.model) || !c.getU32(steps) ||
            !c.getU64(out.seed) || !c.getU32(out.rows) ||
            !c.getU32(out.cols))
            return false;
        if (op > static_cast<std::uint8_t>(engine::Op::Reconstruct) ||
            payload > static_cast<std::uint8_t>(PayloadKind::Float))
            return false;
        out.op = static_cast<engine::Op>(op);
        out.payload = static_cast<PayloadKind>(payload);
        out.steps = static_cast<std::int32_t>(steps);
        // Size checks divide the remaining bytes instead of
        // multiplying the client-controlled dims: rows*cols*4 can wrap
        // to a small value and turn a 20-byte frame into a huge
        // resize().  c.left is already bounded by maxBody, so a
        // passing check also bounds the element count.  The optional
        // trailing u32 deadline is resolved by exact size: the body
        // after the payload must be empty or exactly four bytes; any
        // other trailing length stays a malformed frame.
        bool hasDeadline = false;
        if (out.payload == PayloadKind::Packed) {
            const std::uint64_t words =
                static_cast<std::uint64_t>(out.rows) *
                linalg::bitWords(out.cols);
            if (c.left % 8 == 4) {
                hasDeadline = true;
            } else if (c.left % 8 != 0) {
                return false;
            }
            if ((c.left - (hasDeadline ? 4 : 0)) / 8 != words)
                return false;
            if (!c.getArray(out.words, static_cast<std::size_t>(words)))
                return false;
        } else if (out.payload == PayloadKind::Float) {
            const std::uint64_t floats =
                static_cast<std::uint64_t>(out.rows) * out.cols;
            if (c.left % 4 != 0)
                return false;
            if (c.left / 4 == floats + 1)
                hasDeadline = true;
            else if (c.left / 4 != floats)
                return false;
            if (!c.getArray(out.floats, static_cast<std::size_t>(floats)))
                return false;
        } else {
            hasDeadline = c.left == 4;
        }
        // The encoder appends the field only when nonzero, so an
        // explicit zero deadline is a malformed frame -- it keeps
        // "payload plus four junk bytes" from decoding as legitimate.
        if (hasDeadline &&
            (!c.getU32(out.deadlineMs) || out.deadlineMs == 0))
            return false;
        return c.left == 0;
      }
      default:
        return false;
    }
}

bool
decodeResponse(const char *body, std::size_t size, Response &out)
{
    Cursor c{reinterpret_cast<const unsigned char *>(body), size};
    std::uint8_t type = 0;
    if (!c.getU8(type))
        return false;
    out = Response();
    out.type = static_cast<FrameType>(type);
    switch (out.type) {
      case FrameType::ListResponse:
      case FrameType::InfoResponse: {
        // Every model takes at least three u16 lengths and three u32s:
        // a count the remaining bytes cannot hold is rejected before
        // it sizes the list (a few bytes asking for 65535 models).
        constexpr std::size_t kMinModelInfoBytes = 3 * 2 + 3 * 4;
        std::uint16_t count = 0;
        if (!c.getU8(out.code) || !c.getStr(out.message) ||
            !c.getU16(count) || c.left / kMinModelInfoBytes < count)
            return false;
        out.models.resize(count);
        for (ModelInfo &info : out.models)
            if (!c.getModelInfo(info))
                return false;
        return c.left == 0;
      }
      case FrameType::InferResponse: {
        std::uint8_t kind = 0;
        if (!c.getU32(out.id) || !c.getU8(out.code) ||
            !c.getStr(out.message) || !c.getU32(out.rows) ||
            !c.getU32(out.cols) || !c.getU8(kind))
            return false;
        // Divide, don't multiply: same overflow guard as decodeRequest.
        if (kind == 1) {
            const std::uint64_t floats =
                static_cast<std::uint64_t>(out.rows) * out.cols;
            if (c.left % 4 != 0 || c.left / 4 != floats ||
                !c.getArray(out.floats, static_cast<std::size_t>(floats)))
                return false;
        } else if (kind == 2) {
            if (c.left % 4 != 0 || c.left / 4 != out.rows ||
                !c.getArray(out.labels, out.rows))
                return false;
        } else if (kind != 0) {
            return false;
        }
        return c.left == 0;
      }
      case FrameType::ShutdownResponse:
        return c.getU8(out.code) && c.left == 0;
      case FrameType::HealthResponse: {
        HealthSnapshot &h = out.health;
        std::uint64_t last = 0, mean = 0;
        if (!c.getU8(out.code) || !c.getU64(h.requests) ||
            !c.getU64(h.rows) || !c.getU64(h.shed) ||
            !c.getU64(h.backpressured) || !c.getU64(h.deadlineExpired) ||
            !c.getU64(h.canaryShadows) ||
            !c.getU64(h.canaryCleanStreak) ||
            !c.getU64(h.canaryQuarantines) ||
            !c.getU64(h.canaryPromotions) || !c.getU64(h.rollbacks) ||
            !c.getU8(h.canaryState) || !c.getU64(last) ||
            !c.getU64(mean))
            return false;
        h.lastDivergence = std::bit_cast<double>(last);
        h.meanDivergence = std::bit_cast<double>(mean);
        return c.left == 0;
      }
      default:
        return false;
    }
}

void
FrameReader::feed(const char *data, std::size_t n)
{
    if (overflow_)
        return;
    // Compact once consumed bytes dominate: amortized O(1) per byte.
    if (pos_ > 4096 && pos_ > buffer_.size() / 2) {
        buffer_.erase(0, pos_);
        pos_ = 0;
    }
    buffer_.append(data, n);
}

bool
FrameReader::next(std::string &body)
{
    if (overflow_ || buffer_.size() - pos_ < 4)
        return false;
    const auto *p =
        reinterpret_cast<const unsigned char *>(buffer_.data() + pos_);
    std::uint32_t length = 0;
    for (int i = 0; i < 4; ++i)
        length |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    if (length > maxBody_) {
        overflow_ = true;
        return false;
    }
    if (buffer_.size() - pos_ < 4 + static_cast<std::size_t>(length))
        return false;
    body.assign(buffer_, pos_ + 4, length);
    pos_ += 4 + static_cast<std::size_t>(length);
    return true;
}

} // namespace ising::net
