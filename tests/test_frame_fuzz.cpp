/**
 * @file
 * Structure-aware mutation fuzzing of the frame decoder.
 *
 * Seeds are encoded frames of every request and response type: Infer
 * requests with packed, float and no payload, each with and without a
 * deadline, and zero-row frames.  Each mutant -- bit flips, boundary
 * bytes, a skewed length or dimension field (the u32 prefix, the u16
 * string lengths and model count, rows/cols), truncation, two frames
 * spliced -- half of them resealed with a length prefix that covers
 * the mutated body -- streams through a FrameReader in random-size
 * chunks, and every complete body goes through decodeRequest and
 * decodeResponse.
 * A body that decodes must re-encode to bytes that decode to the same
 * bytes again, and no single allocation may grow out of proportion to
 * the body.  A fixed util::Rng seed and iteration budget make every
 * run replay the same mutants (the loop follows libFuzzer's model,
 * https://llvm.org/docs/LibFuzzer.html, without its engine).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "alloc_probe.hpp"
#include "engine/server.hpp"
#include "linalg/bits.hpp"
#include "net/frame.hpp"
#include "util/rng.hpp"

using namespace ising;
using net::FrameType;
using net::PayloadKind;
using util::Rng;

namespace {

/** Mutants per run.  Fixed, so a failure replays by its index. */
constexpr int kIterations = 100000;

/**
 * Largest single allocation a decode may make: a small multiple of the
 * body (a decoded model list holds ~110 bytes per model, and each
 * model takes at least 18 body bytes), plus a constant.
 */
std::size_t
allocationBound(std::size_t bodyBytes)
{
    return 8 * bodyBytes + 256;
}

std::string
encoded(const net::Request &req)
{
    std::string bytes;
    net::encodeRequest(req, bytes);
    return bytes;
}

std::string
encoded(const net::Response &res)
{
    std::string bytes;
    net::encodeResponse(res, bytes);
    return bytes;
}

net::ModelInfo
modelInfo(const char *name, std::uint32_t inputDim)
{
    return {name, "rbm", "cd", 3, inputDim, 12};
}

/** One encoded frame (length prefix included) of every request and
 *  response type, with every Infer payload shape. */
std::vector<std::string>
seedFrames()
{
    Rng rng(5);
    std::vector<std::string> seeds;
    for (const FrameType type :
         {FrameType::ListRequest, FrameType::ShutdownRequest,
          FrameType::HealthRequest}) {
        net::Request req;
        req.type = type;
        seeds.push_back(encoded(req));
    }
    net::Request info;
    info.type = FrameType::InfoRequest;
    info.model = "digits";
    seeds.push_back(encoded(info));

    // Infer: each payload kind with and without a deadline, each also
    // as a zero-row frame (empty payload arrays).
    for (const PayloadKind kind :
         {PayloadKind::None, PayloadKind::Packed, PayloadKind::Float}) {
        for (const std::uint32_t deadline : {0u, 250u}) {
            for (const std::uint32_t rows : {2u, 0u}) {
                net::Request req;
                req.type = FrameType::InferRequest;
                req.id = static_cast<std::uint32_t>(seeds.size());
                req.op = kind == PayloadKind::None
                             ? engine::Op::Sample
                             : engine::Op::Reconstruct;
                req.payload = kind;
                req.model = "m";
                req.steps = 4;
                req.seed = rng.next();
                req.rows = rows;
                req.cols = kind == PayloadKind::Packed  ? 70
                           : kind == PayloadKind::Float ? 5
                                                        : 0;
                req.deadlineMs = deadline;
                if (kind == PayloadKind::Packed)
                    for (std::size_t w = 0;
                         w < rows * linalg::bitWords(req.cols); ++w)
                        req.words.push_back(rng.next());
                if (kind == PayloadKind::Float)
                    for (std::size_t f = 0; f < rows * req.cols; ++f)
                        req.floats.push_back(
                            static_cast<float>(rng.gaussian()));
                seeds.push_back(encoded(req));
            }
        }
    }

    net::Response list;
    list.type = FrameType::ListResponse;
    list.models = {modelInfo("digits", 784), modelInfo("m", 70)};
    seeds.push_back(encoded(list));
    net::Response described;
    described.type = FrameType::InfoResponse;
    described.models = {modelInfo("digits", 784)};
    seeds.push_back(encoded(described));
    net::Response missing;
    missing.type = FrameType::InfoResponse;
    missing.code = net::kWireNotFound;
    missing.message = "registry: no model named 'x'";
    seeds.push_back(encoded(missing));

    net::Response floats;
    floats.type = FrameType::InferResponse;
    floats.id = 11;
    floats.rows = 2;
    floats.cols = 3;
    for (int f = 0; f < 6; ++f)
        floats.floats.push_back(static_cast<float>(rng.gaussian()));
    seeds.push_back(encoded(floats));
    net::Response labels;
    labels.type = FrameType::InferResponse;
    labels.id = 12;
    labels.rows = 3;
    labels.labels = {0, 9, -1};
    seeds.push_back(encoded(labels));
    net::Response shed;
    shed.type = FrameType::InferResponse;
    shed.id = 13;
    shed.code = net::kWireOverloaded;
    shed.message = "net: admission budget exceeded";
    seeds.push_back(encoded(shed));
    net::Response zeroRows;
    zeroRows.type = FrameType::InferResponse;
    zeroRows.id = 14;
    zeroRows.cols = 5;
    seeds.push_back(encoded(zeroRows));

    net::Response stopped;
    stopped.type = FrameType::ShutdownResponse;
    seeds.push_back(encoded(stopped));
    net::Response health;
    health.type = FrameType::HealthResponse;
    health.health.requests = 101;
    health.health.rows = 404;
    health.health.canaryState =
        static_cast<std::uint8_t>(engine::CanaryState::Shadowing);
    health.health.lastDivergence = 0.125;
    seeds.push_back(encoded(health));
    return seeds;
}

// ------------------------------------------------------- mutations

std::uint64_t
readLe(const std::string &frame, std::size_t at, std::size_t width)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(frame[at + i]))
             << (8 * i);
    return v;
}

void
writeLe(std::string &frame, std::size_t at, std::size_t width,
        std::uint64_t v)
{
    for (std::size_t i = 0; i < width; ++i)
        frame[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/** A length or dimension field: byte offset in the frame and width. */
struct Field
{
    std::size_t at;
    std::size_t width;
};

/**
 * The u32 length prefix, the u16 string lengths and model count, and
 * the rows/cols fields of @p frame, found by walking its header as the
 * decoder would.  Fields past the end of a cut frame are left out.
 */
std::vector<Field>
lengthFields(const std::string &frame)
{
    constexpr std::size_t kNone = ~std::size_t{0};
    std::vector<Field> fields;
    const auto add = [&](std::size_t at, std::size_t width) {
        if (at + width > frame.size())
            return false;
        fields.push_back({at, width});
        return true;
    };
    // A u16-prefixed string at @p at; returns the offset past it.
    const auto str = [&](std::size_t at) {
        return add(at, 2) ? at + 2 + readLe(frame, at, 2) : kNone;
    };
    add(0, 4);
    if (frame.size() < 5)
        return fields;
    std::size_t end = kNone;
    switch (static_cast<FrameType>(frame[4])) {
      case FrameType::InfoRequest:
        str(5);
        break;
      case FrameType::InferRequest:  // type, id, op, payload, model
        end = str(11);
        if (end != kNone && add(end + 12, 4))  // after steps, seed
            add(end + 16, 4);
        break;
      case FrameType::ListResponse:
      case FrameType::InfoResponse:  // type, code, message, count
        end = str(6);
        if (end != kNone && add(end, 2))
            str(end + 2);  // the first model's name
        break;
      case FrameType::InferResponse:  // type, id, code, message
        end = str(10);
        if (end != kNone && add(end, 4))
            add(end + 4, 4);
        break;
      default:
        break;
    }
    return fields;
}

void
skewField(std::string &frame, Rng &rng)
{
    static const std::uint64_t kExtremes[] = {
        0, 1, 0x7fff, 0x8000, 0xffff, 0x7fffffff, 0x80000000,
        0xffffffff};
    const std::vector<Field> fields = lengthFields(frame);
    if (fields.empty())
        return;
    const Field f = fields[rng.uniformInt(fields.size())];
    std::uint64_t v = readLe(frame, f.at, f.width);
    switch (rng.uniformInt(4)) {
      case 0:
        v += 1 + rng.uniformInt(8);
        break;
      case 1:
        v -= 1 + rng.uniformInt(8);
        break;
      case 2:
        v *= 2 + rng.uniformInt(3);
        break;
      default:
        v = kExtremes[rng.uniformInt(std::size(kExtremes))];
        break;
    }
    writeLe(frame, f.at, f.width, v);  // truncated to the field width
}

void
mutateOnce(std::string &frame, const std::vector<std::string> &seeds,
           Rng &rng)
{
    static const char kBoundary[] = {'\x00', '\x01', '\x7f', '\x80',
                                     '\xff'};
    if (frame.empty()) {
        frame = seeds[rng.uniformInt(seeds.size())];
        return;
    }
    switch (rng.uniformInt(6)) {
      case 0:  // flip a few bits
        for (std::size_t k = 1 + rng.uniformInt(4); k > 0; --k)
            frame[rng.uniformInt(frame.size())] ^=
                static_cast<char>(1u << rng.uniformInt(8));
        return;
      case 1:  // boundary bytes
        for (std::size_t k = 1 + rng.uniformInt(3); k > 0; --k)
            frame[rng.uniformInt(frame.size())] =
                kBoundary[rng.uniformInt(std::size(kBoundary))];
        return;
      case 2:
        skewField(frame, rng);
        return;
      case 3:  // truncate
        frame.resize(rng.uniformInt(frame.size()));
        return;
      case 4: {  // splice: a prefix of this, a suffix of another frame
        const std::string &other = seeds[rng.uniformInt(seeds.size())];
        frame.resize(rng.uniformInt(frame.size() + 1));
        frame += other.substr(rng.uniformInt(other.size() + 1));
        return;
      }
      default:  // two frames back to back
        frame += seeds[rng.uniformInt(seeds.size())];
        return;
    }
}

/** Rewrite the u32 prefix to cover the rest of @p frame, so a mutated
 *  body reaches the decoders whole instead of stalling the reader. */
void
reseal(std::string &frame)
{
    if (frame.size() >= 4)
        writeLe(frame, 0, 4, frame.size() - 4);
}

// ---------------------------------------------------------- checks

/**
 * True when @p decoded re-encodes to bytes that decode, and whose
 * decoding re-encodes to the same bytes again.  (The first encoding
 * may differ from the body it was decoded from: an Infer response
 * that declares float rows of zero width re-encodes with no payload.)
 */
template <typename Frame, typename Decode>
bool
reencodesStably(const Frame &decoded, Decode decode)
{
    const std::string once = encoded(decoded);
    Frame again;
    if (!decode(once.data() + 4, once.size() - 4, again))
        return false;
    return encoded(again) == once;
}

/** How a body fared; Broken means the contract did (already reported). */
enum class Outcome { Decoded, Rejected, Broken };

Outcome
checkBody(const std::string &body, int iteration)
{
    net::Request req;
    net::Response res;
    bool isRequest = false, isResponse = false;
    std::size_t largest = 0;
    try {
        largest = alloc_probe::largestAllocation([&] {
            isRequest = net::decodeRequest(body.data(), body.size(), req);
            isResponse =
                net::decodeResponse(body.data(), body.size(), res);
        });
    } catch (const std::exception &e) {
        ADD_FAILURE() << "mutant " << iteration << " escaped as '"
                      << e.what() << "'";
        return Outcome::Broken;
    }
    if (largest > allocationBound(body.size())) {
        ADD_FAILURE() << "mutant " << iteration << ": a " << body.size()
                      << "-byte body allocated " << largest
                      << " bytes at once";
        return Outcome::Broken;
    }
    if ((isRequest && !reencodesStably(req, net::decodeRequest)) ||
        (isResponse && !reencodesStably(res, net::decodeResponse))) {
        ADD_FAILURE() << "mutant " << iteration << ": a decoded "
                      << body.size() << "-byte body does not re-encode "
                      << "stably";
        return Outcome::Broken;
    }
    return isRequest || isResponse ? Outcome::Decoded : Outcome::Rejected;
}

} // namespace

TEST(FrameFuzz, SeedsDecodeAndReencodeToThemselves)
{
    for (const std::string &seed : seedFrames()) {
        net::FrameReader reader;
        reader.feed(seed.data(), seed.size());
        std::string body;
        ASSERT_TRUE(reader.next(body));
        EXPECT_EQ(checkBody(body, -1), Outcome::Decoded);
        net::Request req;
        net::Response res;
        if (net::decodeRequest(body.data(), body.size(), req)) {
            EXPECT_EQ(encoded(req), seed);
        } else {
            ASSERT_TRUE(
                net::decodeResponse(body.data(), body.size(), res));
            EXPECT_EQ(encoded(res), seed);
        }
    }
}

TEST(FrameFuzz, EveryMutantDecodesOrIsRejectedCleanly)
{
    const std::vector<std::string> seeds = seedFrames();
    Rng rng(20261017);
    int tally[3] = {};
    int streamsWithoutBody = 0;
    for (int i = 0; i < kIterations; ++i) {
        std::string mutant = seeds[rng.uniformInt(seeds.size())];
        for (std::size_t k = 1 + rng.uniformInt(3); k > 0; --k)
            mutateOnce(mutant, seeds, rng);
        if (rng.bernoulli(0.5))
            reseal(mutant);

        // Stream the mutant in random-size chunks, checking every
        // body the reader completes.
        net::FrameReader reader;
        std::string body;
        int bodies = 0;
        for (std::size_t at = 0; at < mutant.size();) {
            const std::size_t chunk = std::min<std::size_t>(
                mutant.size() - at, 1 + rng.uniformInt(32));
            reader.feed(mutant.data() + at, chunk);
            at += chunk;
            while (reader.next(body)) {
                const Outcome outcome = checkBody(body, i);
                ASSERT_NE(outcome, Outcome::Broken);
                ++tally[static_cast<int>(outcome)];
                ++bodies;
            }
        }
        if (bodies == 0)
            ++streamsWithoutBody;
    }
    const int bodies = tally[0] + tally[1];
    std::printf("fuzz: %d mutants: %d bodies, %d decoded, %d rejected; "
                "%d streams completed no body\n",
                kIterations, bodies, tally[0], tally[1],
                streamsWithoutBody);
    // The mix reaches both outcomes: mutants are not all rejected at
    // the first byte, nor all benign.
    EXPECT_GT(tally[static_cast<int>(Outcome::Decoded)], bodies / 5);
    EXPECT_GT(tally[static_cast<int>(Outcome::Rejected)], bodies / 5);
}
