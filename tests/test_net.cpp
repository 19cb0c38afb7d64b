/**
 * @file
 * net/ tests: frame-codec round trips, and the epoll front end's
 * byte-identity, admission-control, fault-isolation and graceful
 * shutdown contracts, driven over real sockets against a NetServer
 * running on a second thread.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "engine/server.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "rbm/serialize.hpp"
#include "util/fault.hpp"

using namespace ising;
using engine::ModelRegistry;
using engine::Op;

namespace {

namespace fs = std::filesystem;

rbm::Rbm
randomRbm(std::size_t m, std::size_t n, std::uint64_t seed)
{
    rbm::Rbm model(m, n);
    util::Rng rng(seed);
    model.initRandom(rng, 0.5f);
    return model;
}

/** Corpus request -> Infer frame with the chosen payload kind. */
net::Request
inferFrame(const engine::Request &req, std::uint32_t id,
           net::PayloadKind kind)
{
    net::Request frame;
    frame.type = net::FrameType::InferRequest;
    frame.id = id;
    frame.model = req.model;
    frame.op = req.op;
    frame.steps = req.steps;
    frame.seed = req.seed;
    if (req.op == Op::Sample) {
        frame.payload = net::PayloadKind::None;
        frame.rows = static_cast<std::uint32_t>(req.count);
        return frame;
    }
    frame.rows = static_cast<std::uint32_t>(req.input.rows());
    frame.cols = static_cast<std::uint32_t>(req.input.cols());
    frame.payload = kind;
    if (kind == net::PayloadKind::Packed) {
        linalg::BitMatrix bits(req.input.rows(), req.input.cols());
        for (std::size_t r = 0; r < req.input.rows(); ++r)
            bits.packRowFrom(r, req.input.row(r));
        frame.words.assign(
            bits.row(0),
            bits.row(0) + req.input.rows() * bits.wordsPerRow());
    } else {
        frame.floats.assign(req.input.data(),
                            req.input.data() + req.input.size());
    }
    return frame;
}

/** Expect @p res to carry exactly @p expected's bytes. */
void
expectSameBytes(const net::Response &res,
                const engine::Response &expected)
{
    ASSERT_EQ(res.code, net::kWireOk) << res.message;
    ASSERT_EQ(res.rows, expected.output.rows());
    ASSERT_EQ(res.cols, expected.output.cols());
    ASSERT_EQ(res.floats.size(), expected.output.size());
    if (!res.floats.empty()) {
        EXPECT_EQ(std::memcmp(res.floats.data(), expected.output.data(),
                              res.floats.size() * sizeof(float)),
                  0);
    }
    ASSERT_EQ(res.labels.size(), expected.labels.size());
    for (std::size_t i = 0; i < res.labels.size(); ++i)
        EXPECT_EQ(res.labels[i], expected.labels[i]);
}

/** Registry + one ragged model + a NetServer on its own thread. */
class NetTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("isingrbm_test_net_" + std::to_string(::getpid()) +
                 "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
        fs::remove_all(dir_);
        registry_ = std::make_unique<ModelRegistry>(dir_);
        rbm::Checkpoint ckpt;
        ckpt.model = randomRbm(33, 17, 2);  // ragged on purpose
        registry_->put("m", std::move(ckpt));
    }

    void
    TearDown() override
    {
        stopServer();
        util::FaultInjector::instance().reset();
        registry_.reset();
        fs::remove_all(dir_);
    }

    /** Start the server thread; returns the bound port. */
    std::uint16_t
    startServer(net::NetConfig config = {})
    {
        server_ = std::make_unique<net::NetServer>(*registry_,
                                                   std::move(config));
        const std::uint16_t port = server_->start();
        thread_ = std::thread([this] { server_->run(); });
        return port;
    }

    void
    stopServer()
    {
        if (server_)
            server_->requestStop();
        if (thread_.joinable())
            thread_.join();
    }

    /** In-process baseline responses for @p corpus (cache off). */
    std::vector<engine::Response>
    baseline(std::vector<engine::Request> corpus)
    {
        ModelRegistry fresh(dir_);
        engine::Server server(fresh);
        return server.serve(std::move(corpus));
    }

    std::string dir_;
    std::unique_ptr<ModelRegistry> registry_;
    std::unique_ptr<net::NetServer> server_;
    std::thread thread_;
};

} // namespace

// ----------------------------------------------------------- codec

TEST(NetFrame, InferRequestRoundTripsBothPayloads)
{
    for (const auto kind :
         {net::PayloadKind::Packed, net::PayloadKind::Float}) {
        engine::Request req;
        req.model = "m";
        req.op = Op::Reconstruct;
        req.seed = 99;
        req.input.reset(3, 33);
        util::Rng rng(5);
        for (std::size_t r = 0; r < 3; ++r)
            for (std::size_t c = 0; c < 33; ++c)
                req.input(r, c) = rng.bernoulli(0.5) ? 1.0f : 0.0f;
        const net::Request frame = inferFrame(req, 7, kind);

        std::string bytes;
        net::encodeRequest(frame, bytes);
        net::FrameReader reader;
        reader.feed(bytes.data(), bytes.size());
        std::string body;
        ASSERT_TRUE(reader.next(body));
        net::Request back;
        ASSERT_TRUE(
            net::decodeRequest(body.data(), body.size(), back));
        EXPECT_EQ(back.type, net::FrameType::InferRequest);
        EXPECT_EQ(back.id, 7u);
        EXPECT_EQ(back.model, "m");
        EXPECT_EQ(back.op, Op::Reconstruct);
        EXPECT_EQ(back.payload, kind);
        EXPECT_EQ(back.seed, 99u);
        EXPECT_EQ(back.rows, 3u);
        EXPECT_EQ(back.cols, 33u);
        EXPECT_EQ(back.words, frame.words);
        EXPECT_EQ(back.floats, frame.floats);
        EXPECT_FALSE(reader.next(body));  // exactly one frame
    }
}

TEST(NetFrame, ResponseRoundTripsFloatsLabelsAndModels)
{
    net::Response res;
    res.type = net::FrameType::InferResponse;
    res.id = 3;
    res.code = net::kWireOverloaded;
    res.message = "busy";
    res.rows = 2;
    res.cols = 2;
    res.floats = {1.5f, -0.25f, 0.0f, 42.0f};
    std::string bytes;
    net::encodeResponse(res, bytes);
    net::Response back;
    // Strip the 4-byte length prefix by replaying through a reader.
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    std::string body;
    ASSERT_TRUE(reader.next(body));
    ASSERT_TRUE(net::decodeResponse(body.data(), body.size(), back));
    EXPECT_EQ(back.id, 3u);
    EXPECT_EQ(back.code, net::kWireOverloaded);
    EXPECT_EQ(back.message, "busy");
    EXPECT_EQ(back.floats, res.floats);

    net::Response list;
    list.type = net::FrameType::ListResponse;
    list.models.push_back({"m", "rbm", "cd", 4, 33, 17});
    bytes.clear();
    net::encodeResponse(list, bytes);
    net::FrameReader reader2;
    reader2.feed(bytes.data(), bytes.size());
    ASSERT_TRUE(reader2.next(body));
    ASSERT_TRUE(net::decodeResponse(body.data(), body.size(), back));
    ASSERT_EQ(back.models.size(), 1u);
    EXPECT_EQ(back.models[0].name, "m");
    EXPECT_EQ(back.models[0].family, "rbm");
    EXPECT_EQ(back.models[0].epoch, 4);
    EXPECT_EQ(back.models[0].inputDim, 33u);
    EXPECT_EQ(back.models[0].outputDim, 17u);
}

TEST(NetFrame, ReaderAssemblesByteByByte)
{
    net::Request frame;
    frame.type = net::FrameType::InfoRequest;
    frame.model = "hello";
    std::string bytes;
    net::encodeRequest(frame, bytes);
    net::encodeRequest(frame, bytes);  // two frames back to back

    net::FrameReader reader;
    std::string body;
    int frames = 0;
    for (const char byte : bytes) {
        reader.feed(&byte, 1);
        while (reader.next(body)) {
            ++frames;
            net::Request back;
            ASSERT_TRUE(
                net::decodeRequest(body.data(), body.size(), back));
            EXPECT_EQ(back.model, "hello");
        }
    }
    EXPECT_EQ(frames, 2);
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(NetFrame, MalformedBodiesAreRejected)
{
    net::Request out;
    // Unknown type byte.
    const char junk[] = {99};
    EXPECT_FALSE(net::decodeRequest(junk, sizeof junk, out));
    // Truncated Infer body.
    engine::Request req;
    req.model = "m";
    req.op = Op::Featurize;
    req.input.reset(1, 8);
    std::string bytes;
    net::encodeRequest(inferFrame(req, 1, net::PayloadKind::Float),
                       bytes);
    EXPECT_FALSE(
        net::decodeRequest(bytes.data() + 4, bytes.size() - 10, out));
    // Payload size disagreeing with rows x cols.
    std::string full(bytes.begin() + 4, bytes.end());
    full.append(4, '\0');
    EXPECT_FALSE(net::decodeRequest(full.data(), full.size(), out));
    // Empty body.
    EXPECT_FALSE(net::decodeRequest(bytes.data(), 0, out));
}

TEST(NetFrame, HugeDimsDoNotOverflowTheSizeCheck)
{
    // rows = cols = 2^31 makes rows*cols*4 wrap to exactly 0 in 64
    // bits, so a header-only frame used to pass the size check and
    // drive a 2^62-element resize.  encodeRequest with an empty
    // payload vector emits precisely that malicious frame.
    net::Request evil;
    evil.type = net::FrameType::InferRequest;
    evil.payload = net::PayloadKind::Float;
    evil.model = "m";
    evil.rows = 0x80000000u;
    evil.cols = 0x80000000u;
    std::string bytes;
    net::encodeRequest(evil, bytes);
    net::Request out;
    EXPECT_FALSE(
        net::decodeRequest(bytes.data() + 4, bytes.size() - 4, out));

    // Same wrap in decodeResponse (the client-side check).
    std::string body;
    const auto le32 = [&body](std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            body.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    };
    body.push_back(
        static_cast<char>(net::FrameType::InferResponse));
    le32(1);                 // id
    body.push_back('\0');    // code = ok
    body.append(2, '\0');    // empty message
    le32(0x80000000u);       // rows
    le32(0x80000000u);       // cols
    body.push_back('\x01');  // kind = floats, but no payload bytes
    net::Response rout;
    EXPECT_FALSE(net::decodeResponse(body.data(), body.size(), rout));
}

namespace {

/** Lower-case hex spelling of @p bytes. */
std::string
hexOf(const std::string &bytes)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string hex;
    for (const char ch : bytes) {
        const auto b = static_cast<unsigned char>(ch);
        hex.push_back(kDigits[b >> 4]);
        hex.push_back(kDigits[b & 15]);
    }
    return hex;
}

} // namespace

TEST(NetFrame, WireBytesArePinned)
{
    // Round trips cannot see a byte-order or layout slip that the
    // encoder and decoder share, so these literals pin the wire
    // format itself.  Each frame must also decode and re-encode to
    // the same bytes (the zero-row request included).
    const auto pinRequest = [](const net::Request &req,
                               const char *hex) {
        std::string bytes;
        net::encodeRequest(req, bytes);
        EXPECT_EQ(hexOf(bytes), hex);
        net::Request back;
        ASSERT_TRUE(
            net::decodeRequest(bytes.data() + 4, bytes.size() - 4, back));
        std::string again;
        net::encodeRequest(back, again);
        EXPECT_EQ(again, bytes);
    };
    const auto pinResponse = [](const net::Response &res,
                                const char *hex) {
        std::string bytes;
        net::encodeResponse(res, bytes);
        EXPECT_EQ(hexOf(bytes), hex);
        net::Response back;
        ASSERT_TRUE(net::decodeResponse(bytes.data() + 4,
                                        bytes.size() - 4, back));
        std::string again;
        net::encodeResponse(back, again);
        EXPECT_EQ(again, bytes);
    };

    net::Request packed;
    packed.type = net::FrameType::InferRequest;
    packed.id = 7;
    packed.op = Op::Reconstruct;
    packed.payload = net::PayloadKind::Packed;
    packed.model = "m";
    packed.steps = 4;
    packed.seed = 0x0123456789abcdefull;
    packed.rows = 2;
    packed.cols = 70;
    packed.words = {0x0123456789abcdefull, 0x3full, 0xfedcba9876543210ull,
                    0x15ull};
    packed.deadlineMs = 250;
    pinRequest(packed,
               "420000000307000000030101006d04000000efcdab8967452301"
               "0200000046000000efcdab89674523013f00000000000000"
               "1032547698badcfe1500000000000000fa000000");

    net::Request floats;
    floats.type = net::FrameType::InferRequest;
    floats.id = 8;
    floats.op = Op::Featurize;
    floats.payload = net::PayloadKind::Float;
    floats.model = "m";
    floats.steps = 25;
    floats.seed = 3;
    floats.rows = 1;
    floats.cols = 3;
    floats.floats = {1.5f, -0.25f, 0.1f};
    pinRequest(floats,
               "2a0000000308000000010201006d1900000003000000000000000100"
               "0000030000000000c03f000080becdcccc3d");

    net::Request empty;
    empty.type = net::FrameType::InferRequest;
    empty.id = 9;
    empty.op = Op::Reconstruct;
    empty.payload = net::PayloadKind::Packed;
    empty.model = "m";
    empty.steps = 4;
    empty.seed = 5;
    empty.rows = 0;
    empty.cols = 33;
    pinRequest(empty,
               "1e0000000309000000030101006d0400000005000000000000000000"
               "000021000000");

    net::Response rowsOut;
    rowsOut.type = net::FrameType::InferResponse;
    rowsOut.id = 7;
    rowsOut.rows = 2;
    rowsOut.cols = 2;
    rowsOut.floats = {1.5f, -0.25f, 0.0f, 42.0f};
    pinResponse(rowsOut,
                "2100000043070000000000000200000002000000010000c03f0000"
                "80be0000000000002842");

    net::Response labels;
    labels.type = net::FrameType::InferResponse;
    labels.id = 8;
    labels.rows = 3;
    labels.labels = {0, 9, -1};
    pinResponse(labels,
                "1d0000004308000000000000030000000000000002000000000900"
                "0000ffffffff");

    net::Response health;
    health.type = net::FrameType::HealthResponse;
    health.health.requests = 101;
    health.health.rows = 404;
    health.health.shed = 7;
    health.health.backpressured = 3;
    health.health.deadlineExpired = 11;
    health.health.canaryShadows = 64;
    health.health.canaryCleanStreak = 32;
    health.health.canaryQuarantines = 2;
    health.health.canaryPromotions = 1;
    health.health.rollbacks = 5;
    health.health.canaryState = 2;
    health.health.lastDivergence = 0.125;
    health.health.meanDivergence = 0.0625;
    pinResponse(health,
                "6300000045006500000000000000940100000000000007000000"
                "0000000003000000000000000b000000000000004000000000"
                "000000200000000000000002000000000000000100000000000000"
                "050000000000000002000000000000c03f000000000000b03f");
}

TEST(NetFrame, LongStringsTravelAsTheirFirst65535Bytes)
{
    // A u16 length cannot describe a longer string; the encoder cuts
    // it so the frame still decodes (a status message can echo a
    // client-chosen model name of any length).
    net::Response res;
    res.type = net::FrameType::InferResponse;
    res.id = 4;
    res.code = net::kWireNotFound;
    res.message.resize(70000);
    for (std::size_t i = 0; i < res.message.size(); ++i)
        res.message[i] = static_cast<char>('a' + i % 26);
    std::string bytes;
    net::encodeResponse(res, bytes);
    net::Response back;
    ASSERT_TRUE(
        net::decodeResponse(bytes.data() + 4, bytes.size() - 4, back));
    EXPECT_EQ(back.id, 4u);
    EXPECT_EQ(back.code, net::kWireNotFound);
    EXPECT_EQ(back.message, res.message.substr(0, 65535));
}

TEST(NetFrame, OversizedLengthPoisonsTheReader)
{
    net::FrameReader reader(1024);
    const char huge[] = {'\xff', '\xff', '\xff', '\x7f', 'x'};
    reader.feed(huge, sizeof huge);
    std::string body;
    EXPECT_FALSE(reader.next(body));
    EXPECT_TRUE(reader.overflow());
    // Once poisoned, further feeds stay dead.
    reader.feed(huge, sizeof huge);
    EXPECT_FALSE(reader.next(body));
}

// ---------------------------------------------------- served bytes

TEST_F(NetTest, SocketBytesMatchInProcessAcrossConnections)
{
    net::NetConfig config;
    config.server.cacheBytes = 1 << 20;  // cache ON over the socket
    const std::uint16_t port = startServer(std::move(config));

    const auto model = registry_->get("m");
    std::vector<engine::Request> corpus;
    for (const Op op : {Op::Reconstruct, Op::Featurize, Op::Sample}) {
        auto part = engine::probeRequests(*model, "m", op, 6, 3, 4, 21);
        for (auto &req : part)
            corpus.push_back(std::move(req));
    }
    const std::vector<engine::Response> expected = baseline(corpus);

    // Three concurrent connections, round-robin, pipelined; one
    // speaks floats, two speak packed -- byte-identity must hold for
    // any interleaving and either payload.
    for (int round = 0; round < 2; ++round) {  // round 2 = cache hits
        net::Client clients[3];
        for (auto &client : clients)
            ASSERT_TRUE(client.connect("127.0.0.1", port));
        for (std::size_t q = 0; q < corpus.size(); ++q) {
            const auto kind = q % 3 == 2 ? net::PayloadKind::Float
                                         : net::PayloadKind::Packed;
            ASSERT_TRUE(clients[q % 3].send(inferFrame(
                corpus[q], static_cast<std::uint32_t>(q), kind)));
        }
        std::vector<net::Response> got(corpus.size());
        for (std::size_t q = 0; q < corpus.size(); ++q) {
            net::Response res;
            ASSERT_TRUE(clients[q % 3].recv(res));
            ASSERT_LT(res.id, got.size());
            got[res.id] = std::move(res);
        }
        for (std::size_t q = 0; q < corpus.size(); ++q)
            expectSameBytes(got[q], expected[q]);
    }

    stopServer();
    const auto stats = server_->engine().stats();
    EXPECT_GT(stats.cacheHits, 0u);  // round 2 replayed from cache
    EXPECT_GT(stats.flushLatencyNs.count(), 0u);
}

TEST_F(NetTest, PackedPadBitsAreCanonicalized)
{
    net::NetConfig config;
    config.server.cacheBytes = 1 << 20;
    const std::uint16_t port = startServer(std::move(config));

    const auto model = registry_->get("m");
    const auto corpus = engine::probeRequests(*model, "m",
                                              Op::Reconstruct, 1, 2,
                                              4, 11);
    const std::vector<engine::Response> expected = baseline(corpus);

    // 33 columns leave 31 pad bits per row.  A client is free to send
    // garbage there; the server must mask it so the engine sees a
    // BitMatrix with its zero-pad invariant intact and the cache key
    // is canonical.
    net::Request clean = inferFrame(corpus[0], 0,
                                    net::PayloadKind::Packed);
    net::Request dirty = clean;
    const std::uint64_t padMask = ~((1ull << (clean.cols % 64)) - 1);
    for (std::uint64_t &w : dirty.words)
        w |= padMask;  // wordsPerRow == 1: every word is a tail word
    ASSERT_NE(dirty.words, clean.words);

    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    net::Response res;
    ASSERT_TRUE(client.call(dirty, res));
    expectSameBytes(res, expected[0]);  // pad bits don't change bytes
    ASSERT_TRUE(client.call(clean, res));
    expectSameBytes(res, expected[0]);

    stopServer();
    // Dirty and clean hashed to the same canonical key.
    EXPECT_GT(server_->engine().stats().cacheHits, 0u);
}

TEST_F(NetTest, ListAndInfoDescribeTheRegistry)
{
    rbm::Checkpoint second;
    second.model = randomRbm(12, 5, 9);
    registry_->put("other", std::move(second));
    const std::uint16_t port = startServer();

    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    net::Request list;
    list.type = net::FrameType::ListRequest;
    net::Response res;
    ASSERT_TRUE(client.call(list, res));
    EXPECT_EQ(res.type, net::FrameType::ListResponse);
    ASSERT_EQ(res.models.size(), 2u);

    net::Request info;
    info.type = net::FrameType::InfoRequest;
    info.model = "other";
    ASSERT_TRUE(client.call(info, res));
    EXPECT_EQ(res.code, net::kWireOk);
    ASSERT_EQ(res.models.size(), 1u);
    EXPECT_EQ(res.models[0].name, "other");
    EXPECT_EQ(res.models[0].family, "rbm");
    EXPECT_EQ(res.models[0].inputDim, 12u);
    EXPECT_EQ(res.models[0].outputDim, 5u);

    info.model = "missing";
    ASSERT_TRUE(client.call(info, res));
    EXPECT_EQ(res.code, net::kWireNotFound);
}

TEST_F(NetTest, OverlongModelNameGetsADecodableNotFound)
{
    // The registry's NotFound message repeats the name twice, so a
    // 40000-byte name makes an 80 KB message: the reply must still be
    // one decodable frame, not a reply every retry resends into.
    const std::uint16_t port = startServer();
    net::Client client(net::Client::RetryPolicy{3, 10, 100});
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    for (const std::size_t length :
         {std::size_t{100}, std::size_t{40000}}) {
        const std::string name(length, 'x');
        net::Request info;
        info.type = net::FrameType::InfoRequest;
        info.model = name;
        net::Response res;
        ASSERT_TRUE(client.call(info, res)) << length;
        EXPECT_EQ(res.code, net::kWireNotFound) << length;
        EXPECT_LE(res.message.size(), 65535u);
        EXPECT_NE(res.message.find(name.substr(0, 100)),
                  std::string::npos);

        net::Request infer;
        infer.type = net::FrameType::InferRequest;
        infer.id = 5;
        infer.model = name;
        infer.op = Op::Sample;
        infer.rows = 1;
        ASSERT_TRUE(client.call(infer, res)) << length;
        EXPECT_EQ(res.id, 5u);
        EXPECT_EQ(res.code, net::kWireNotFound) << length;
    }
    EXPECT_EQ(client.retries(), 0u);
}

TEST_F(NetTest, OverloadShedsWithStatusAndKeepsServing)
{
    net::NetConfig config;
    config.maxPendingRows = 4;  // tiny budget: 2 requests of 2 rows
    const std::uint16_t port = startServer(std::move(config));

    const auto model = registry_->get("m");
    const auto corpus =
        engine::probeRequests(*model, "m", Op::Reconstruct, 12, 2, 4, 5);
    const std::vector<engine::Response> expected = baseline(corpus);

    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    // Pipeline everything as ONE write so one cycle sees all 12 and
    // sheds what does not fit -- but every request gets a reply (zero
    // dropped frames).  Separate sends can straddle event-loop cycles
    // that each stay under budget, making the shed count flaky.
    std::string burst;
    for (std::size_t q = 0; q < corpus.size(); ++q)
        net::encodeRequest(inferFrame(corpus[q],
                                      static_cast<std::uint32_t>(q),
                                      net::PayloadKind::Packed),
                           burst);
    ASSERT_TRUE(client.sendBytes(burst));
    std::size_t ok = 0, shed = 0;
    for (std::size_t q = 0; q < corpus.size(); ++q) {
        net::Response res;
        ASSERT_TRUE(client.recv(res));
        if (res.code == net::kWireOverloaded) {
            ++shed;
        } else {
            expectSameBytes(res, expected[res.id]);  // admitted = exact
            ++ok;
        }
    }
    EXPECT_GT(ok, 0u);
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(ok + shed, corpus.size());

    // The budget is per cycle, not leaked by sheds: a polite batch
    // that fits is served in full afterwards.
    for (std::size_t q = 0; q < 2; ++q) {
        net::Response res;
        ASSERT_TRUE(client.call(inferFrame(corpus[q],
                                           static_cast<std::uint32_t>(q),
                                           net::PayloadKind::Packed),
                                res));
        expectSameBytes(res, expected[q]);
    }

    stopServer();
    EXPECT_EQ(server_->stats().shed, shed);
}

TEST_F(NetTest, NetdropIsolatesTheDroppedConnection)
{
    const std::uint16_t port = startServer();
    const auto model = registry_->get("m");
    const auto corpus =
        engine::probeRequests(*model, "m", Op::Reconstruct, 4, 2, 4, 31);
    const std::vector<engine::Response> expected = baseline(corpus);

    // Deterministic accept order: finish a round trip on A before B
    // connects, so A is conn:1 and B is conn:2.
    net::Client a, b;
    ASSERT_TRUE(a.connect("127.0.0.1", port));
    net::Request list;
    list.type = net::FrameType::ListRequest;
    net::Response ignored;
    ASSERT_TRUE(a.call(list, ignored));
    ASSERT_TRUE(b.connect("127.0.0.1", port));

    // B's first reply write is chopped mid-frame and the conn closed.
    util::FaultInjector::instance().configure("netdrop:conn:2@1");

    ASSERT_TRUE(b.send(inferFrame(corpus[1], 1,
                                  net::PayloadKind::Packed)));
    ASSERT_TRUE(a.send(inferFrame(corpus[0], 0,
                                  net::PayloadKind::Packed)));
    net::Response res;
    ASSERT_TRUE(a.recv(res));
    expectSameBytes(res, expected[0]);  // A's bytes unperturbed
    EXPECT_FALSE(b.recv(res));          // B sees a torn frame + EOF

    // A keeps being served exact bytes after B's demise.
    ASSERT_TRUE(a.call(inferFrame(corpus[2], 2,
                                  net::PayloadKind::Packed),
                       res));
    expectSameBytes(res, expected[2]);

    stopServer();
    EXPECT_EQ(server_->stats().faultDrops, 1u);
}

TEST_F(NetTest, NetstallIsReapedByTheIdleTimeout)
{
    net::NetConfig config;
    config.idleTimeoutMs = 300;
    const std::uint16_t port = startServer(std::move(config));
    const auto model = registry_->get("m");
    const auto corpus =
        engine::probeRequests(*model, "m", Op::Featurize, 3, 2, 4, 77);
    const std::vector<engine::Response> expected = baseline(corpus);

    net::Client a, b;
    ASSERT_TRUE(a.connect("127.0.0.1", port));
    net::Request list;
    list.type = net::FrameType::ListRequest;
    net::Response ignored;
    ASSERT_TRUE(a.call(list, ignored));
    ASSERT_TRUE(b.connect("127.0.0.1", port));

    util::FaultInjector::instance().configure("netstall:conn:2@1");

    ASSERT_TRUE(b.send(inferFrame(corpus[1], 1,
                                  net::PayloadKind::Packed)));
    net::Response res;
    // A stays fully served while B's replies are frozen...
    ASSERT_TRUE(a.call(inferFrame(corpus[0], 0,
                                  net::PayloadKind::Packed),
                       res));
    expectSameBytes(res, expected[0]);
    // ...until the idle timeout reaps the stalled connection.  (A is
    // idle too while we block here, so it may be reaped as well --
    // prove continued service with a fresh connection.)
    EXPECT_FALSE(b.recv(res));
    net::Client fresh;
    ASSERT_TRUE(fresh.connect("127.0.0.1", port));
    ASSERT_TRUE(fresh.call(inferFrame(corpus[2], 2,
                                      net::PayloadKind::Packed),
                           res));
    expectSameBytes(res, expected[2]);

    stopServer();
    EXPECT_EQ(server_->stats().faultStalls, 1u);
    EXPECT_GE(server_->stats().idleClosed, 1u);
}

TEST_F(NetTest, ReplyBacklogPausesReadsAndIsReaped)
{
    net::NetConfig config;
    config.idleTimeoutMs = 300;
    config.maxConnBacklog = 1;  // any unsent reply trips the cap
    const std::uint16_t port = startServer(std::move(config));
    const auto model = registry_->get("m");
    const auto corpus =
        engine::probeRequests(*model, "m", Op::Featurize, 8, 2, 4, 19);
    const std::vector<engine::Response> expected = baseline(corpus);

    net::Client a, b;
    ASSERT_TRUE(a.connect("127.0.0.1", port));
    net::Request list;
    list.type = net::FrameType::ListRequest;
    net::Response ignored;
    ASSERT_TRUE(a.call(list, ignored));
    ASSERT_TRUE(b.connect("127.0.0.1", port));

    // Freeze b's writes: its reply backlog now only grows, modelling
    // a client that pipelines requests but never reads responses.
    util::FaultInjector::instance().configure("netstall:conn:2@1");
    ASSERT_TRUE(b.send(inferFrame(corpus[1], 1,
                                  net::PayloadKind::Packed)));
    net::Response res;
    ASSERT_TRUE(a.call(inferFrame(corpus[0], 0,
                                  net::PayloadKind::Packed),
                       res));
    expectSameBytes(res, expected[0]);  // other conns unperturbed

    // Keep sending on b past the idle timeout.  Reads from b are
    // paused by the backlog cap, so these frames never refresh its
    // lastActivity (and are never decoded): the reaper still fires.
    for (int i = 0; i < 6; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        (void)b.send(inferFrame(corpus[static_cast<std::size_t>(2 + i)],
                                static_cast<std::uint32_t>(2 + i),
                                net::PayloadKind::Packed));
    }
    EXPECT_FALSE(b.recv(res));  // reaped despite the ongoing sends

    net::Client fresh;  // a idled out during the sleeps; prove service
    ASSERT_TRUE(fresh.connect("127.0.0.1", port));
    ASSERT_TRUE(fresh.call(inferFrame(corpus[7], 7,
                                      net::PayloadKind::Packed),
                           res));
    expectSameBytes(res, expected[7]);

    stopServer();
    const auto stats = server_->stats();
    EXPECT_EQ(stats.faultStalls, 1u);
    EXPECT_GE(stats.backpressured, 1u);
    EXPECT_GE(stats.idleClosed, 1u);
    // b's post-pause frames were never read: only its first Infer and
    // the two served over a/fresh ever reached the engine.
    EXPECT_EQ(stats.infers, 3u);
}

TEST_F(NetTest, GarbageBytesCloseOnlyTheirConnection)
{
    const std::uint16_t port = startServer();
    net::Client good, bad;
    ASSERT_TRUE(good.connect("127.0.0.1", port));
    ASSERT_TRUE(bad.connect("127.0.0.1", port));

    // A response-typed frame is not a valid request.
    net::Response bogus;
    bogus.type = net::FrameType::InferResponse;
    std::string bytes;
    net::encodeResponse(bogus, bytes);
    ASSERT_TRUE(bad.sendBytes(bytes));
    net::Response res;
    EXPECT_FALSE(bad.recv(res));  // closed without a reply

    net::Request list;
    list.type = net::FrameType::ListRequest;
    ASSERT_TRUE(good.call(list, res));  // the good conn is untouched
    EXPECT_EQ(res.type, net::FrameType::ListResponse);

    stopServer();
    EXPECT_EQ(server_->stats().protocolErrors, 1u);
}

TEST_F(NetTest, ShutdownFrameDrainsAndStops)
{
    const std::uint16_t port = startServer();
    const auto model = registry_->get("m");
    const auto corpus =
        engine::probeRequests(*model, "m", Op::Reconstruct, 3, 2, 4, 63);
    const std::vector<engine::Response> expected = baseline(corpus);

    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    // Pipeline work *and* the shutdown: the queued requests must all
    // be answered before the server exits.
    for (std::size_t q = 0; q < corpus.size(); ++q)
        ASSERT_TRUE(client.send(inferFrame(
            corpus[q], static_cast<std::uint32_t>(q),
            net::PayloadKind::Packed)));
    net::Request shutdown;
    shutdown.type = net::FrameType::ShutdownRequest;
    ASSERT_TRUE(client.send(shutdown));

    for (std::size_t q = 0; q < corpus.size(); ++q) {
        net::Response res;
        ASSERT_TRUE(client.recv(res));
        expectSameBytes(res, expected[res.id]);
    }
    net::Response ack;
    ASSERT_TRUE(client.recv(ack));
    EXPECT_EQ(ack.type, net::FrameType::ShutdownResponse);
    thread_.join();  // run() returns on its own
    EXPECT_EQ(server_->stats().infers, corpus.size());
}

TEST_F(NetTest, LoadGenMeasuresAndMatchesBaseline)
{
    net::NetConfig config;
    config.server.cacheBytes = 1 << 20;
    const std::uint16_t port = startServer(std::move(config));

    net::LoadGenConfig gen;
    gen.port = port;
    gen.model = "m";
    gen.op = Op::Reconstruct;
    gen.requests = 16;
    gen.rows = 3;
    gen.steps = 4;
    gen.seed = 13;
    gen.connections = 2;
    gen.keepResponses = true;
    const net::LoadGenReport report = net::runLoadGen(gen);
    ASSERT_TRUE(report.error.empty()) << report.error;
    EXPECT_EQ(report.ok, gen.requests);
    EXPECT_EQ(report.shed, 0u);
    EXPECT_EQ(report.okRows, gen.requests * gen.rows);
    EXPECT_EQ(report.latencyNs.count(), gen.requests);
    EXPECT_GT(report.latencyNs.quantile(0.99), 0u);

    // The loadgen corpus is the probeRequests stream: byte-diff the
    // kept responses against the in-process baseline.
    const auto model = registry_->get("m");
    const std::vector<engine::Response> expected = baseline(
        engine::probeRequests(*model, "m", Op::Reconstruct,
                              gen.requests, gen.rows, gen.steps,
                              gen.seed));
    for (std::size_t q = 0; q < gen.requests; ++q)
        expectSameBytes(report.responses[q], expected[q]);
}

// ----------------------------------------------- deadlines + canary

TEST(NetFrame, DeadlineTravelsAsAnOptionalTrailingField)
{
    engine::Request req;
    req.model = "m";
    req.op = Op::Featurize;
    req.seed = 3;
    req.input.reset(2, 8);
    net::Request bare = inferFrame(req, 1, net::PayloadKind::Float);
    net::Request budgeted = bare;
    budgeted.deadlineMs = 250;

    std::string bareBytes, budgetBytes;
    net::encodeRequest(bare, bareBytes);
    net::encodeRequest(budgeted, budgetBytes);
    // The field is appended only when nonzero, and is exactly 4 bytes.
    EXPECT_EQ(budgetBytes.size(), bareBytes.size() + 4);

    net::Request back;
    ASSERT_TRUE(net::decodeRequest(budgetBytes.data() + 4,
                                   budgetBytes.size() - 4, back));
    EXPECT_EQ(back.deadlineMs, 250u);
    ASSERT_TRUE(net::decodeRequest(bareBytes.data() + 4,
                                   bareBytes.size() - 4, back));
    EXPECT_EQ(back.deadlineMs, 0u);  // legacy frames still decode

    // Any trailing length other than 0 or 4 stays malformed.
    std::string torn(budgetBytes.begin() + 4, budgetBytes.end());
    torn.pop_back();
    EXPECT_FALSE(net::decodeRequest(torn.data(), torn.size(), back));
    std::string bloated(bareBytes.begin() + 4, bareBytes.end());
    bloated.append(2, '\0');
    EXPECT_FALSE(
        net::decodeRequest(bloated.data(), bloated.size(), back));
    // An explicit zero deadline never leaves the encoder, so it is
    // malformed on the wire too (junk padding must not decode).
    std::string zeroed(bareBytes.begin() + 4, bareBytes.end());
    zeroed.append(4, '\0');
    EXPECT_FALSE(
        net::decodeRequest(zeroed.data(), zeroed.size(), back));
}

TEST(NetFrame, HealthSnapshotRoundTripsEveryField)
{
    net::Response res;
    res.type = net::FrameType::HealthResponse;
    res.health.requests = 101;
    res.health.rows = 404;
    res.health.shed = 7;
    res.health.backpressured = 3;
    res.health.deadlineExpired = 11;
    res.health.canaryShadows = 64;
    res.health.canaryCleanStreak = 32;
    res.health.canaryQuarantines = 2;
    res.health.canaryPromotions = 1;
    res.health.rollbacks = 5;
    res.health.canaryState =
        static_cast<std::uint8_t>(engine::CanaryState::Quarantined);
    res.health.lastDivergence = 0.125;
    res.health.meanDivergence = 0.0625;

    std::string bytes;
    net::encodeResponse(res, bytes);
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    std::string body;
    ASSERT_TRUE(reader.next(body));
    net::Response back;
    ASSERT_TRUE(net::decodeResponse(body.data(), body.size(), back));
    EXPECT_EQ(back.type, net::FrameType::HealthResponse);
    EXPECT_EQ(back.health.requests, 101u);
    EXPECT_EQ(back.health.rows, 404u);
    EXPECT_EQ(back.health.shed, 7u);
    EXPECT_EQ(back.health.backpressured, 3u);
    EXPECT_EQ(back.health.deadlineExpired, 11u);
    EXPECT_EQ(back.health.canaryShadows, 64u);
    EXPECT_EQ(back.health.canaryCleanStreak, 32u);
    EXPECT_EQ(back.health.canaryQuarantines, 2u);
    EXPECT_EQ(back.health.canaryPromotions, 1u);
    EXPECT_EQ(back.health.rollbacks, 5u);
    EXPECT_EQ(static_cast<engine::CanaryState>(back.health.canaryState),
              engine::CanaryState::Quarantined);
    EXPECT_EQ(back.health.lastDivergence, 0.125);
    EXPECT_EQ(back.health.meanDivergence, 0.0625);
}

TEST(NetFrame, CanaryStatesPinTheirNameAndHealthByte)
{
    // The Health frame carries an engine::CanaryState as its byte
    // (WireBytesArePinned pins where that byte sits in the frame).
    struct Pin
    {
        engine::CanaryState state;
        std::uint8_t byte;
        const char *name;
    };
    const Pin pins[] = {
        {engine::CanaryState::Idle, 0, "idle"},
        {engine::CanaryState::Shadowing, 1, "shadowing"},
        {engine::CanaryState::Quarantined, 2, "quarantined"},
        {engine::CanaryState::Promoted, 3, "promoted"},
    };
    for (const Pin &pin : pins) {
        EXPECT_EQ(static_cast<std::uint8_t>(pin.state), pin.byte)
            << pin.name;
        EXPECT_STREQ(engine::canaryStateName(pin.state), pin.name);
        net::HealthSnapshot health;
        health.canaryState = pin.byte;
        const std::string line = net::gateSummary(health);
        EXPECT_EQ(line.rfind(std::string("canary: ") + pin.name + ",", 0),
                  0u)
            << line;
    }

    // A byte outside the enum (a newer server's state) still decodes,
    // and prints as "?".
    net::Response res;
    res.type = net::FrameType::HealthResponse;
    res.health.canaryState = 7;
    std::string bytes;
    net::encodeResponse(res, bytes);
    net::Response back;
    ASSERT_TRUE(net::decodeResponse(bytes.data() + 4, bytes.size() - 4,
                                    back));
    EXPECT_EQ(back.health.canaryState, 7);
    EXPECT_STREQ(engine::canaryStateName(engine::CanaryState{7}), "?");
    EXPECT_EQ(net::gateSummary(back.health).rfind("canary: ?,", 0), 0u)
        << net::gateSummary(back.health);
}

TEST_F(NetTest, HealthFrameReportsLiveCounters)
{
    const std::uint16_t port = startServer();
    const auto model = registry_->get("m");
    const auto corpus =
        engine::probeRequests(*model, "m", Op::Reconstruct, 2, 2, 4, 3);
    const std::vector<engine::Response> expected = baseline(corpus);

    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    net::Response res;
    ASSERT_TRUE(client.call(inferFrame(corpus[0], 0,
                                       net::PayloadKind::Packed),
                            res));
    expectSameBytes(res, expected[0]);

    net::Request health;
    health.type = net::FrameType::HealthRequest;
    ASSERT_TRUE(client.call(health, res));
    EXPECT_EQ(res.type, net::FrameType::HealthResponse);
    EXPECT_EQ(res.code, net::kWireOk);
    EXPECT_GE(res.health.requests, 1u);
    EXPECT_GE(res.health.rows, 2u);
    // No candidate staged.
    EXPECT_EQ(static_cast<engine::CanaryState>(res.health.canaryState),
              engine::CanaryState::Idle);
    EXPECT_EQ(res.health.canaryShadows, 0u);
}

TEST_F(NetTest, DivergentCanaryNeverPerturbsSocketBytes)
{
    // Stage a zero-weight candidate: wildly divergent from the random
    // incumbent, so the gate must quarantine -- while every byte the
    // client sees stays identical to the canary-off baseline.
    rbm::Checkpoint cand;
    cand.meta.name = "m";
    cand.meta.backend = "cd";
    cand.meta.epoch = 2;
    cand.model = rbm::Rbm(33, 17);
    const std::string candPath = dir_ + "/candidate.rbm";
    rbm::saveCheckpoint(cand, candPath);
    ASSERT_TRUE(registry_->stageCandidate("m", candPath).ok());

    net::NetConfig config;
    config.server.canary.model = "m";
    config.server.canary.fraction = 1.0;
    config.server.canary.minShadows = 1u << 20;  // never promote
    config.server.canary.maxDivergence = 1e-6;   // always breach
    config.server.canary.quarantineMinMs = 1;
    config.server.canary.quarantineMaxMs = 2;
    const std::uint16_t port = startServer(std::move(config));

    const auto model = registry_->get("m");
    std::vector<engine::Request> corpus;
    for (const Op op : {Op::Reconstruct, Op::Featurize}) {
        auto part = engine::probeRequests(*model, "m", op, 6, 3, 4, 57);
        for (auto &req : part)
            corpus.push_back(std::move(req));
    }
    const std::vector<engine::Response> expected = baseline(corpus);

    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    for (std::size_t q = 0; q < corpus.size(); ++q) {
        net::Response res;
        ASSERT_TRUE(client.call(inferFrame(
                                    corpus[q],
                                    static_cast<std::uint32_t>(q),
                                    net::PayloadKind::Packed),
                                res));
        expectSameBytes(res, expected[q]);  // candidate never leaks
    }

    net::Request health;
    health.type = net::FrameType::HealthRequest;
    net::Response res;
    ASSERT_TRUE(client.call(health, res));
    EXPECT_GE(res.health.canaryShadows, 1u);
    EXPECT_GE(res.health.canaryQuarantines, 1u);
    EXPECT_EQ(res.health.canaryPromotions, 0u);
    EXPECT_GE(res.health.rollbacks, 1u);

    stopServer();
    EXPECT_EQ(server_->engine().stats().canaryPromotions, 0u);
}

TEST_F(NetTest, ClientHealsASeveredConnectionAndResends)
{
    const std::uint16_t port = startServer();
    const auto model = registry_->get("m");
    const auto corpus =
        engine::probeRequests(*model, "m", Op::Reconstruct, 2, 2, 4, 91);
    const std::vector<engine::Response> expected = baseline(corpus);

    // The first connection's first reply is chopped mid-frame and the
    // socket closed under the client: call() must back off, reconnect,
    // resend, and hand back the exact bytes as if nothing happened.
    util::FaultInjector::instance().configure("netdrop:conn:1@1");

    net::Client client(net::Client::RetryPolicy{3, 10, 100});
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    net::Response res;
    ASSERT_TRUE(client.call(inferFrame(corpus[0], 0,
                                       net::PayloadKind::Packed),
                            res));
    expectSameBytes(res, expected[0]);
    EXPECT_EQ(client.retries(), 1u);
    EXPECT_EQ(client.reconnects(), 1u);

    // The healed connection keeps working with no further retries.
    ASSERT_TRUE(client.call(inferFrame(corpus[1], 1,
                                       net::PayloadKind::Packed),
                            res));
    expectSameBytes(res, expected[1]);
    EXPECT_EQ(client.retries(), 1u);

    stopServer();
    EXPECT_EQ(server_->stats().faultDrops, 1u);
}
