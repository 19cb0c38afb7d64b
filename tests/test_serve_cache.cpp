/**
 * @file
 * Serving response-cache tests: a cache hit must replay the exact
 * bytes the kernels would have produced (per op and model family),
 * the LRU must respect its byte budget, and the CRC-64 stamp keying
 * must invalidate across checkpoint overwrite, direct save, and
 * canary-gated promote -- with zero stale hits.  Also covers the
 * packed zero-copy gather (byte-equal to the models' float reference
 * ops) and the word-level copyBits primitive underneath it.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "engine/server.hpp"
#include "linalg/bits.hpp"
#include "rbm/serialize.hpp"

using namespace ising;
using engine::ModelRegistry;
using engine::Op;
using engine::Request;
using engine::Response;
using engine::Server;
using engine::ServerConfig;
using util::Rng;

namespace {

namespace fs = std::filesystem;

rbm::Rbm
randomRbm(std::size_t m, std::size_t n, std::uint64_t seed)
{
    rbm::Rbm model(m, n);
    Rng rng(seed);
    model.initRandom(rng, 0.5f);
    return model;
}

linalg::Matrix
randomBinaryRows(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    linalg::Matrix out(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t i = 0; i < cols; ++i)
            out(r, i) = rng.bernoulli(0.5) ? 1.0f : 0.0f;
    return out;
}

bool
sameBytes(const linalg::Matrix &a, const linalg::Matrix &b)
{
    // Classify responses carry no output matrix: memcmp must not see
    // their null data pointers.
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
                0);
}

class ServeCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("isingrbm_test_servecache_" +
                 std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()->name()))
                   .string();
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

/** Ragged sizes on purpose: the packed plane's tail words matter. */
constexpr std::size_t kDim = 33;

void
putRbm(ModelRegistry &registry, const std::string &name,
       std::uint64_t seed)
{
    rbm::Checkpoint ckpt;
    ckpt.meta.backend = "cd";
    ckpt.model = randomRbm(kDim, 17, seed);
    registry.put(name, std::move(ckpt));
}

Request
makeRequest(const std::string &model, Op op, std::size_t rows,
            std::uint64_t seed)
{
    Request req;
    req.model = model;
    req.op = op;
    req.seed = seed;
    if (op == Op::Sample) {
        req.count = rows;
        req.steps = 4;
    } else {
        req.input = randomBinaryRows(rows, kDim, seed ^ 0xabcdef);
    }
    return req;
}

} // namespace

// ------------------------------------------------- hit == miss bytes

TEST_F(ServeCacheTest, HitReplaysMissBytesAcrossOpsAndFamilies)
{
    ModelRegistry registry(dir_);
    putRbm(registry, "plain", 1);

    Rng rng(2);
    rbm::ClassRbm clf(kDim, 3, 9);
    clf.initRandom(rng, 0.4f);
    rbm::Checkpoint clfCkpt;
    clfCkpt.model = clf;
    registry.put("clf", std::move(clfCkpt));

    rbm::Dbn stack({kDim, 12, 5});
    stack.initRandom(rng, 0.4f);
    rbm::Checkpoint deepCkpt;
    deepCkpt.model = stack;
    registry.put("deep", std::move(deepCkpt));

    struct Case
    {
        const char *model;
        Op op;
    };
    const Case cases[] = {
        {"plain", Op::Featurize}, {"plain", Op::Reconstruct},
        {"plain", Op::Sample},    {"clf", Op::Sample},
        {"clf", Op::Classify},    {"deep", Op::Featurize},
        {"deep", Op::Reconstruct},
    };
    for (const Case &c : cases) {
        ServerConfig config;
        config.cacheBytes = 1 << 20;
        Server cached(registry, config);
        Server uncached(registry);

        const Request req = makeRequest(c.model, c.op, 5, 11);
        const Response miss =
            std::move(cached.serve({req}).front());
        const Response hit = std::move(cached.serve({req}).front());
        const Response reference =
            std::move(uncached.serve({req}).front());
        ASSERT_TRUE(miss.status.ok()) << c.model;
        ASSERT_TRUE(hit.status.ok()) << c.model;
        EXPECT_TRUE(sameBytes(hit.output, miss.output))
            << c.model << "/" << engine::opName(c.op);
        EXPECT_TRUE(sameBytes(hit.output, reference.output))
            << c.model << "/" << engine::opName(c.op);
        EXPECT_EQ(hit.labels, miss.labels);
        EXPECT_EQ(hit.labels, reference.labels);
        const Server::Stats stats = cached.stats();
        EXPECT_EQ(stats.cacheHits, 1u)
            << c.model << "/" << engine::opName(c.op);
        EXPECT_EQ(stats.cacheMisses, 1u);
    }
}

TEST_F(ServeCacheTest, NonBinaryInputsCacheThroughTheFloatKey)
{
    ModelRegistry registry(dir_);
    putRbm(registry, "m", 3);
    ServerConfig config;
    config.cacheBytes = 1 << 20;
    Server server(registry, config);

    Request req = makeRequest("m", Op::Featurize, 4, 21);
    req.input(0, 0) = 0.25f;  // not a bit: forces the float-bytes key
    const Response miss = std::move(server.serve({req}).front());
    const Response hit = std::move(server.serve({req}).front());
    ASSERT_TRUE(hit.status.ok());
    EXPECT_TRUE(sameBytes(hit.output, miss.output));
    EXPECT_EQ(server.stats().cacheHits, 1u);

    // A single flipped bit in an otherwise identical request must key
    // differently -- for both the binary and the float domains.
    Request other = req;
    other.input(0, 0) = 1.0f;
    server.serve({other});
    EXPECT_EQ(server.stats().cacheHits, 1u);
    EXPECT_EQ(server.stats().cacheMisses, 2u);
}

// --------------------------------------------------------- eviction

TEST_F(ServeCacheTest, EvictionRespectsTheByteBudget)
{
    ModelRegistry registry(dir_);
    putRbm(registry, "m", 4);
    ServerConfig config;
    // Room for only a few 3x17 featurize responses.
    config.cacheBytes = 2048;
    Server server(registry, config);

    for (std::uint64_t seed = 0; seed < 24; ++seed)
        ASSERT_TRUE(server
                        .serve({makeRequest("m", Op::Featurize, 3,
                                            1000 + seed)})
                        .front()
                        .status.ok());
    const Server::Stats stats = server.stats();
    EXPECT_LE(stats.cacheBytes, config.cacheBytes);
    EXPECT_GT(stats.cacheEvictions, 0u);

    // Whatever survived still replays the right bytes.
    const Request last = makeRequest("m", Op::Featurize, 3, 1023);
    const Response again = std::move(server.serve({last}).front());
    Server plain(registry);
    const Response reference =
        std::move(plain.serve({last}).front());
    EXPECT_TRUE(sameBytes(again.output, reference.output));
}

TEST_F(ServeCacheTest, OversizedResponseIsServedButNeverCached)
{
    ModelRegistry registry(dir_);
    putRbm(registry, "m", 5);
    ServerConfig config;
    config.cacheBytes = 64;  // smaller than any response entry
    Server server(registry, config);

    const Request req = makeRequest("m", Op::Featurize, 4, 31);
    ASSERT_TRUE(server.serve({req}).front().status.ok());
    ASSERT_TRUE(server.serve({req}).front().status.ok());
    const Server::Stats stats = server.stats();
    EXPECT_EQ(stats.cacheHits, 0u);
    EXPECT_EQ(stats.cacheBytes, 0u);
}

// ------------------------------------------- stamp-keyed invalidation

TEST_F(ServeCacheTest, RegistryPutOverwriteInvalidates)
{
    ModelRegistry registry(dir_);
    putRbm(registry, "m", 6);
    ServerConfig config;
    config.cacheBytes = 1 << 20;
    Server server(registry, config);

    const Request req = makeRequest("m", Op::Reconstruct, 4, 41);
    const Response before = std::move(server.serve({req}).front());
    EXPECT_EQ(server.stats().cacheHits, 0u);

    // New parameters under the same name: the stamp changes, so the
    // old entry stops matching -- the next serve must re-execute.
    putRbm(registry, "m", 60);
    const Response after = std::move(server.serve({req}).front());
    ASSERT_TRUE(after.status.ok());
    EXPECT_EQ(server.stats().cacheHits, 0u);
    EXPECT_FALSE(sameBytes(after.output, before.output));

    // And the new model's responses cache under the new stamp.
    const Response replay = std::move(server.serve({req}).front());
    EXPECT_EQ(server.stats().cacheHits, 1u);
    EXPECT_TRUE(sameBytes(replay.output, after.output));
}

TEST_F(ServeCacheTest, DirectArchiveOverwriteInvalidates)
{
    ModelRegistry registry(dir_);
    putRbm(registry, "m", 7);
    ServerConfig config;
    config.cacheBytes = 1 << 20;
    Server server(registry, config);

    const Request req = makeRequest("m", Op::Featurize, 3, 51);
    const Response before = std::move(server.serve({req}).front());

    // Overwrite the archive behind the registry's back (a training
    // process streaming checkpoints): revalidation reloads, and the
    // reloaded stamp keys fresh entries.
    rbm::Checkpoint next;
    next.meta.backend = "cd";
    next.model = randomRbm(kDim, 17, 70);
    rbm::saveCheckpoint(next, registry.pathFor("m"));

    const Response after = std::move(server.serve({req}).front());
    ASSERT_TRUE(after.status.ok());
    EXPECT_EQ(server.stats().cacheHits, 0u);
    EXPECT_FALSE(sameBytes(after.output, before.output));
}

TEST_F(ServeCacheTest, PromoteInvalidates)
{
    ModelRegistry registry(dir_);
    putRbm(registry, "m", 8);
    ServerConfig config;
    config.cacheBytes = 1 << 20;
    Server server(registry, config);

    const Request req = makeRequest("m", Op::Reconstruct, 4, 61);
    const Response before = std::move(server.serve({req}).front());

    // Publish a candidate through the canary gate; lenient tolerance
    // so random-vs-random passes and the swap actually happens.
    rbm::Checkpoint cand;
    cand.meta.backend = "cd";
    cand.model = randomRbm(kDim, 17, 80);
    const std::string candPath =
        (fs::path(dir_) / "cand.ckpt").string();
    rbm::saveCheckpoint(cand, candPath);
    const auto promoted =
        engine::promoteCandidate(registry, "m", candPath, 1e9, 64, 1);
    ASSERT_TRUE(promoted.ok());
    ASSERT_TRUE(promoted.value().promoted);

    const Response after = std::move(server.serve({req}).front());
    ASSERT_TRUE(after.status.ok());
    EXPECT_EQ(server.stats().cacheHits, 0u);
    EXPECT_FALSE(sameBytes(after.output, before.output));
}

TEST_F(ServeCacheTest, LegacyUnstampedArchiveNeverHits)
{
    ModelRegistry registry(dir_);
    putRbm(registry, "m", 9);

    // Strip the integrity trailer the way a pre-trailer writer would
    // have produced the archive: no checksum line, no "trailer crc64"
    // meta entry, meta count decremented.
    const std::string file = registry.pathFor("m");
    std::string bytes;
    {
        std::ifstream is(file, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        bytes = os.str();
    }
    const std::size_t tail = bytes.rfind("checksum crc64 ");
    ASSERT_NE(tail, std::string::npos);
    bytes.resize(tail);
    const std::size_t decl = bytes.find("trailer crc64\n");
    ASSERT_NE(decl, std::string::npos);
    bytes.erase(decl, std::string("trailer crc64\n").size());
    const std::size_t meta = bytes.find("section meta ");
    ASSERT_NE(meta, std::string::npos);
    const std::size_t countAt =
        meta + std::string("section meta ").size();
    const std::size_t countEnd = bytes.find('\n', countAt);
    const int count =
        std::stoi(bytes.substr(countAt, countEnd - countAt));
    bytes = bytes.substr(0, countAt) + std::to_string(count - 1) +
            bytes.substr(countEnd);
    {
        std::ofstream os(file, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }
    registry.evict("m");

    ServerConfig config;
    config.cacheBytes = 1 << 20;
    Server server(registry, config);
    const Request req = makeRequest("m", Op::Featurize, 3, 71);
    const Response first = std::move(server.serve({req}).front());
    const Response second = std::move(server.serve({req}).front());
    ASSERT_TRUE(first.status.ok());
    ASSERT_TRUE(second.status.ok());
    EXPECT_TRUE(sameBytes(first.output, second.output));
    const Server::Stats stats = server.stats();
    EXPECT_EQ(stats.cacheHits, 0u);  // no stamp, no sound key
    EXPECT_EQ(stats.cacheBytes, 0u);
    EXPECT_EQ(stats.cacheMisses, 2u);
}

// ------------------------------------------- partial-hit coalescing

TEST_F(ServeCacheTest, PartialHitGroupsExecuteOnlyTheMisses)
{
    ModelRegistry registry(dir_);
    putRbm(registry, "m", 10);
    ServerConfig config;
    config.cacheBytes = 1 << 20;
    Server server(registry, config);

    const Request warm = makeRequest("m", Op::Featurize, 4, 81);
    const Response warmRes = std::move(server.serve({warm}).front());
    const std::size_t rowsAfterWarm = server.stats().rows;

    // One warm (hit) and one cold (miss) request in a single flush:
    // the hit resolves before grouping, so the kernels see only the
    // cold rows.
    const Request cold = makeRequest("m", Op::Featurize, 3, 82);
    auto responses = server.serve({warm, cold});
    ASSERT_TRUE(responses[0].status.ok());
    ASSERT_TRUE(responses[1].status.ok());
    EXPECT_TRUE(sameBytes(responses[0].output, warmRes.output));
    const Server::Stats stats = server.stats();
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(stats.rows, rowsAfterWarm + 3);  // cold rows only

    // The cold response must match an uncached server bit for bit.
    Server plain(registry);
    const Response reference =
        std::move(plain.serve({cold}).front());
    EXPECT_TRUE(sameBytes(responses[1].output, reference.output));
}

TEST_F(ServeCacheTest, DuplicateRequestsInOneFlushStayConsistent)
{
    ModelRegistry registry(dir_);
    putRbm(registry, "m", 11);
    ServerConfig config;
    config.cacheBytes = 1 << 20;
    Server server(registry, config);

    const Request req = makeRequest("m", Op::Reconstruct, 3, 91);
    auto twice = server.serve({req, req});
    ASSERT_TRUE(twice[0].status.ok());
    ASSERT_TRUE(twice[1].status.ok());
    EXPECT_TRUE(sameBytes(twice[0].output, twice[1].output));

    // Both missed (they flushed together), one entry was inserted,
    // and a later serve hits it.
    const Response replay = std::move(server.serve({req}).front());
    EXPECT_TRUE(sameBytes(replay.output, twice[0].output));
    EXPECT_EQ(server.stats().cacheHits, 1u);
}

// -------------------------------------- packed gather & group slots

TEST_F(ServeCacheTest, ServedBytesMatchTheModelReferenceOnBothPlanes)
{
    ModelRegistry registry(dir_);
    putRbm(registry, "m", 12);
    const auto model = registry.get("m");
    ServerConfig config;
    config.maxBatchRows = 5;  // a chunk boundary cuts the last request
    Server server(registry, config);

    for (const Op op : {Op::Featurize, Op::Reconstruct}) {
        // Two mixed-size coalesced groups (the last submit crosses
        // maxBatchRows and flushes all three): all binary, which runs
        // on the packed plane, and one holding a non-binary row, which
        // takes the whole group onto the float plane.
        Request fuzzy = makeRequest("m", op, 2, 15);
        fuzzy.input(1, 2) = 0.5f;
        const std::vector<Request> binary = {makeRequest("m", op, 2, 13),
                                             makeRequest("m", op, 2, 14),
                                             makeRequest("m", op, 3, 16)};
        const std::vector<Request> mixed = {binary[0], fuzzy, binary[2]};
        for (const std::vector<Request> &batch : {binary, mixed}) {
            const std::size_t groups = server.stats().groups;
            const auto served = server.serve(batch);
            EXPECT_EQ(server.stats().groups, groups + 1);
            for (std::size_t i = 0; i < batch.size(); ++i) {
                ASSERT_TRUE(served[i].status.ok());
                linalg::Matrix reference;
                engine::BatchScratch scratch;
                if (op == Op::Featurize) {
                    model->featurizeRows(batch[i].input, reference,
                                         scratch);
                } else {
                    std::vector<Rng> rngs;
                    for (std::size_t r = 0; r < batch[i].input.rows(); ++r)
                        rngs.push_back(Rng::stream(batch[i].seed, r));
                    model->reconstructRows(batch[i].input, rngs.data(),
                                           reference, scratch);
                }
                EXPECT_TRUE(sameBytes(served[i].output, reference))
                    << engine::opName(op) << " request " << i << " of "
                    << batch.size();
            }
        }
    }
}

TEST_F(ServeCacheTest, GroupSlotsStopGrowingInSteadyState)
{
    ModelRegistry registry(dir_);
    putRbm(registry, "a", 16);
    putRbm(registry, "b", 17);
    Server server(registry);

    const auto mixedFlush = [&] {
        server.serve({makeRequest("a", Op::Featurize, 2, 1),
                      makeRequest("b", Op::Featurize, 2, 2),
                      makeRequest("a", Op::Reconstruct, 2, 3)});
    };
    mixedFlush();
    const std::size_t grown = server.stats().groupResizes;
    EXPECT_EQ(grown, 3u);  // three distinct (model, op) slots
    for (int i = 0; i < 5; ++i)
        mixedFlush();
    // Same traffic shape, zero further slot growth or gather resizes.
    EXPECT_EQ(server.stats().groupResizes, grown);
}

TEST_F(ServeCacheTest, ShadowExecutionNeverTouchesTheCache)
{
    // The live-canary shadow runs the candidate beside the incumbent;
    // only the incumbent's bytes may land in (or be served from) the
    // response cache.  A cache hit resolves before grouping, so the
    // replayed request must not shadow either.
    ModelRegistry registry(dir_);
    putRbm(registry, "m", 16);
    const std::string cand = dir_ + "/cand.rbm";
    rbm::Checkpoint ckpt;
    ckpt.meta.backend = "cd";
    ckpt.meta.epoch = 2;
    ckpt.model = randomRbm(kDim, 17, 16);  // identical weights
    rbm::saveCheckpoint(ckpt, cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());

    ServerConfig config;
    config.cacheBytes = 1 << 20;
    config.canary.model = "m";
    config.canary.fraction = 1.0;
    config.canary.minShadows = 1u << 20;  // observe, never promote
    config.canary.maxDivergence = 1e9;    // never quarantine
    Server server(registry, config);

    const Request req = makeRequest("m", Op::Reconstruct, 3, 7);
    const auto first = server.serve({req});
    ASSERT_TRUE(first[0].status.ok());
    EXPECT_EQ(server.stats().canaryShadows, 1u);
    EXPECT_EQ(server.stats().cacheMisses, 1u);

    const auto replay = server.serve({req});
    ASSERT_TRUE(replay[0].status.ok());
    EXPECT_TRUE(sameBytes(replay[0].output, first[0].output));
    EXPECT_EQ(server.stats().cacheHits, 1u);
    // The hit resolved pre-group: no second shadow, no kernel work.
    EXPECT_EQ(server.stats().canaryShadows, 1u);
    EXPECT_EQ(server.stats().canaryQuarantines, 0u);
    EXPECT_EQ(server.stats().canaryPromotions, 0u);
}

// ------------------------------------------------- copyBits primitive

TEST(CopyBits, WordAlignedAndMisalignedRuns)
{
    for (const std::size_t srcBit : {0u, 1u, 7u, 63u, 64u, 65u}) {
        for (const std::size_t dstBit : {0u, 3u, 63u, 64u, 70u}) {
            for (const std::size_t count : {1u, 17u, 64u, 129u, 200u}) {
                std::vector<std::uint64_t> src(8), dst(8), expect(8);
                Rng rng(srcBit * 1000 + dstBit * 10 + count);
                for (auto &w : src)
                    w = rng.next();
                for (std::size_t i = 0; i < dst.size(); ++i)
                    dst[i] = ~src[i];
                expect = dst;
                for (std::size_t i = 0; i < count; ++i) {
                    const bool bit =
                        (src[(srcBit + i) / 64] >>
                         ((srcBit + i) % 64)) & 1u;
                    const std::size_t at = dstBit + i;
                    if (bit)
                        expect[at / 64] |= std::uint64_t{1} << (at % 64);
                    else
                        expect[at / 64] &=
                            ~(std::uint64_t{1} << (at % 64));
                }
                linalg::copyBits(dst.data(), dstBit, src.data(), srcBit,
                                 count);
                EXPECT_EQ(dst, expect)
                    << "src+" << srcBit << " dst+" << dstBit << " n"
                    << count;
            }
        }
    }
}

TEST(CopyBits, BitMatrixRowCopyMatchesUnpack)
{
    linalg::BitMatrix a(3, 70);
    Rng rng(99);
    linalg::Vector row(70);
    for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t i = 0; i < 70; ++i)
            row[i] = rng.bernoulli(0.5) ? 1.0f : 0.0f;
        a.packRowFrom(r, row.data());
    }
    linalg::BitMatrix b(3, 70);
    for (std::size_t r = 0; r < a.rows(); ++r)
        b.copyRowFrom(r, a, a.rows() - 1 - r);
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t i = 0; i < 70; ++i)
            EXPECT_EQ(b.test(r, i), a.test(a.rows() - 1 - r, i));
}
