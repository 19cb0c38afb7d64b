/**
 * @file
 * Fault-tolerance tests: checkpoint integrity trailers, crash-safe
 * publish (via util::FaultInjector), registry last-known-good
 * degradation, canary-gated promote/rollback, and the serving path's
 * error containment.
 *
 * The overarching claims under test:
 *  - a crash at any publish instant leaves the old complete archive
 *    (or the new complete one), never a torn file that loads;
 *  - truncation anywhere in an archive is rejected by the trailer;
 *  - a serving registry degrades to its cached last-good model when
 *    the on-disk archive goes bad, and recovers once it is good again;
 *  - promote gates on the canary and rolls back without touching the
 *    incumbent;
 *  - none of this moves a single served bit: a request's output
 *    depends only on the model parameters and its own seed.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "engine/server.hpp"
#include "rbm/serialize.hpp"
#include "util/checksum.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"

using namespace ising;
using engine::ModelRegistry;
using engine::Op;
using engine::Request;
using engine::Response;
using engine::Server;
using engine::StatusCode;
using rbm::Checkpoint;
using util::Rng;

namespace {

namespace fs = std::filesystem;

/**
 * An RBM that copies its input: strong diagonal weights latch each
 * hidden unit to its visible partner, so reconstruction error on any
 * binary probe is near zero.  The canary can tell it apart from a
 * model that ignores its input.
 */
rbm::Rbm
copyRbm(std::size_t dim, float w = 16.0f)
{
    rbm::Rbm model(dim, dim);
    for (std::size_t i = 0; i < dim; ++i) {
        model.weights()(i, i) = w;
        model.visibleBias()[i] = -w / 2;
        model.hiddenBias()[i] = -w / 2;
    }
    return model;
}

/** Zero-weight model: reconstructs 0.5 regardless of input. */
rbm::Rbm
blankRbm(std::size_t dim)
{
    return rbm::Rbm(dim, dim);
}

Checkpoint
makeCkpt(rbm::Rbm model, int epoch)
{
    Checkpoint ckpt;
    ckpt.meta.name = "ft";
    ckpt.meta.backend = "cd";
    ckpt.meta.seed = 5;
    ckpt.meta.epoch = epoch;
    ckpt.model = std::move(model);
    return ckpt;
}

/** Seeded binary rows (rows x dim in {0, 1}): the probe corpus's. */
linalg::Matrix
binaryRows(std::size_t rows, std::size_t dim, std::uint64_t seed)
{
    return engine::probeRequests(dim, "m", Op::Reconstruct, 1, rows, 0,
                                 seed)
        .front()
        .input;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool
sameBytes(const linalg::Matrix &a, const linalg::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

class FaultToleranceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        util::FaultInjector::instance().reset();
        dir_ = (fs::temp_directory_path() /
                ("isingrbm_test_fault_" + std::to_string(::getpid()) +
                 "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()->name()))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void
    TearDown() override
    {
        util::FaultInjector::instance().reset();
        fs::remove_all(dir_);
    }

    std::string
    path(const std::string &file) const
    {
        return (fs::path(dir_) / file).string();
    }

    std::string dir_;
};

// ------------------------------------------------------ CRC-64 basics

TEST(Crc64, MatchesKnownVector)
{
    // CRC-64/XZ check value for "123456789".
    EXPECT_EQ(util::crc64("123456789"), 0x995DC9BBDF1939FAull);
    EXPECT_EQ(util::crc64Hex(0x995DC9BBDF1939FAull),
              "995dc9bbdf1939fa");
    std::uint64_t value = 0;
    ASSERT_TRUE(util::parseCrc64Hex("995dc9bbdf1939fa", value));
    EXPECT_EQ(value, 0x995DC9BBDF1939FAull);
    EXPECT_FALSE(util::parseCrc64Hex("995dc9bbdf1939f", value));
    EXPECT_FALSE(util::parseCrc64Hex("995dc9bbdf1939fax", value));
}

TEST(Crc64, IncrementalMatchesOneShot)
{
    const std::string text = "incremental checksum equivalence";
    util::Crc64 crc;
    for (char c : text)
        crc.update(&c, 1);
    EXPECT_EQ(crc.value(), util::crc64(text));
}

TEST(Crc64, SlicedMatchesBitwiseDefinitionAtAnyLengthAndOffset)
{
    // CRC-64/XZ one bit at a time, straight from its definition.
    const auto reference = [](const unsigned char *p, std::size_t n) {
        std::uint64_t crc = ~0ull;
        for (std::size_t i = 0; i < n; ++i) {
            crc ^= p[i];
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc >> 1) ^ (0xC96C5795D7870F42ull & (0 - (crc & 1)));
        }
        return ~crc;
    };
    const auto *check = reinterpret_cast<const unsigned char *>("123456789");
    ASSERT_EQ(reference(check, 9), 0x995DC9BBDF1939FAull);

    util::Rng rng(99);
    std::vector<unsigned char> bytes(300);
    for (unsigned char &b : bytes)
        b = static_cast<unsigned char>(rng.next());
    // Every start alignment, odd and even lengths on both sides of the
    // 8-byte stride.
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t n = 0; offset + n <= bytes.size(); n += 1 + n / 8)
            ASSERT_EQ(util::crc64(std::string_view(
                          reinterpret_cast<const char *>(&bytes[offset]), n)),
                      reference(&bytes[offset], n))
                << "offset " << offset << ", length " << n;
    // A split anywhere folds to the one-pass value.
    for (std::size_t split = 0; split <= 37; ++split) {
        util::Crc64 crc;
        crc.update(bytes.data(), split);
        crc.update(bytes.data() + split, 37 - split);
        EXPECT_EQ(crc.value(), reference(bytes.data(), 37)) << split;
    }
}

// --------------------------------------------- trailer write + verify

TEST_F(FaultToleranceTest, FileRoundTripCarriesVerifiedTrailer)
{
    const std::string file = path("m.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 3), file);

    const std::string bytes = slurp(file);
    ASSERT_NE(bytes.find("trailer crc64\n"), std::string::npos);
    ASSERT_NE(bytes.find("checksum crc64 "), std::string::npos);

    const auto trailer = rbm::readArchiveTrailer(file);
    ASSERT_TRUE(trailer.has_value());
    const std::size_t at = bytes.rfind("checksum crc64 ");
    EXPECT_EQ(*trailer, util::crc64(
                            std::string_view(bytes).substr(0, at)));

    const Checkpoint back = rbm::loadCheckpointFile(file);
    EXPECT_EQ(back.meta.epoch, 3);
    EXPECT_EQ(back.meta.trailer, "crc64");
}

TEST_F(FaultToleranceTest, TruncationAtEveryLineBoundaryIsRejected)
{
    const std::string file = path("m.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(4), 1), file);
    const std::string bytes = slurp(file);

    // Every prefix ending at a line boundary -- including the one cut
    // exactly before the trailer line, which is structurally a
    // complete archive -- must fail to load.
    const std::string cut = path("cut.ckpt");
    std::size_t boundaries = 0;
    for (std::size_t at = bytes.find('\n'); at != std::string::npos;
         at = bytes.find('\n', at + 1)) {
        if (at + 1 == bytes.size())
            break;  // the full file, which does load
        spit(cut, bytes.substr(0, at + 1));
        std::string error;
        EXPECT_FALSE(rbm::tryLoadCheckpointFile(cut, &error).has_value())
            << "prefix of " << at + 1 << " bytes loaded";
        ++boundaries;
    }
    EXPECT_GT(boundaries, 5u);
}

TEST_F(FaultToleranceTest, CorruptedByteFailsTheChecksum)
{
    const std::string file = path("m.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(4), 1), file);
    std::string bytes = slurp(file);

    // Flip one digit inside the model payload: structure stays valid,
    // only the checksum can catch it.
    const std::size_t at = bytes.find("8\n");  // a weight digit: 16 -> 18
    ASSERT_NE(at, std::string::npos);
    std::string corrupt = bytes;
    corrupt[at] = '9';
    spit(file, corrupt);
    std::string error;
    EXPECT_FALSE(rbm::tryLoadCheckpointFile(file, &error).has_value());
    EXPECT_NE(error.find("checksum mismatch"), std::string::npos);
}

TEST_F(FaultToleranceTest, LegacyUncheksummedArchiveStillLoads)
{
    const std::string file = path("m.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(4), 7), file);
    std::string bytes = slurp(file);

    // Reconstruct what a pre-trailer writer produced: drop the
    // checksum line and the "trailer crc64" meta entry, and decrement
    // the declared meta count.
    const std::size_t tail = bytes.rfind("checksum crc64 ");
    ASSERT_NE(tail, std::string::npos);
    bytes.resize(tail);
    const std::size_t decl = bytes.find("trailer crc64\n");
    ASSERT_NE(decl, std::string::npos);
    bytes.erase(decl, std::string("trailer crc64\n").size());
    const std::size_t meta = bytes.find("section meta ");
    ASSERT_NE(meta, std::string::npos);
    const std::size_t countAt = meta + std::string("section meta ").size();
    const std::size_t countEnd = bytes.find('\n', countAt);
    const int count =
        std::stoi(bytes.substr(countAt, countEnd - countAt));
    bytes = bytes.substr(0, countAt) + std::to_string(count - 1) +
            bytes.substr(countEnd);

    spit(file, bytes);
    const auto back = rbm::tryLoadCheckpointFile(file);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->meta.epoch, 7);
    EXPECT_EQ(back->meta.trailer, "");
    EXPECT_FALSE(rbm::readArchiveTrailer(file).has_value());
}

// ------------------------------------------------- crash-safe publish

TEST_F(FaultToleranceTest, CrashBeforeRenameLeavesOldArchiveIntact)
{
    // Default (fork) death-test style: the forked child inherits the
    // written archive and the injector configuration stays in the
    // child.  This test runs before any test that spawns pool threads.
    const std::string file = path("m.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(4), 1), file);
    const std::string before = slurp(file);

    for (const char *point :
         {"checkpoint.before-write", "checkpoint.after-temp-write",
          "checkpoint.before-rename"}) {
        EXPECT_EXIT(
            {
                util::FaultInjector::instance().reset();
                util::FaultInjector::instance().configure(
                    std::string("crash:") + point);
                rbm::saveCheckpoint(makeCkpt(copyRbm(4), 2), file);
            },
            ::testing::ExitedWithCode(util::FaultInjector::kCrashExitCode),
            "")
            << point;
        // The old archive is untouched and still resumable.
        EXPECT_EQ(slurp(file), before) << point;
        const auto back = rbm::tryLoadCheckpointFile(file);
        ASSERT_TRUE(back.has_value()) << point;
        EXPECT_EQ(back->meta.epoch, 1) << point;
    }

    // A crash *after* the rename leaves the new complete archive.
    EXPECT_EXIT(
        {
            util::FaultInjector::instance().reset();
            util::FaultInjector::instance().configure(
                "crash:checkpoint.after-rename");
            rbm::saveCheckpoint(makeCkpt(copyRbm(4), 2), file);
        },
        ::testing::ExitedWithCode(util::FaultInjector::kCrashExitCode),
        "");
    const auto back = rbm::tryLoadCheckpointFile(file);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->meta.epoch, 2);
}

TEST_F(FaultToleranceTest, LiveCanaryCrashMatrixKeepsArchiveAndBytes)
{
    // Kill the server at every crash point of the live-canary path --
    // staging, the gate's promote decision, and both sides of the
    // archive publish -- while live traffic flows.  At each instant
    // the on-disk archive must be either the old complete incumbent or
    // the new complete candidate (never torn), and a restarted server
    // must serve the exact baseline bytes.  Fork-style death tests:
    // each leg builds registry + server (and its worker pool) in the
    // forked child, so this must run before any test that spawns pool
    // threads in the parent process.
    constexpr std::size_t kDim = 6;
    {
        ModelRegistry setup(dir_);
        setup.put("m", makeCkpt(copyRbm(kDim), 1));
    }
    const std::string archive = ModelRegistry(dir_).pathFor("m");
    const std::string before = slurp(archive);
    // The candidate carries the incumbent's exact weights (epoch 2),
    // so served bytes are invariant whichever archive survives.
    const std::string cand = path("cand.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(kDim), 2), cand);

    const auto corpus = [] {
        std::vector<Request> live;
        for (std::size_t q = 0; q < 8; ++q) {
            Request req;
            req.model = "m";
            req.op = Op::Reconstruct;
            req.seed = 1000 + q;
            req.input = binaryRows(2, kDim, req.seed);
            live.push_back(std::move(req));
        }
        return live;
    };

    const auto liveLoop = [&](const char *point) {
        util::FaultInjector::instance().reset();
        util::FaultInjector::instance().configure(
            std::string("crash:") + point);
        ModelRegistry registry(dir_);
        if (!registry.stageCandidate("m", cand).ok())
            return;  // only crash:canary.stage dies in here
        engine::ServerConfig config;
        config.canary.model = "m";
        config.canary.fraction = 1.0;
        config.canary.minShadows = 2;
        Server server(registry, config);
        for (Request &req : corpus())
            server.serve({std::move(req)});
    };

    // Before the publish instant the incumbent archive must be
    // byte-for-byte untouched...
    for (const char *point : {"canary.stage", "canary.before-promote",
                              "promote.before-publish"}) {
        EXPECT_EXIT(liveLoop(point),
                    ::testing::ExitedWithCode(
                        util::FaultInjector::kCrashExitCode),
                    "")
            << point;
        EXPECT_EQ(slurp(archive), before) << point;
        const auto back = rbm::tryLoadCheckpointFile(archive);
        ASSERT_TRUE(back.has_value()) << point;
        EXPECT_EQ(back->meta.epoch, 1) << point;
    }

    // ...and after it the new complete archive must be what loads.
    for (const char *point :
         {"promote.after-publish", "canary.after-promote"}) {
        EXPECT_EXIT(liveLoop(point),
                    ::testing::ExitedWithCode(
                        util::FaultInjector::kCrashExitCode),
                    "")
            << point;
        const auto back = rbm::tryLoadCheckpointFile(archive);
        ASSERT_TRUE(back.has_value()) << point;
        EXPECT_EQ(back->meta.epoch, 2) << point;
        spit(archive, before);  // rewind for the next leg
    }

    // All crash legs done (thread-spawning is safe from here on).
    // The canary-off baseline...
    std::vector<Response> expected;
    {
        ModelRegistry fresh(dir_);
        Server plain(fresh);
        expected = plain.serve(corpus());
    }
    // ...is exactly what a restarted server serves while the same
    // live loop runs to completion and promotes.
    util::FaultInjector::instance().reset();
    ModelRegistry recovered(dir_);
    ASSERT_TRUE(recovered.stageCandidate("m", cand).ok());
    engine::ServerConfig config;
    config.canary.model = "m";
    config.canary.fraction = 1.0;
    config.canary.minShadows = 2;
    Server server(recovered, config);
    auto live = corpus();
    for (std::size_t q = 0; q < live.size(); ++q) {
        const auto got = server.serve({std::move(live[q])});
        ASSERT_TRUE(got[0].status.ok()) << got[0].status.toString();
        EXPECT_TRUE(sameBytes(got[0].output, expected[q].output)) << q;
    }
    EXPECT_GE(server.stats().canaryPromotions, 1u);
    const auto promoted = rbm::tryLoadCheckpointFile(archive);
    ASSERT_TRUE(promoted.has_value());
    EXPECT_EQ(promoted->meta.epoch, 2);
}

TEST_F(FaultToleranceTest, InjectedTruncationProducesARejectedArchive)
{
    const std::string file = path("torn.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(4), 1), file);
    const std::uintmax_t full = fs::file_size(file);

    util::FaultInjector::instance().configure(
        "truncate:torn.ckpt=" + std::to_string(full / 2));
    rbm::saveCheckpoint(makeCkpt(copyRbm(4), 2), file);
    util::FaultInjector::instance().reset();

    EXPECT_EQ(fs::file_size(file), full / 2);
    std::string error;
    EXPECT_FALSE(rbm::tryLoadCheckpointFile(file, &error).has_value());
    EXPECT_FALSE(error.empty());
}

// --------------------------------- registry degradation and recovery

TEST_F(FaultToleranceTest, RegistryFallsBackToLastGoodAndRecovers)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(5), 1));
    const std::string file = registry.pathFor("m");

    auto first = registry.tryGet("m");
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value()->meta().epoch, 1);

    // The archive goes bad on disk (torn overwrite): the first get
    // fails the reload and quarantines, the second is served inside
    // the backoff window.
    spit(file, slurp(file).substr(0, 40));
    for (int i = 0; i < 2; ++i) {
        auto degraded = registry.tryGet("m");
        ASSERT_TRUE(degraded.ok()) << "fallback get " << i;
        EXPECT_EQ(degraded.value()->meta().epoch, 1);
    }
    EXPECT_EQ(registry.stats().reloadFallbacks, 2u);
    EXPECT_EQ(registry.stats().quarantined, 1u);

    // A complete archive replaces the torn one: the very next get
    // leaves the backoff window and serves it.
    rbm::saveCheckpoint(makeCkpt(copyRbm(5), 9), file);
    auto recovered = registry.tryGet("m");
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered.value()->meta().epoch, 9);
    EXPECT_EQ(registry.stats().quarantined, 0u);
}

TEST_F(FaultToleranceTest, ColdLoadOfCorruptArchiveIsAnError)
{
    ModelRegistry registry(dir_);
    spit(path("bad.ckpt"), "isingrbm-checkpoint v2\ngarbage");
    auto result = registry.tryGet("bad");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::DataLoss);
    EXPECT_GE(registry.stats().loadFailures, 1u);

    auto missing = registry.tryGet("nope");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::NotFound);
}

TEST_F(FaultToleranceTest, SameSizeSameMtimeOverwriteIsStillDetected)
{
    // The stamp race: overwrite the served archive with a different
    // model of identical byte size, then force the mtime back, so
    // (mtime, size) cannot tell them apart -- only the trailer can.
    ModelRegistry registry(dir_);
    rbm::Rbm a(3, 3), b(3, 3);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j) {
            a.weights()(i, j) = 0.25f;
            b.weights()(i, j) = 0.75f;
        }
    registry.put("m", makeCkpt(a, 1));
    const std::string file = registry.pathFor("m");
    const auto mtime = fs::last_write_time(file);
    ASSERT_TRUE(registry.tryGet("m").ok());

    const std::string other = path("other.ckpt");
    Checkpoint overwrite = makeCkpt(b, 1);
    overwrite.meta.name = "m";  // match put()'s stamped name byte-for-byte
    rbm::saveCheckpoint(overwrite, other);
    ASSERT_EQ(fs::file_size(other), fs::file_size(file))
        << "test premise: archives must be byte-size-identical";
    fs::rename(other, file);
    fs::last_write_time(file, mtime);

    auto swapped = registry.tryGet("m");
    ASSERT_TRUE(swapped.ok());
    const auto &model =
        std::get<rbm::Rbm>(swapped.value()->checkpoint().model);
    EXPECT_FLOAT_EQ(model.weights()(0, 0), 0.75f);
}

// --------------------------------------------- server error delivery

TEST_F(FaultToleranceTest, BadRequestsFailTheirFutureNotTheProcess)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(4), 1));
    Server server(registry);

    Request missing;
    missing.model = "ghost";
    missing.op = Op::Featurize;
    missing.input = linalg::Matrix(1, 4);
    Response r1 = server.serve({std::move(missing)}).front();
    EXPECT_EQ(r1.status.code(), StatusCode::NotFound);

    Request badWidth;
    badWidth.model = "m";
    badWidth.op = Op::Featurize;
    badWidth.input = linalg::Matrix(1, 7);
    Response r2 = server.serve({std::move(badWidth)}).front();
    EXPECT_EQ(r2.status.code(), StatusCode::InvalidArgument);

    Request badCount;
    badCount.model = "m";
    badCount.op = Op::Sample;
    badCount.count = 0;
    Response r3 = server.serve({std::move(badCount)}).front();
    EXPECT_EQ(r3.status.code(), StatusCode::InvalidArgument);

    // The server is still alive and serving.
    Request good;
    good.model = "m";
    good.op = Op::Featurize;
    good.input = binaryRows(2, 4, 11);
    Response r4 = server.serve({std::move(good)}).front();
    EXPECT_TRUE(r4.status.ok());
    EXPECT_EQ(r4.output.rows(), 2u);
    EXPECT_EQ(server.stats().rejected, 3u);
    EXPECT_EQ(server.stats().rows, 2u);
}

TEST_F(FaultToleranceTest, RejectedRequestDoesNotPerturbCoalescedBits)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));

    auto reconstruct = [](std::uint64_t seed) {
        Request req;
        req.model = "m";
        req.op = Op::Reconstruct;
        req.input = binaryRows(3, 6, 21);
        req.seed = seed;
        return req;
    };

    Server clean(registry);
    const Response alone = clean.serve({reconstruct(77)}).front();
    ASSERT_TRUE(alone.status.ok());

    Server noisy(registry);
    Request bad;
    bad.model = "m";
    bad.op = Op::Featurize;
    bad.input = linalg::Matrix(2, 9);
    auto mixed = noisy.serve({reconstruct(77), std::move(bad)});
    ASSERT_TRUE(mixed[0].status.ok());
    EXPECT_FALSE(mixed[1].status.ok());
    EXPECT_EQ(alone.output, mixed[0].output);
}

// -------------------------------------------------- promote/rollback

TEST_F(FaultToleranceTest, PromoteGatesOnTheCanary)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));

    // A candidate that ignores its input diverges from the incumbent's
    // reconstruction of the probe and is rolled back.
    const std::string bad = path("bad-candidate.ckpt");
    rbm::saveCheckpoint(makeCkpt(blankRbm(6), 2), bad);
    auto rolled = engine::promoteCandidate(registry, "m", bad, 0.05, 16, 3);
    ASSERT_TRUE(rolled.ok()) << rolled.status().toString();
    EXPECT_FALSE(rolled.value().promoted);
    EXPECT_NE(rolled.value().detail.find("exceeds tolerance"),
              std::string::npos)
        << rolled.value().detail;
    EXPECT_TRUE(registry.candidate("m") == nullptr);
    // The incumbent keeps serving, untouched.
    auto still = registry.tryGet("m");
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(still.value()->meta().epoch, 1);

    // An equivalent candidate passes and swaps in atomically.
    const std::string good = path("good-candidate.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), good);
    auto promoted =
        engine::promoteCandidate(registry, "m", good, 0.05, 16, 3);
    ASSERT_TRUE(promoted.ok()) << promoted.status().toString();
    EXPECT_TRUE(promoted.value().promoted) << promoted.value().detail;
    auto now = registry.tryGet("m");
    ASSERT_TRUE(now.ok());
    EXPECT_EQ(now.value()->meta().epoch, 2);
    // The published archive verifies end to end.
    EXPECT_TRUE(
        rbm::tryLoadCheckpointFile(registry.pathFor("m")).has_value());

    const auto stats = registry.stats();
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_EQ(stats.rollbacks, 1u);
}

TEST_F(FaultToleranceTest, PromoteRejectsTornCandidate)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));

    const std::string torn = path("torn-candidate.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), torn);
    spit(torn, slurp(torn).substr(0, 60));

    auto result = engine::promoteCandidate(registry, "m", torn, 0.05, 16, 3);
    EXPECT_FALSE(result.ok());
    auto still = registry.tryGet("m");
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(still.value()->meta().epoch, 1);
    EXPECT_EQ(registry.stats().rollbacks, 1u);
}

TEST_F(FaultToleranceTest, PromoteWithNoIncumbentSkipsTheCanary)
{
    ModelRegistry registry(dir_);
    const std::string cand = path("cand.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(5), 3), cand);
    // A tolerance no shadow could pass: the gate must not run at all.
    auto result =
        engine::promoteCandidate(registry, "fresh", cand, -1.0, 16, 3);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_TRUE(result.value().promoted);
    EXPECT_NE(result.value().detail.find("canary gate skipped"),
              std::string::npos)
        << result.value().detail;
    auto model = registry.tryGet("fresh");
    ASSERT_TRUE(model.ok());
    EXPECT_EQ(model.value()->meta().epoch, 3);
}

TEST_F(FaultToleranceTest, MidStreamPromoteKeepsServedBitsIdentical)
{
    // Requests served before a promote must match a never-swapped run
    // bit for bit, and requests served after must match a run that
    // always had the new model: the swap moves *when* a model serves,
    // never what bits a request produces.
    const auto probe = binaryRows(3, 6, 33);
    auto reconstruct = [&](std::uint64_t seed) {
        Request req;
        req.model = "m";
        req.op = Op::Reconstruct;
        req.input = probe;
        req.seed = seed;
        return req;
    };

    // Static baselines: one registry pinned to each model.
    ModelRegistry oldOnly(dir_ + "_old");
    oldOnly.put("m", makeCkpt(copyRbm(6, 16.0f), 1));
    Server oldServer(oldOnly);
    const Response oldBits = oldServer.serve({reconstruct(91)}).front();

    ModelRegistry newOnly(dir_ + "_new");
    newOnly.put("m", makeCkpt(copyRbm(6, 24.0f), 2));
    Server newServer(newOnly);
    const Response newBits = newServer.serve({reconstruct(91)}).front();

    // The hot-swapped run.
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6, 16.0f), 1));
    Server server(registry);
    const Response before = server.serve({reconstruct(91)}).front();

    const std::string cand = path("cand.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6, 24.0f), 2), cand);
    auto promoted =
        engine::promoteCandidate(registry, "m", cand, 0.05, 16, 3);
    ASSERT_TRUE(promoted.ok());
    ASSERT_TRUE(promoted.value().promoted);

    const Response after = server.serve({reconstruct(91)}).front();

    ASSERT_TRUE(before.status.ok());
    ASSERT_TRUE(after.status.ok());
    EXPECT_EQ(before.output, oldBits.output);
    EXPECT_EQ(after.output, newBits.output);

    fs::remove_all(dir_ + "_old");
    fs::remove_all(dir_ + "_new");
}

} // namespace
