/**
 * @file
 * Live-canary gate tests: the seeded traffic splitter is a pure
 * function of the request seed; shadow execution never moves a
 * client-visible byte; a clean candidate auto-promotes through the
 * atomic-swap path after its clean streak; a divergent candidate is
 * quarantined with capped backoff while the incumbent (and its
 * archive) keep serving untouched; coalesced groups shadow on the
 * incumbent's own plane and chunking, and a candidate that cannot run
 * the request rows fails before reading them; and per-request
 * deadlines resolve DEADLINE_EXCEEDED before any kernel work, at
 * admission and at flush, without perturbing the requests they were
 * coalesced with.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "engine/server.hpp"
#include "rbm/serialize.hpp"
#include "util/fault.hpp"

using namespace ising;
using engine::ModelRegistry;
using engine::Op;
using engine::Request;
using engine::Response;
using engine::Server;
using engine::ServerConfig;
using engine::StatusCode;
using rbm::Checkpoint;

namespace {

namespace fs = std::filesystem;

/** Input-copying RBM (diagonal latch): near-zero reconstruction
 *  error, so it is distinguishable from a model that ignores input. */
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
    ckpt.meta.name = "canary";
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

/** A @p rows-row reconstruct request on seeded binary probe rows. */
Request
probeRequest(std::uint64_t seed, std::size_t rows, std::size_t dim)
{
    Request req;
    req.model = "m";
    req.op = Op::Reconstruct;
    req.seed = seed;
    req.input = binaryRows(rows, dim, seed);
    return req;
}

/** The same request as the net front end decodes it: wire-packed. */
Request
wirePacked(Request req)
{
    req.packedInput.reset(req.input.rows(), req.input.cols());
    for (std::size_t r = 0; r < req.input.rows(); ++r)
        req.packedInput.packRowFrom(r, req.input.row(r));
    req.packed = true;
    req.input = linalg::Matrix();
    return req;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

class CanaryGateTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        util::FaultInjector::instance().reset();
        dir_ = (fs::temp_directory_path() /
                ("isingrbm_test_canary_" + std::to_string(::getpid()) +
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

    /** The fixed live corpus: reconstruction requests with distinct
     *  seeds (distinct seeds = distinct splitter draws). */
    std::vector<Request>
    corpus(std::size_t n, std::size_t dim) const
    {
        std::vector<Request> out;
        for (std::size_t q = 0; q < n; ++q)
            out.push_back(probeRequest(1000 + q, 2, dim));
        return out;
    }

    std::string dir_;
};

bool
sameBytes(const linalg::Matrix &a, const linalg::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

} // namespace

// ------------------------------------------------- traffic splitter

TEST(CanarySplitter, IsAPureFunctionOfTheSeed)
{
    // Edges: 0 never shadows, 1 always does, out-of-range clamps.
    for (const std::uint64_t seed : {0ull, 1ull, 77ull, ~0ull}) {
        EXPECT_FALSE(engine::canaryShadowSelected(seed, 0.0));
        EXPECT_FALSE(engine::canaryShadowSelected(seed, -0.5));
        EXPECT_TRUE(engine::canaryShadowSelected(seed, 1.0));
        EXPECT_TRUE(engine::canaryShadowSelected(seed, 2.0));
    }
    // Deterministic: the same (seed, fraction) always answers the
    // same -- the property that makes the shadow set independent of
    // arrival interleaving, coalescing shape and worker count.
    for (std::uint64_t seed = 0; seed < 256; ++seed)
        EXPECT_EQ(engine::canaryShadowSelected(seed, 0.3),
                  engine::canaryShadowSelected(seed, 0.3));
    // Monotone in the fraction: a request shadowed at f stays
    // shadowed at every f' > f (raising the dial only adds traffic).
    for (std::uint64_t seed = 0; seed < 256; ++seed) {
        if (engine::canaryShadowSelected(seed, 0.2)) {
            EXPECT_TRUE(engine::canaryShadowSelected(seed, 0.6))
                << seed;
        }
    }
    // The split hits the dialed fraction on a large seed population.
    std::size_t picked = 0;
    for (std::uint64_t seed = 0; seed < 20000; ++seed)
        picked += engine::canaryShadowSelected(seed, 0.25);
    EXPECT_GT(picked, 20000 * 0.20);
    EXPECT_LT(picked, 20000 * 0.30);
}

// ---------------------------------------------- promote / quarantine

TEST_F(CanaryGateTest, StagedCandidateShadowsFromStartUp)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    ServerConfig config;
    config.canary.model = "m";
    config.canary.fraction = 1.0;

    // Gate on, nothing staged: nothing to shadow, so the gate idles.
    {
        Server server(registry, config);
        EXPECT_EQ(server.stats().canaryState, engine::CanaryState::Idle);
    }

    // A candidate staged before start-up is reported as shadowing
    // before any request arrives.
    const std::string cand = path("cand.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());
    {
        Server server(registry, config);
        EXPECT_EQ(server.stats().canaryState,
                  engine::CanaryState::Shadowing);
        EXPECT_EQ(server.stats().canaryShadows, 0u);
    }

    // Gate off: a staged candidate alone does not start it.
    config.canary.fraction = 0.0;
    Server off(registry, config);
    EXPECT_EQ(off.stats().canaryState, engine::CanaryState::Idle);
}

TEST_F(CanaryGateTest, CleanCandidateAutoPromotesAndBytesHold)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));

    // Canary-off baseline first, while the archive is pristine.
    const auto live = corpus(8, 6);
    std::vector<Response> expected;
    {
        ModelRegistry fresh(dir_);
        Server plain(fresh);
        expected = plain.serve(live);
    }

    // The candidate carries the incumbent's exact weights (epoch 2),
    // so every shadow diverges by 0.0 -- and served bytes stay
    // byte-stable across the auto-promote itself.
    const std::string cand = path("cand.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());
    ASSERT_TRUE(registry.candidate("m") != nullptr);
    EXPECT_EQ(registry.candidatePath("m"), cand);

    ServerConfig config;
    config.canary.model = "m";
    config.canary.fraction = 1.0;
    config.canary.minShadows = 4;
    Server server(registry, config);

    std::vector<Response> got;
    for (const Request &req : live)
        got.push_back(std::move(server.serve({req}).front()));
    for (std::size_t q = 0; q < live.size(); ++q) {
        ASSERT_TRUE(got[q].status.ok()) << q;
        EXPECT_TRUE(sameBytes(got[q].output, expected[q].output))
            << "request " << q << " moved bytes under the canary";
    }

    const Server::Stats stats = server.stats();
    EXPECT_GE(stats.canaryShadows, config.canary.minShadows);
    EXPECT_EQ(stats.canaryQuarantines, 0u);
    EXPECT_EQ(stats.canaryPromotions, 1u);
    EXPECT_EQ(stats.canaryState, engine::CanaryState::Promoted);
    EXPECT_EQ(stats.canaryLastDivergence, 0.0);
    EXPECT_GE(registry.stats().promotions, 1u);

    // The swap went through the atomic publish: the archive verifies,
    // a fresh registry loads the candidate, and the staged slot is
    // cleared.
    auto now = registry.tryGet("m");
    ASSERT_TRUE(now.ok());
    EXPECT_EQ(now.value()->meta().epoch, 2);
    EXPECT_TRUE(registry.candidate("m") == nullptr);
    ModelRegistry reopened(dir_);
    auto cold = reopened.tryGet("m");
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(cold.value()->meta().epoch, 2);
}

TEST_F(CanaryGateTest, DivergentCandidateIsQuarantinedNotPromoted)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    const std::string archive = registry.pathFor("m");
    const std::string before = slurp(archive);

    const std::string cand = path("blank.ckpt");
    rbm::saveCheckpoint(makeCkpt(blankRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());

    const auto live = corpus(8, 6);
    std::vector<Response> expected;
    {
        ModelRegistry fresh(dir_);
        Server plain(fresh);
        expected = plain.serve(live);
    }

    ServerConfig config;
    config.canary.model = "m";
    config.canary.fraction = 1.0;
    config.canary.minShadows = 2;
    config.canary.maxDivergence = 0.05;
    config.canary.quarantineMinMs = 60000;  // stay quarantined
    Server server(registry, config);

    std::vector<Response> got;
    for (const Request &req : live)
        got.push_back(std::move(server.serve({req}).front()));
    for (std::size_t q = 0; q < live.size(); ++q) {
        ASSERT_TRUE(got[q].status.ok()) << q;
        EXPECT_TRUE(sameBytes(got[q].output, expected[q].output))
            << "request " << q
            << ": a divergent shadow moved client bytes";
    }

    const Server::Stats stats = server.stats();
    EXPECT_GE(stats.canaryShadows, 1u);
    EXPECT_GE(stats.canaryDivergenceBreaches, 1u);
    EXPECT_EQ(stats.canaryQuarantines, 1u);
    EXPECT_EQ(stats.canaryPromotions, 0u);
    // Quarantined: the long backoff holds it there.
    EXPECT_EQ(stats.canaryState, engine::CanaryState::Quarantined);
    EXPECT_GT(stats.canaryLastDivergence, 0.05);
    EXPECT_GE(registry.stats().rollbacks, 1u);

    // The incumbent archive is byte-for-byte untouched and the
    // incumbent keeps serving.
    EXPECT_EQ(slurp(archive), before);
    auto still = registry.tryGet("m");
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(still.value()->meta().epoch, 1);
}

TEST_F(CanaryGateTest, QuarantineBacksOffThenResumesShadowing)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    const std::string cand = path("blank.ckpt");
    rbm::saveCheckpoint(makeCkpt(blankRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());

    ServerConfig config;
    config.canary.model = "m";
    config.canary.fraction = 1.0;
    config.canary.maxDivergence = 0.05;
    config.canary.quarantineMinMs = 1;
    config.canary.quarantineMaxMs = 2;
    Server server(registry, config);

    const auto live = corpus(6, 6);
    server.serve({live[0]});
    ASSERT_EQ(server.stats().canaryQuarantines, 1u);
    const std::size_t shadowsAfterFirst = server.stats().canaryShadows;

    // Traffic inside the backoff window is not shadowed...
    server.serve({live[1]});
    // ...but once the window lapses shadowing resumes (with a zeroed
    // streak), says so, and the still-divergent candidate re-breaches.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    testing::internal::CaptureStderr();
    server.serve({live[2]});
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("resume shadowing"), std::string::npos) << log;
    const Server::Stats &stats = server.stats();
    EXPECT_GT(stats.canaryShadows, shadowsAfterFirst);
    EXPECT_GE(stats.canaryQuarantines, 2u);
    EXPECT_EQ(stats.canaryPromotions, 0u);
}

TEST_F(CanaryGateTest, LapsedQuarantineWithoutACandidateGoesIdleSilently)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    const std::string cand = path("blank.ckpt");
    rbm::saveCheckpoint(makeCkpt(blankRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());

    ServerConfig config;
    config.canary.model = "m";
    config.canary.fraction = 1.0;
    config.canary.maxDivergence = 0.05;
    config.canary.quarantineMinMs = 1;
    config.canary.quarantineMaxMs = 2;
    Server server(registry, config);

    const auto live = corpus(6, 6);
    server.serve({live[0]});
    ASSERT_EQ(server.stats().canaryState, engine::CanaryState::Quarantined);

    // The stage goes stale during the backoff (promoteStaged refusing a
    // file changed on disk unstages it): when the window lapses there
    // is nothing to shadow, so the gate idles and logs no resume.
    registry.clearCandidate("m");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    testing::internal::CaptureStderr();
    server.serve({live[1]});
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(server.stats().canaryState, engine::CanaryState::Idle);
    EXPECT_EQ(log.find("resume shadowing"), std::string::npos) << log;
}

TEST_F(CanaryGateTest, ObserveOnlyGateNeverPromotes)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    const std::string cand = path("cand.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());

    ServerConfig config;
    config.canary.model = "m";
    config.canary.fraction = 1.0;
    config.canary.minShadows = 2;
    config.canary.autoPromote = false;
    Server server(registry, config);

    for (const Request &req : corpus(6, 6))
        ASSERT_TRUE(server.serve({req}).front().status.ok());

    const Server::Stats stats = server.stats();
    EXPECT_GE(stats.canaryCleanStreak, config.canary.minShadows);
    EXPECT_EQ(stats.canaryPromotions, 0u);
    auto still = registry.tryGet("m");
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(still.value()->meta().epoch, 1);
    EXPECT_TRUE(registry.candidate("m") != nullptr);  // still staged
}

TEST_F(CanaryGateTest, PartialFractionShadowsOnlySelectedSeeds)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    const std::string cand = path("cand.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());

    const double fraction = 0.4;
    const auto live = corpus(16, 6);
    std::size_t selected = 0;
    for (const Request &req : live)
        selected += engine::canaryShadowSelected(req.seed, fraction);
    ASSERT_GT(selected, 0u);
    ASSERT_LT(selected, live.size());

    ServerConfig config;
    config.canary.model = "m";
    config.canary.fraction = fraction;
    config.canary.minShadows = live.size() + 1;  // never promotes here
    Server server(registry, config);
    for (const Request &req : live)
        ASSERT_TRUE(server.serve({req}).front().status.ok());

    // Exactly the splitter-selected requests were shadowed: the gate
    // and the pure function agree request for request.
    EXPECT_EQ(server.stats().canaryShadows, selected);
    EXPECT_EQ(server.stats().canaryPromotions, 0u);
}

TEST_F(CanaryGateTest, CoalescedGroupsShadowOnTheServingPlane)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    const std::string copy = path("copy.ckpt");
    fs::copy_file(registry.pathFor("m"), copy);
    const std::string blank = path("blank.ckpt");
    rbm::saveCheckpoint(makeCkpt(blankRbm(6), 2), blank);

    // Two flushes of one coalesced 7-row group each over a 5-row
    // kernel batch, so a chunk boundary cuts through the last request
    // (whose submit crosses maxBatchRows and flushes the group).  The
    // first group is all binary, wire-packed beside float rows: the
    // packed plane.  The second holds a non-binary entry: the float
    // plane.
    std::vector<std::vector<Request>> flushes = {
        {wirePacked(probeRequest(2000, 2, 6)), probeRequest(2001, 2, 6),
         wirePacked(probeRequest(2002, 3, 6))},
        {probeRequest(2003, 2, 6), wirePacked(probeRequest(2004, 2, 6)),
         probeRequest(2005, 3, 6)},
    };
    flushes[1][2].input(1, 4) = 0.5f;
    const std::size_t members = flushes[0].size() + flushes[1].size();

    ServerConfig config;
    config.maxBatchRows = 5;
    std::vector<Response> expected;
    {
        Server plain(registry, config);
        for (const auto &flush : flushes)
            for (Response &res : plain.serve(flush))
                expected.push_back(std::move(res));
    }

    // Serve both flushes with @p candidate shadowing @p fraction of
    // the traffic (observe-only; one breach ends the gate): the client
    // bytes must equal the canary-off server's either way.
    const auto serveGated = [&](const std::string &candidate,
                                double fraction) {
        EXPECT_TRUE(registry.stageCandidate("m", candidate).ok());
        ServerConfig gated = config;
        gated.canary.model = "m";
        gated.canary.fraction = fraction;
        gated.canary.autoPromote = false;
        gated.canary.quarantineMinMs = 60000;
        Server server(registry, gated);
        std::size_t k = 0;
        for (const auto &flush : flushes)
            for (const Response &res : server.serve(flush)) {
                EXPECT_TRUE(res.status.ok()) << k;
                EXPECT_TRUE(sameBytes(res.output, expected[k].output))
                    << "request " << k << " moved bytes under the canary";
                ++k;
            }
        EXPECT_EQ(server.stats().groups, 2u);  // one group per flush
        return server.stats();
    };

    // A byte-copy candidate shadows every member at divergence 0; the
    // kernel-batch count stays the incumbent's own (5 + 2 rows twice).
    const Server::Stats copied = serveGated(copy, 1.0);
    EXPECT_EQ(copied.canaryShadows, members);
    EXPECT_EQ(copied.canaryDivergenceNano.count(), members);
    EXPECT_EQ(copied.canaryDivergenceNano.max(), 0u);
    EXPECT_EQ(copied.canaryLastDivergence, 0.0);
    EXPECT_EQ(copied.canaryQuarantines, 0u);
    EXPECT_EQ(copied.kernelBatches, 4u);
    EXPECT_EQ(copied.shadowLatencyNs.count(), 2u);

    // At a partial fraction only the splitter-selected seeds shadow.
    std::size_t selected = 0;
    for (const auto &flush : flushes)
        for (const Request &req : flush)
            selected += engine::canaryShadowSelected(req.seed, 0.4);
    ASSERT_GT(selected, 0u);
    ASSERT_LT(selected, members);
    EXPECT_EQ(serveGated(copy, 0.4).canaryShadows, selected);

    // A divergent candidate breaches on the group's first member, and
    // the gate reports exactly that request's MAE scored alone through
    // the two models' float reference ops.
    const Server::Stats diverged = serveGated(blank, 1.0);
    EXPECT_EQ(diverged.canaryShadows, 1u);
    EXPECT_EQ(diverged.canaryDivergenceBreaches, 1u);
    const Request &first = flushes[0][0];
    linalg::Matrix rows(first.packedInput.rows(), first.packedInput.cols());
    for (std::size_t r = 0; r < rows.rows(); ++r)
        first.packedInput.unpackRowTo(r, rows.row(r));
    const auto reconstruct = [&](const engine::Model &model) {
        std::vector<util::Rng> rngs;
        for (std::size_t r = 0; r < rows.rows(); ++r)
            rngs.push_back(util::Rng::stream(first.seed, r));
        linalg::Matrix out;
        engine::BatchScratch scratch;
        model.reconstructRows(rows, rngs.data(), out, scratch);
        return out;
    };
    const linalg::Matrix inc = reconstruct(*registry.tryGet("m").value());
    const linalg::Matrix cand = reconstruct(*registry.candidate("m"));
    double absSum = 0.0;
    for (std::size_t k = 0; k < inc.size(); ++k)
        absSum += std::fabs(static_cast<double>(cand.data()[k]) -
                            static_cast<double>(inc.data()[k]));
    EXPECT_EQ(diverged.canaryLastDivergence,
              absSum / static_cast<double>(inc.size()));
}

TEST_F(CanaryGateTest, CandidateWiderThanTheRequestRowsFailsBeforeGather)
{
    // The candidate stages against an 8-wide incumbent, which is then
    // republished 7 wide with the same hidden width.  A featurize
    // request passes submit (7 wide) and the output-width check (6
    // hidden on both sides), but the candidate would gather 8 entries
    // per 7-wide row: the gate must fail the candidate before reading
    // a single row.
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(rbm::Rbm(8, 6), 1));
    const std::string cand = path("cand.ckpt");
    rbm::saveCheckpoint(makeCkpt(rbm::Rbm(8, 6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());
    registry.put("m", makeCkpt(rbm::Rbm(7, 6), 3));

    Request req = probeRequest(31, 3, 7);
    req.op = Op::Featurize;
    Response expected;
    {
        Server plain(registry);
        expected = std::move(plain.serve({req}).front());
    }

    ServerConfig config;
    config.canary.model = "m";
    config.canary.fraction = 1.0;
    config.canary.quarantineMinMs = 60000;
    Server server(registry, config);
    const Response got = std::move(server.serve({req}).front());
    ASSERT_TRUE(got.status.ok());
    EXPECT_TRUE(sameBytes(got.output, expected.output));

    const Server::Stats stats = server.stats();
    EXPECT_EQ(stats.canaryFailureBreaches, 1u);
    EXPECT_EQ(stats.canaryQuarantines, 1u);
    EXPECT_EQ(stats.canaryShadows, 0u);
    EXPECT_EQ(stats.canaryState, engine::CanaryState::Quarantined);
}

// ----------------------------------------------- staging validation

TEST_F(CanaryGateTest, StageCandidateRejectsTornAndMismatchedFiles)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));

    // Torn candidate bytes never reach the gate.
    const std::string torn = path("torn.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), torn);
    {
        const std::string bytes = slurp(torn);
        std::ofstream os(torn, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size() / 2));
    }
    EXPECT_FALSE(registry.stageCandidate("m", torn).ok());
    EXPECT_TRUE(registry.candidate("m") == nullptr);

    // An input-dim mismatch against the resolvable incumbent is
    // rejected before any traffic could shadow through it.
    const std::string wrong = path("wrong.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(7), 2), wrong);
    EXPECT_FALSE(registry.stageCandidate("m", wrong).ok());
    EXPECT_TRUE(registry.candidate("m") == nullptr);

    // Restaging replaces; clearing drops.
    const std::string good = path("good.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), good);
    ASSERT_TRUE(registry.stageCandidate("m", good).ok());
    ASSERT_TRUE(registry.candidate("m") != nullptr);
    registry.clearCandidate("m");
    EXPECT_TRUE(registry.candidate("m") == nullptr);
}

TEST_F(CanaryGateTest, PromoteStagedRefusesACandidateChangedOnDisk)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    const std::string cand = path("cand.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());

    // The file is overwritten after staging (a trainer lapping the
    // gate): publishing the *staged* bytes would resurrect a model
    // nobody validated, so the promote must refuse and unstage.
    rbm::saveCheckpoint(makeCkpt(blankRbm(6), 3), cand);
    auto result = registry.promoteStaged("m");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::FailedPrecondition);
    EXPECT_TRUE(registry.candidate("m") == nullptr);
    auto still = registry.tryGet("m");
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(still.value()->meta().epoch, 1);
}

// ----------------------------------------------------- deadlines

TEST_F(CanaryGateTest, ExpiredAtSubmitSkipsAllKernelWork)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    Server server(registry);

    Request req;
    req.model = "m";
    req.op = Op::Reconstruct;
    req.seed = 9;
    req.input = binaryRows(2, 6, 9);
    req.deadlineNs = 1;  // steady-clock epoch: expired long ago
    const Response res = std::move(server.serve({req}).front());
    EXPECT_EQ(res.status.code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(res.output.rows(), 0u);

    const Server::Stats stats = server.stats();
    EXPECT_EQ(stats.deadlineExpired, 1u);
    EXPECT_EQ(stats.kernelBatches, 0u);  // no kernel ever ran
    EXPECT_EQ(stats.rows, 0u);
    EXPECT_EQ(stats.rejected, 0u);  // expiry is not a malformed request
}

TEST_F(CanaryGateTest, ExpiryInQueueDoesNotPerturbCoflushedBytes)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));

    Request keep;
    keep.model = "m";
    keep.op = Op::Reconstruct;
    keep.seed = 21;
    keep.input = binaryRows(3, 6, 21);

    Server clean(registry);
    const Response alone = std::move(clean.serve({keep}).front());
    ASSERT_TRUE(alone.status.ok());

    Server server(registry);
    auto keepFuture = server.submit(keep);
    Request doomed = keep;
    doomed.seed = 22;
    doomed.deadlineNs = engine::steadyNowNs() + 1000000;  // 1 ms
    auto doomedFuture = server.submit(std::move(doomed));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server.flush();

    const Response kept = keepFuture.get();
    const Response expired = doomedFuture.get();
    EXPECT_EQ(expired.status.code(), StatusCode::DeadlineExceeded);
    ASSERT_TRUE(kept.status.ok());
    EXPECT_TRUE(sameBytes(kept.output, alone.output));
    EXPECT_EQ(server.stats().deadlineExpired, 1u);

    // A generous deadline, by contrast, rides through untouched.
    Request relaxed = keep;
    relaxed.deadlineNs =
        engine::steadyNowNs() + 60ull * 1000 * 1000 * 1000;
    const Response easy =
        std::move(server.serve({std::move(relaxed)}).front());
    ASSERT_TRUE(easy.status.ok());
    EXPECT_TRUE(sameBytes(easy.output, alone.output));
}
