/**
 * @file
 * Checkpoint v2 tests: bit-exact round-trips for every model family,
 * v1 -> v2 migration, the float spelling (shortest round-trip written,
 * 17-digit still read), and corrupted or hostile archive rejection.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "rbm/serialize.hpp"
#include "util/checksum.hpp"
#include "util/logging.hpp"

using namespace ising;
using rbm::Checkpoint;
using rbm::ModelFamily;
using util::Rng;

namespace {

rbm::Rbm
randomRbm(std::size_t m, std::size_t n, std::uint64_t seed)
{
    rbm::Rbm model(m, n);
    Rng rng(seed);
    model.initRandom(rng, 0.5f);
    for (std::size_t i = 0; i < m; ++i)
        model.visibleBias()[i] = static_cast<float>(rng.gaussian(0, 1));
    for (std::size_t j = 0; j < n; ++j)
        model.hiddenBias()[j] = static_cast<float>(rng.gaussian(0, 1));
    return model;
}

Checkpoint
roundTrip(const Checkpoint &ckpt)
{
    std::stringstream ss;
    rbm::saveCheckpoint(ckpt, ss);
    return rbm::loadCheckpoint(ss);
}

void
expectRbmEq(const rbm::Rbm &a, const rbm::Rbm &b)
{
    EXPECT_EQ(a.weights(), b.weights());
    EXPECT_EQ(a.visibleBias(), b.visibleBias());
    EXPECT_EQ(a.hiddenBias(), b.hiddenBias());
}

/** Bitwise equality: tells -0.0f from 0.0f, unlike operator==. */
bool
sameBits(const float *a, const float *b, std::size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/** A scratch file, removed when the test ends. */
struct TempFile
{
    explicit TempFile(const std::string &name)
        : path((std::filesystem::temp_directory_path() /
                ("isingrbm_test_checkpoint_" + std::to_string(::getpid()) +
                 "_" + name))
                   .string())
    {
    }
    ~TempFile() { std::filesystem::remove(path); }

    void
    write(const std::string &bytes) const
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    const std::string path;
};

/** Seal an archive body with a valid CRC-64 trailer, as the writer does. */
std::string
withTrailer(const std::string &body)
{
    return body + "checksum crc64 " + util::crc64Hex(util::crc64(body)) +
           "\n";
}

/** Finite floats of every magnitude, drawn as raw bit patterns. */
float
finiteFromBits(Rng &rng)
{
    for (;;) {
        const float v =
            std::bit_cast<float>(static_cast<std::uint32_t>(rng.next()));
        if (std::isfinite(v))
            return v;
    }
}

} // namespace

TEST(Checkpoint, RbmRoundTripIsExactWithMeta)
{
    Checkpoint ckpt;
    ckpt.meta.name = "unit-rbm";
    ckpt.meta.backend = "bgf";
    ckpt.meta.seed = 0xDEADBEEFCAFEull;
    ckpt.meta.epoch = 17;
    ckpt.model = randomRbm(9, 5, 1);

    const Checkpoint back = roundTrip(ckpt);
    ASSERT_EQ(back.family(), ModelFamily::Rbm);
    EXPECT_EQ(back.meta.name, "unit-rbm");
    EXPECT_EQ(back.meta.backend, "bgf");
    EXPECT_EQ(back.meta.seed, 0xDEADBEEFCAFEull);
    EXPECT_EQ(back.meta.epoch, 17);
    expectRbmEq(std::get<rbm::Rbm>(back.model),
                std::get<rbm::Rbm>(ckpt.model));
}

TEST(Checkpoint, EmptyMetaRoundTrips)
{
    Checkpoint ckpt;
    ckpt.model = randomRbm(3, 2, 2);
    const Checkpoint back = roundTrip(ckpt);
    EXPECT_EQ(back.meta.name, "");
    EXPECT_EQ(back.meta.backend, "");
    EXPECT_EQ(back.meta.seed, 0u);
    EXPECT_EQ(back.meta.epoch, 0);
    EXPECT_EQ(back.meta.earlyStopEpoch, -1);
}

TEST(Checkpoint, EarlyStopEpochRoundTrips)
{
    Checkpoint ckpt;
    ckpt.model = randomRbm(3, 2, 2);
    ckpt.meta.epoch = 4;
    ckpt.meta.earlyStopEpoch = 4;
    const Checkpoint back = roundTrip(ckpt);
    EXPECT_EQ(back.meta.epoch, 4);
    EXPECT_EQ(back.meta.earlyStopEpoch, 4);
    // Never-stopped archives must not carry the key at all (readers
    // predating it would still ignore it, but byte-stability matters
    // for the list --verify round-trip diff).
    Checkpoint plain;
    plain.model = randomRbm(3, 2, 2);
    std::stringstream ss;
    rbm::saveCheckpoint(plain, ss);
    EXPECT_EQ(ss.str().find("early_stop"), std::string::npos);
}

TEST(Checkpoint, PreservesExtremeValues)
{
    rbm::Rbm model(2, 2);
    model.weights()(0, 0) = 1.0e-30f;
    model.weights()(0, 1) = -3.4e37f;
    model.weights()(1, 0) = 0.1f;  // not exactly representable
    Checkpoint ckpt;
    ckpt.model = model;
    const Checkpoint back = roundTrip(ckpt);
    EXPECT_EQ(std::get<rbm::Rbm>(back.model).weights(), model.weights());
}

TEST(Checkpoint, ClassRbmRoundTrip)
{
    Rng rng(3);
    rbm::ClassRbm model(12, 4, 6);
    model.initRandom(rng, 0.3f);
    for (std::size_t i = 0; i < model.joint().numVisible(); ++i)
        model.joint().visibleBias()[i] =
            static_cast<float>(rng.gaussian(0, 1));

    Checkpoint ckpt;
    ckpt.meta.backend = "cd";
    ckpt.model = model;
    const Checkpoint back = roundTrip(ckpt);
    ASSERT_EQ(back.family(), ModelFamily::ClassRbm);
    const auto &restored = std::get<rbm::ClassRbm>(back.model);
    EXPECT_EQ(restored.numPixels(), 12u);
    EXPECT_EQ(restored.numClasses(), 4);
    expectRbmEq(restored.joint(), model.joint());
}

TEST(Checkpoint, CfRbmRoundTrip)
{
    Rng rng(4);
    rbm::CfRbm model(7, 5, 9);
    model.initRandom(rng, 0.4f);
    for (std::size_t i = 0; i < model.visibleBias().size(); ++i)
        model.visibleBias()[i] = static_cast<float>(rng.gaussian(0, 1));
    for (std::size_t j = 0; j < model.hiddenBias().size(); ++j)
        model.hiddenBias()[j] = static_cast<float>(rng.gaussian(0, 1));

    Checkpoint ckpt;
    ckpt.model = model;
    const Checkpoint back = roundTrip(ckpt);
    ASSERT_EQ(back.family(), ModelFamily::CfRbm);
    const auto &restored = std::get<rbm::CfRbm>(back.model);
    EXPECT_EQ(restored.numUsers(), 7);
    EXPECT_EQ(restored.numStars(), 5);
    EXPECT_EQ(restored.numHidden(), 9);
    EXPECT_EQ(restored.weights(), model.weights());
    EXPECT_EQ(restored.visibleBias(), model.visibleBias());
    EXPECT_EQ(restored.hiddenBias(), model.hiddenBias());
}

TEST(Checkpoint, ConvRbmRoundTrip)
{
    rbm::ConvRbmConfig cfg;
    cfg.imageSide = 10;
    cfg.filterSide = 3;
    cfg.numFilters = 4;
    cfg.poolGrid = 2;
    cfg.learningRate = 0.034;
    cfg.sparsityTarget = 0.125;
    rbm::ConvRbm model(cfg);
    Rng rng(5);
    model.initRandom(rng, 0.2f);
    for (std::size_t k = 0; k < model.hiddenBias().size(); ++k)
        model.hiddenBias()[k] = static_cast<float>(rng.gaussian(0, 1));
    model.setVisibleBias(-0.375f);

    Checkpoint ckpt;
    ckpt.model = model;
    const Checkpoint back = roundTrip(ckpt);
    ASSERT_EQ(back.family(), ModelFamily::ConvRbm);
    const auto &restored = std::get<rbm::ConvRbm>(back.model);
    EXPECT_EQ(restored.config().imageSide, cfg.imageSide);
    EXPECT_EQ(restored.config().numFilters, cfg.numFilters);
    EXPECT_DOUBLE_EQ(restored.config().learningRate, cfg.learningRate);
    EXPECT_DOUBLE_EQ(restored.config().sparsityTarget,
                     cfg.sparsityTarget);
    EXPECT_EQ(restored.filters(), model.filters());
    EXPECT_EQ(restored.hiddenBias(), model.hiddenBias());
    EXPECT_EQ(restored.visibleBias(), model.visibleBias());

    // Behavioral equality: identical pooled features on a probe image.
    std::vector<float> image(cfg.imageSide * cfg.imageSide);
    for (float &p : image)
        p = rng.bernoulli(0.4) ? 1.0f : 0.0f;
    std::vector<float> a(model.featureDim()), b(model.featureDim());
    model.features(image.data(), a.data());
    restored.features(image.data(), b.data());
    EXPECT_EQ(a, b);
}

TEST(Checkpoint, DbnRoundTripPreservesStack)
{
    Rng rng(6);
    rbm::Dbn stack({10, 6, 3});
    stack.initRandom(rng, 0.4f);
    Checkpoint ckpt;
    ckpt.model = stack;
    const Checkpoint back = roundTrip(ckpt);
    ASSERT_EQ(back.family(), ModelFamily::Dbn);
    const auto &restored = std::get<rbm::Dbn>(back.model);
    ASSERT_EQ(restored.numLayers(), 2u);
    expectRbmEq(restored.layer(0), stack.layer(0));
    expectRbmEq(restored.layer(1), stack.layer(1));
}

TEST(Checkpoint, DbmRoundTrip)
{
    Rng rng(7);
    rbm::Dbm model(8, 5, 3);
    model.initRandom(rng, 0.3f);
    for (std::size_t i = 0; i < model.numVisible(); ++i)
        model.visibleBias()[i] = static_cast<float>(rng.gaussian(0, 1));
    for (std::size_t j = 0; j < model.hidden1(); ++j)
        model.hidden1Bias()[j] = static_cast<float>(rng.gaussian(0, 1));
    for (std::size_t k = 0; k < model.hidden2(); ++k)
        model.hidden2Bias()[k] = static_cast<float>(rng.gaussian(0, 1));

    Checkpoint ckpt;
    ckpt.model = model;
    const Checkpoint back = roundTrip(ckpt);
    ASSERT_EQ(back.family(), ModelFamily::Dbm);
    const auto &restored = std::get<rbm::Dbm>(back.model);
    EXPECT_EQ(restored.w1(), model.w1());
    EXPECT_EQ(restored.w2(), model.w2());
    EXPECT_EQ(restored.visibleBias(), model.visibleBias());
    EXPECT_EQ(restored.hidden1Bias(), model.hidden1Bias());
    EXPECT_EQ(restored.hidden2Bias(), model.hidden2Bias());
}

TEST(Checkpoint, V1RbmFileStillLoads)
{
    // A v1 dump as the removed v1 writer spelled it (17 digits).
    const TempFile file("v1.rbm");
    file.write("isingrbm-rbm v1\n"
               "3 2\n"
               "0.5 -0.25 1\n"
               "0.10000000149011612 -1.5\n"
               "1 2\n"
               "-0.30000001192092896 0\n"
               "1.0000000031710769e-30 -3.3999999014383402e+37\n");
    const Checkpoint back = rbm::loadCheckpointFile(file.path);
    ASSERT_EQ(back.family(), ModelFamily::Rbm);
    const auto &model = std::get<rbm::Rbm>(back.model);
    ASSERT_EQ(model.numVisible(), 3u);
    ASSERT_EQ(model.numHidden(), 2u);
    EXPECT_EQ(model.visibleBias()[1], -0.25f);
    EXPECT_EQ(model.hiddenBias()[0], 0.1f);
    EXPECT_EQ(model.weights()(1, 0), -0.3f);
    EXPECT_EQ(model.weights()(2, 0), 1.0e-30f);
    EXPECT_EQ(model.weights()(2, 1), -3.4e37f);
    EXPECT_EQ(back.meta.name, "");  // migrated with default meta
    EXPECT_FALSE(back.train.has_value());
}

TEST(Checkpoint, V1DbnFileStillLoads)
{
    // Each v1 DBN layer is a whole v1 RBM dump, magic included.
    std::stringstream ss("isingrbm-dbn v1\n2\n"
                         "isingrbm-rbm v1\n2 1\n0 0.5\n-1\n0.25\n-0.75\n"
                         "isingrbm-rbm v1\n1 2\n1\n2 3\n4 5\n");
    const Checkpoint back = rbm::loadCheckpoint(ss);
    ASSERT_EQ(back.family(), ModelFamily::Dbn);
    const auto &restored = std::get<rbm::Dbn>(back.model);
    ASSERT_EQ(restored.numLayers(), 2u);
    EXPECT_EQ(restored.layer(0).visibleBias()[1], 0.5f);
    EXPECT_EQ(restored.layer(0).weights()(1, 0), -0.75f);
    EXPECT_EQ(restored.layer(1).numHidden(), 2u);
    EXPECT_EQ(restored.layer(1).weights()(0, 1), 5.0f);
}

TEST(Checkpoint, TrainStateSectionRoundTripsExactly)
{
    Checkpoint ckpt;
    ckpt.model = randomRbm(5, 4, 31);
    rbm::TrainState state;
    state.setCounter("cd.updates", 17);
    state.setCounter("cd.next_particle", 3);
    linalg::Matrix particles(6, 4);
    Rng rng(5);
    for (std::size_t i = 0; i < particles.size(); ++i)
        particles.data()[i] = rng.bernoulli(0.5) ? 1.0f : 0.0f;
    state.setTensor("cd.particles", particles);
    ckpt.train = std::move(state);

    const Checkpoint back = roundTrip(ckpt);
    ASSERT_TRUE(back.train.has_value());
    const std::uint64_t *updates = back.train->counter("cd.updates");
    ASSERT_NE(updates, nullptr);
    EXPECT_EQ(*updates, 17u);
    const linalg::Matrix *tensor = back.train->tensor("cd.particles");
    ASSERT_NE(tensor, nullptr);
    ASSERT_EQ(tensor->rows(), 6u);
    ASSERT_EQ(tensor->cols(), 4u);
    for (std::size_t i = 0; i < tensor->size(); ++i)
        EXPECT_EQ(tensor->data()[i], particles.data()[i]);
    EXPECT_EQ(back.train->counter("missing"), nullptr);
    EXPECT_EQ(back.train->tensor("missing"), nullptr);
}

TEST(Checkpoint, ArchiveWithoutTrainSectionLoadsWithEmptyState)
{
    Checkpoint ckpt;
    ckpt.model = randomRbm(3, 3, 8);
    const Checkpoint back = roundTrip(ckpt);
    EXPECT_FALSE(back.train.has_value());
}

TEST(Checkpoint, UnknownTrailingSectionsAreSkipped)
{
    Checkpoint ckpt;
    ckpt.model = randomRbm(3, 3, 9);
    ckpt.meta.seed = 5;
    std::stringstream ss;
    rbm::saveCheckpoint(ckpt, ss);
    std::string text = ss.str();
    // A future writer appends a section this reader knows nothing
    // about; the payload must be skipped, not fatal.
    const auto at = text.find("end checkpoint");
    ASSERT_NE(at, std::string::npos);
    text.insert(at, "section telemetry\n1 2 3 some tokens\n"
                    "end telemetry\n");
    std::stringstream extended(text);
    const Checkpoint back = rbm::loadCheckpoint(extended);
    EXPECT_EQ(back.meta.seed, 5u);
    EXPECT_FALSE(back.train.has_value());
}

TEST(CheckpointDeathTest, RejectsUnterminatedUnknownSection)
{
    Checkpoint ckpt;
    ckpt.model = randomRbm(3, 3, 9);
    std::stringstream ss;
    rbm::saveCheckpoint(ckpt, ss);
    std::string text = ss.str();
    const auto at = text.find("end checkpoint");
    ASSERT_NE(at, std::string::npos);
    text = text.substr(0, at) + "section telemetry\n1 2 3\n";
    std::stringstream bad(text);
    EXPECT_EXIT(rbm::loadCheckpoint(bad), testing::ExitedWithCode(1),
                "unterminated section");
}

TEST(CheckpointDeathTest, RejectsUnknownMagic)
{
    std::stringstream ss("not-a-checkpoint v9\n1 1\n0\n0\n0\n");
    EXPECT_EXIT(rbm::loadCheckpoint(ss), testing::ExitedWithCode(1),
                "serialize");
}

TEST(CheckpointDeathTest, RejectsUnknownFamily)
{
    std::stringstream ss("isingrbm-checkpoint v2\nfamily warp_core\n");
    EXPECT_EXIT(rbm::loadCheckpoint(ss), testing::ExitedWithCode(1),
                "unknown model family");
}

TEST(CheckpointDeathTest, RejectsTruncatedPayload)
{
    Checkpoint ckpt;
    ckpt.model = randomRbm(5, 4, 11);
    std::stringstream ss;
    rbm::saveCheckpoint(ckpt, ss);
    // Drop the last 40 characters: the payload tail and trailers.
    const std::string text = ss.str();
    std::stringstream cut(text.substr(0, text.size() - 40));
    EXPECT_EXIT(rbm::loadCheckpoint(cut), testing::ExitedWithCode(1),
                "serialize");
}

TEST(CheckpointDeathTest, RejectsHostileDimensions)
{
    // "-1" wraps to ~1.8e19 under unsigned extraction; the reader must
    // reject it cleanly instead of dying in the allocator.
    std::stringstream ss(
        "isingrbm-checkpoint v2\nfamily rbm\nsection meta 0\nend meta\n"
        "section model\n-1 5\n");
    EXPECT_EXIT(rbm::loadCheckpoint(ss), testing::ExitedWithCode(1),
                "bad RBM dimensions");
}

TEST(CheckpointDeathTest, RejectsImplausiblyLargeWeightMatrix)
{
    std::stringstream ss(
        "isingrbm-checkpoint v2\nfamily rbm\nsection meta 0\nend meta\n"
        "section model\n16000000 16000000\n");
    EXPECT_EXIT(rbm::loadCheckpoint(ss), testing::ExitedWithCode(1),
                "implausibly large");
}

TEST(CheckpointDeathTest, RejectsCorruptSectionStructure)
{
    Checkpoint ckpt;
    ckpt.model = randomRbm(3, 3, 12);
    std::stringstream ss;
    rbm::saveCheckpoint(ckpt, ss);
    std::string text = ss.str();
    const auto at = text.find("section model");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 13, "sectoin model");  // corrupted tag
    std::stringstream bad(text);
    EXPECT_EXIT(rbm::loadCheckpoint(bad), testing::ExitedWithCode(1),
                "corrupt");
}

// ------------------------------------------------- float spelling

// Written by the 17-significant-digit writer that preceded the
// shortest round-trip one, trailer included: the parameters are raw
// bit patterns from Rng(2024), regenerated below without any float
// arithmetic.
constexpr const char *kSeventeenDigitArchive = R"(isingrbm-checkpoint v2
family rbm
section meta 5
name parent
backend cd
seed 2024
epoch 3
trailer crc64
end meta
section model
5 4
-2.3420392963975275e-29 4.377260544047995e-13 -4100663808 5.826895865729272e-37 -5.4297993293002111e-28
-0.0024526354391127825 3.6154171539237723e-05 -57.101642608642578 -8.2508911702916521e-08
-4.1405293739140161e+36 -0.14138321578502655 1.4557254082316052e-33 1.0223262708197474e-29
1.7547945505757938e+29 -0.025806456804275513 -4.3736651263561258e-14 121.56327056884766
29868662 -4576040693268480 5.7692492681009165e-17 2.9062605037734583e+28
-7.4131687476092363e-26 2075376640 14.644107818603516 8.6774528936869333e+31
-8.2258248936043104e-38 -29989980 -2.0434350744835683e-07 -1.3773446083068848
end model
section train
counters 1
cd.updates 40
tensors 1
cd.momentum 2 3
1.2224803889815191e+22 7.2289213616169795e+31 -21.434175491333008
6.7066890118200877e+29 -53616056735891456 -3.8742033886540739e-11
end train
end checkpoint
checksum crc64 08c2d9e330492fed
)";

TEST(Checkpoint, SeventeenDigitArchiveLoadsBitIdentically)
{
    Rng rng(2024);
    rbm::Rbm model(5, 4);
    for (std::size_t i = 0; i < 5; ++i)
        model.visibleBias()[i] = finiteFromBits(rng);
    for (std::size_t j = 0; j < 4; ++j)
        model.hiddenBias()[j] = finiteFromBits(rng);
    for (std::size_t i = 0; i < model.weights().size(); ++i)
        model.weights().data()[i] = finiteFromBits(rng);
    linalg::Matrix momentum(2, 3);
    for (std::size_t i = 0; i < momentum.size(); ++i)
        momentum.data()[i] = finiteFromBits(rng);

    const TempFile file("seventeen.ckpt");
    file.write(kSeventeenDigitArchive);
    const Checkpoint back = rbm::loadCheckpointFile(file.path);
    EXPECT_EQ(back.meta.name, "parent");
    EXPECT_EQ(back.meta.seed, 2024u);
    EXPECT_EQ(back.meta.epoch, 3);
    const auto &loaded = std::get<rbm::Rbm>(back.model);
    EXPECT_TRUE(sameBits(loaded.weights().data(), model.weights().data(),
                         model.weights().size()));
    EXPECT_TRUE(sameBits(loaded.visibleBias().data(),
                         model.visibleBias().data(), 5));
    EXPECT_TRUE(sameBits(loaded.hiddenBias().data(),
                         model.hiddenBias().data(), 4));
    ASSERT_TRUE(back.train.has_value());
    ASSERT_NE(back.train->counter("cd.updates"), nullptr);
    EXPECT_EQ(*back.train->counter("cd.updates"), 40u);
    const linalg::Matrix *tensor = back.train->tensor("cd.momentum");
    ASSERT_NE(tensor, nullptr);
    EXPECT_TRUE(sameBits(tensor->data(), momentum.data(), momentum.size()));

    // Re-saving spells the same floats in fewer bytes.
    std::stringstream resaved;
    rbm::saveCheckpoint(back, resaved);
    EXPECT_LT(resaved.str().size(), std::strlen(kSeventeenDigitArchive));
    const Checkpoint again = roundTrip(back);
    EXPECT_TRUE(sameBits(std::get<rbm::Rbm>(again.model).weights().data(),
                         model.weights().data(), model.weights().size()));
}

TEST(Checkpoint, SpecialValuesRoundTripBitExactly)
{
    using Limits = std::numeric_limits<float>;
    const std::vector<float> values = {
        0.0f, -0.0f, Limits::denorm_min(),
        std::bit_cast<float>(0x00400000u),  // mid subnormal
        Limits::min(), Limits::max(), Limits::lowest(),
        std::bit_cast<float>(0x03aa2454u),  // 1.00000425e-36
        std::bit_cast<float>(0x1e3ce509u),  // 1.00000005e-20
        0.1f, -1.5f};
    rbm::Rbm model(values.size(), 2);
    for (std::size_t i = 0; i < values.size(); ++i) {
        model.visibleBias()[i] = values[i];
        model.weights()(i, 0) = values[i];
        model.weights()(i, 1) = -values[i];
    }
    Checkpoint ckpt;
    ckpt.model = model;
    std::stringstream text;
    rbm::saveCheckpoint(ckpt, text);
    // Shortest spellings, nine significant digits where a float needs
    // them.
    EXPECT_NE(text.str().find(" 1.00000425e-36 "), std::string::npos);
    EXPECT_NE(text.str().find(" 1.00000005e-20 "), std::string::npos);
    EXPECT_NE(text.str().find(" 0.1 "), std::string::npos);
    EXPECT_EQ(text.str().find("0.10000000149011612"), std::string::npos);

    const Checkpoint back = roundTrip(ckpt);
    const auto &loaded = std::get<rbm::Rbm>(back.model);
    EXPECT_TRUE(sameBits(loaded.visibleBias().data(),
                         model.visibleBias().data(), values.size()));
    EXPECT_TRUE(sameBits(loaded.weights().data(), model.weights().data(),
                         model.weights().size()));

    // ConvRbm carries doubles (its config) and a lone float bias.
    rbm::ConvRbmConfig cfg;
    cfg.imageSide = 4;
    cfg.filterSide = 2;
    cfg.numFilters = 1;
    cfg.poolGrid = 1;
    cfg.learningRate = 0.1 + 0.2;  // 0.30000000000000004
    cfg.weightDecay = std::numeric_limits<double>::denorm_min();
    cfg.sparsityTarget = 1.0 / 3.0;
    cfg.sparsityCost = std::numeric_limits<double>::lowest();
    rbm::ConvRbm conv(cfg);
    conv.setVisibleBias(-0.0f);
    conv.hiddenBias()[0] = Limits::denorm_min();
    Checkpoint convCkpt;
    convCkpt.model = conv;
    const Checkpoint convRound = roundTrip(convCkpt);
    const auto &convBack = std::get<rbm::ConvRbm>(convRound.model);
    const double sent[] = {cfg.learningRate, cfg.weightDecay,
                           cfg.sparsityTarget, cfg.sparsityCost};
    const double got[] = {convBack.config().learningRate,
                          convBack.config().weightDecay,
                          convBack.config().sparsityTarget,
                          convBack.config().sparsityCost};
    EXPECT_EQ(std::memcmp(sent, got, sizeof sent), 0);
    const float bias = convBack.visibleBias();
    EXPECT_TRUE(std::signbit(bias) && bias == 0.0f);
    EXPECT_TRUE(sameBits(convBack.hiddenBias().data(),
                         conv.hiddenBias().data(), 1));
}

TEST(Checkpoint, NonFiniteValuesSaveButTheirArchiveIsRejected)
{
    const std::pair<float, const char *> cases[] = {
        {std::numeric_limits<float>::infinity(), "inf"},
        {-std::numeric_limits<float>::infinity(), "-inf"},
        {std::numeric_limits<float>::quiet_NaN(), "nan"}};
    for (const auto &[bad, spelling] : cases) {
        Checkpoint ckpt;
        rbm::Rbm model = randomRbm(3, 2, 5);
        model.weights()(1, 1) = bad;
        ckpt.model = model;
        const TempFile file("nonfinite.ckpt");
        rbm::saveCheckpoint(ckpt, file.path);
        std::string error;
        EXPECT_FALSE(rbm::tryLoadCheckpointFile(file.path, &error));
        EXPECT_NE(error.find(std::string("non-finite value '") + spelling +
                             "' in weight matrix"),
                  std::string::npos)
            << error;
    }
}

TEST(Checkpoint, ReaderKeepsTheIstreamAcceptSet)
{
    // A leading '+', any whitespace istream skips, numbers that need
    // no separator after them, and decimals below the smallest
    // subnormal (read as signed zeros).
    std::stringstream ss("isingrbm-rbm v1\t+2\v1\r\n+0.5\f1e-46\n"
                         "-1e-46\n 1.5-2.5\n");
    const Checkpoint back = rbm::loadCheckpoint(ss);
    const auto &model = std::get<rbm::Rbm>(back.model);
    ASSERT_EQ(model.numVisible(), 2u);
    EXPECT_EQ(model.visibleBias()[0], 0.5f);
    EXPECT_EQ(model.visibleBias()[1], 0.0f);
    EXPECT_FALSE(std::signbit(model.visibleBias()[1]));
    EXPECT_TRUE(std::signbit(model.hiddenBias()[0]));
    EXPECT_EQ(model.weights()(0, 0), 1.5f);
    EXPECT_EQ(model.weights()(1, 0), -2.5f);
}

// ---------------------------------------------------- hostile sizes

TEST(Checkpoint, ConvFilterCountThatWrapsIsRejected)
{
    // 65536 filters of 2^24 x 2^24 is 2^64 weights: a multiplied cap
    // check wraps to 0 and passes, and the loader then writes through
    // an empty filter matrix.
    std::string body =
        "isingrbm-checkpoint v2\nfamily conv_rbm\nsection meta 1\n"
        "trailer crc64\nend meta\nsection model\n"
        "16777216 16777216 65536 1\n0.05 0 0.1 0.5\n0\n";
    for (int k = 0; k < 65536; ++k)
        body += k + 1 == 65536 ? "0\n" : "0 ";
    body += "0 0 0 0\nend model\nend checkpoint\n";
    const TempFile file("conv_wrap.ckpt");
    file.write(withTrailer(body));
    std::string error;
    EXPECT_FALSE(rbm::tryLoadCheckpointFile(file.path, &error));
    EXPECT_NE(error.find("implausibly large conv_rbm filters"),
              std::string::npos)
        << error;
}

TEST(Checkpoint, DirectoryPathFailsThroughTheErrorChannel)
{
    // A directory opens for reading and reports an end offset near
    // 2^63, which must not size the read buffer.
    const TempFile dir("dir.ckpt");
    std::filesystem::create_directory(dir.path);
    std::string error;
    EXPECT_FALSE(rbm::tryLoadCheckpointFile(dir.path, &error));
    EXPECT_NE(error.find("cannot open for reading"), std::string::npos)
        << error;
}

TEST(Checkpoint, SizesTheRemainingBytesCannotHoldAreRejected)
{
    // 16384 x 16384 sits exactly at the weight cap: without the room
    // check this 157-byte archive allocates 1 GiB before failing.
    const std::string archive = withTrailer(
        "isingrbm-checkpoint v2\nfamily rbm\nsection meta 1\n"
        "trailer crc64\nend meta\nsection model\n16384 16384\n0\n"
        "end model\nend checkpoint\n");
    ASSERT_EQ(archive.size(), 157u);
    const TempFile file("too_big.ckpt");
    file.write(archive);
    std::string error;
    EXPECT_FALSE(rbm::tryLoadCheckpointFile(file.path, &error));
    EXPECT_NE(error.find("truncated RBM parameters (268468224 values "
                         "declared"),
              std::string::npos)
        << error;

    // The same room rule guards every family's payload and the train
    // tensors.
    const char *const payloads[] = {
        "family dbm\nsection meta 0\nend meta\nsection model\n"
        "100 100 100\n0 0\n",
        "family cf_rbm\nsection meta 0\nend meta\nsection model\n"
        "100 5 100\n0 0\n",
        "family conv_rbm\nsection meta 0\nend meta\nsection model\n"
        "28 7 500 3\n0 0 0 0\n0\n",
        "family rbm\nsection meta 0\nend meta\nsection model\n1 1\n0\n0\n0\n"
        "end model\nsection train\ncounters 0\ntensors 1\nx 1000 1000\n0\n"};
    for (const char *payload : payloads) {
        std::stringstream ss(std::string("isingrbm-checkpoint v2\n") +
                             payload);
        try {
            util::FatalThrowScope scope;
            rbm::loadCheckpoint(ss);
            ADD_FAILURE() << "loaded: " << payload;
        } catch (const util::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("values declared"),
                      std::string::npos)
                << e.what();
        }
    }
}
