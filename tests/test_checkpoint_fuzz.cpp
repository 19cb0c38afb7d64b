/**
 * @file
 * Structure-aware mutation fuzzing of the checkpoint reader.
 *
 * Seeds are small archives of every model family (one carrying a train
 * section) plus two hostile ones that once crashed the loader or made
 * it allocate a gigabyte.  Each mutant -- byte flips, a numeric token
 * swapped for an extreme one, truncation, splicing, a deleted or
 * duplicated line -- is written to a file and loaded through
 * tryLoadCheckpointFile, half of them resealed with a fresh CRC-64
 * trailer so they reach the parser instead of failing the checksum.
 * Every mutant must load or fail through the error channel, and no
 * single allocation may grow out of proportion to the mutant.  A fixed
 * util::Rng seed and iteration budget make every run replay the same
 * mutants (the loop follows libFuzzer's model,
 * https://llvm.org/docs/LibFuzzer.html, without its engine).
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_probe.hpp"
#include "rbm/serialize.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

using namespace ising;
using rbm::Checkpoint;
using util::Rng;

namespace {

/** Mutants per run.  Fixed, so a failure replays by its index. */
constexpr int kIterations = 10000;

/**
 * Largest single allocation a load may make: a small multiple of the
 * file's bytes (floats take 4 bytes for every 2 bytes of text they
 * need), plus a constant for the file stream's buffer.
 */
std::size_t
allocationBound(std::size_t archiveBytes)
{
    return 4 * archiveBytes + 16384;
}

constexpr std::string_view kTrailerPrefix = "checksum crc64 ";
constexpr std::size_t kTrailerLineLen = kTrailerPrefix.size() + 16 + 1;

/** Body + a freshly computed trailer (an old trailer line is dropped). */
std::string
reseal(std::string text)
{
    const std::size_t at = text.rfind(kTrailerPrefix);
    if (at != std::string::npos && text.size() - at == kTrailerLineLen)
        text.resize(at);
    const std::string crc = util::crc64Hex(util::crc64(text));
    return text.append(kTrailerPrefix).append(crc).append("\n");
}

std::string
archiveOf(const Checkpoint &ckpt)
{
    std::ostringstream os;
    rbm::saveCheckpoint(ckpt, os);
    return os.str();
}

void
fillGaussian(float *data, std::size_t n, Rng &rng)
{
    for (std::size_t i = 0; i < n; ++i)
        data[i] = static_cast<float>(rng.gaussian(0, 1));
}

/** Archives of all six families, one with a train section, and the
 *  two hostile archives. */
std::vector<std::string>
seedArchives()
{
    Rng rng(11);
    std::vector<std::string> seeds;

    rbm::Rbm plain(6, 4);
    plain.initRandom(rng, 0.5f);
    fillGaussian(plain.visibleBias().data(), 6, rng);
    Checkpoint rbmCkpt;
    rbmCkpt.meta.name = "fuzz";
    rbmCkpt.meta.backend = "cd";
    rbmCkpt.meta.seed = 7;
    rbmCkpt.meta.epoch = 2;
    rbmCkpt.model = plain;
    rbm::TrainState state;
    state.setCounter("cd.updates", 12);
    linalg::Matrix momentum(6, 4);
    fillGaussian(momentum.data(), momentum.size(), rng);
    state.setTensor("cd.momentum", momentum);
    state.setTensor("cd.particles", linalg::Matrix(0, 6));
    rbmCkpt.train = state;
    seeds.push_back(archiveOf(rbmCkpt));

    rbm::ClassRbm classRbm(5, 3, 4);
    classRbm.initRandom(rng, 0.3f);
    rbm::CfRbm cfRbm(3, 3, 4);
    cfRbm.initRandom(rng, 0.3f);
    rbm::ConvRbmConfig cfg;
    cfg.imageSide = 6;
    cfg.filterSide = 3;
    cfg.numFilters = 2;
    cfg.poolGrid = 2;
    rbm::ConvRbm conv(cfg);
    conv.initRandom(rng, 0.2f);
    rbm::Dbn dbn({6, 4, 3});
    dbn.initRandom(rng, 0.4f);
    rbm::Dbm dbm(6, 4, 3);
    dbm.initRandom(rng, 0.3f);
    for (Checkpoint::Payload model :
         {Checkpoint::Payload(plain), Checkpoint::Payload(classRbm),
          Checkpoint::Payload(cfRbm), Checkpoint::Payload(conv),
          Checkpoint::Payload(dbn), Checkpoint::Payload(dbm)}) {
        Checkpoint ckpt;
        ckpt.model = std::move(model);
        seeds.push_back(archiveOf(ckpt));
    }

    // 65536 filters of 2^24 x 2^24 weights: 2^64, which a multiplied
    // cap check wraps to 0.
    std::string conv64 =
        "isingrbm-checkpoint v2\nfamily conv_rbm\nsection meta 1\n"
        "trailer crc64\nend meta\nsection model\n"
        "16777216 16777216 65536 1\n0.05 0 0.1 0.5\n0\n";
    for (int k = 0; k < 65536; ++k)
        conv64 += k + 1 == 65536 ? "0\n" : "0 ";
    conv64 += "0 0 0 0\nend model\nend checkpoint\n";
    seeds.push_back(reseal(conv64));
    // A 1 GiB weight matrix declared in a couple of hundred bytes.
    seeds.push_back(reseal(
        "isingrbm-checkpoint v2\nfamily rbm\nsection meta 1\n"
        "trailer crc64\nend meta\nsection model\n16384 16384\n0\n"
        "end model\nend checkpoint\n"));
    return seeds;
}

bool
isNumberChar(char c)
{
    return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
           c == 'e' || c == 'E';
}

/** Swap the first numeric token at or after a random offset for an
 *  extreme spelling.  No-op when there is none. */
void
replaceNumber(std::string &text, Rng &rng)
{
    static const char *const kExtremes[] = {
        "0", "-1", "16777216", "268435456", "18446744073709551616",
        "nan", "inf", "1e-46", ""};
    std::size_t at = rng.uniformInt(text.size());
    while (at < text.size() &&
           !(text[at] >= '0' && text[at] <= '9' &&
             (at == 0 || !isNumberChar(text[at - 1]))))
        ++at;
    if (at == text.size())
        return;
    std::size_t end = at;
    while (end < text.size() && isNumberChar(text[end]))
        ++end;
    if (at > 0 && text[at - 1] == '-')
        --at;
    text.replace(at, end - at, kExtremes[rng.uniformInt(9)]);
}

/** [start, end) of a random line, newline included. */
std::pair<std::size_t, std::size_t>
randomLine(const std::string &text, Rng &rng)
{
    const std::size_t at = rng.uniformInt(text.size());
    const std::size_t prev = text.rfind('\n', at == 0 ? 0 : at - 1);
    const std::size_t start =
        at == 0 || prev == std::string::npos ? 0 : prev + 1;
    const std::size_t next = text.find('\n', start);
    return {start, next == std::string::npos ? text.size() : next + 1};
}

void
mutateOnce(std::string &text, const std::vector<std::string> &seeds,
           Rng &rng)
{
    if (text.empty()) {
        text = seeds[rng.uniformInt(seeds.size())];
        return;
    }
    switch (rng.uniformInt(6)) {
      case 0:  // flip a few bytes
        for (std::size_t k = 1 + rng.uniformInt(4); k > 0; --k)
            text[rng.uniformInt(text.size())] ^=
                static_cast<char>(1 + rng.uniformInt(255));
        return;
      case 1:
        replaceNumber(text, rng);
        return;
      case 2:  // truncate
        text.resize(rng.uniformInt(text.size()));
        return;
      case 3: {  // splice: a prefix of this, a suffix of another seed
        const std::string &other = seeds[rng.uniformInt(seeds.size())];
        text.resize(rng.uniformInt(text.size() + 1));
        text += other.substr(rng.uniformInt(other.size() + 1));
        return;
      }
      case 4: {  // delete a line
        const auto [start, end] = randomLine(text, rng);
        text.erase(start, end - start);
        return;
      }
      default: {  // duplicate a line
        const auto [start, end] = randomLine(text, rng);
        text.insert(end, text.substr(start, end - start));
        return;
      }
    }
}

/** How a load ended; Broken means the contract did (already reported). */
enum class Outcome { Loaded, ParseError, ChecksumError, Broken };

class CheckpointFuzz : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("isingrbm_test_checkpoint_fuzz_" +
                  std::to_string(::getpid()) + ".ckpt"))
                    .string();
    }

    void TearDown() override { std::filesystem::remove(path_); }

    /** Load @p archive from a file through the non-fatal entry point. */
    Outcome
    load(const std::string &archive, int iteration) const
    {
        {
            std::ofstream os(path_, std::ios::binary | std::ios::trunc);
            os.write(archive.data(),
                     static_cast<std::streamsize>(archive.size()));
        }
        std::string error;
        bool loaded = false;
        std::size_t largest = 0;
        try {
            largest = alloc_probe::largestAllocation([&] {
                loaded =
                    rbm::tryLoadCheckpointFile(path_, &error).has_value();
            });
        } catch (const std::exception &e) {
            ADD_FAILURE() << "mutant " << iteration << " escaped as '"
                          << e.what() << "'";
            return Outcome::Broken;
        }
        if (largest > allocationBound(archive.size())) {
            ADD_FAILURE() << "mutant " << iteration << " of "
                          << archive.size() << " bytes allocated "
                          << largest << " bytes at once";
            return Outcome::Broken;
        }
        if (loaded)
            return Outcome::Loaded;
        if (error.rfind("serialize: ", 0) != 0) {
            ADD_FAILURE() << "mutant " << iteration
                          << " failed without a diagnostic: '" << error
                          << "'";
            return Outcome::Broken;
        }
        return error.find("checksum mismatch") == std::string::npos
                   ? Outcome::ParseError
                   : Outcome::ChecksumError;
    }

    std::string path_;
};

} // namespace

TEST_F(CheckpointFuzz, EveryMutantLoadsOrFailsCleanly)
{
    // The family seeds load; the two hostile ones (last) fail cleanly.
    const std::vector<std::string> seeds = seedArchives();
    for (std::size_t s = 0; s < seeds.size(); ++s)
        ASSERT_EQ(load(seeds[s], -1 - static_cast<int>(s)),
                  s + 2 < seeds.size() ? Outcome::Loaded
                                       : Outcome::ParseError)
            << "seed " << s;

    Rng rng(20240611);
    int tally[4] = {};
    for (int i = 0; i < kIterations; ++i) {
        std::string mutant = seeds[rng.uniformInt(seeds.size())];
        for (std::size_t k = 1 + rng.uniformInt(3); k > 0; --k)
            mutateOnce(mutant, seeds, rng);
        if (rng.bernoulli(0.5))
            mutant = reseal(std::move(mutant));
        const Outcome outcome = load(mutant, i);
        ASSERT_NE(outcome, Outcome::Broken);
        ++tally[static_cast<int>(outcome)];
    }
    std::printf("fuzz: %d mutants: %d loaded, %d parse errors, %d "
                "checksum mismatches\n",
                kIterations, tally[0], tally[1], tally[2]);
    // The mix reached the parser: some mutants still load, and many
    // fail on structure rather than on the checksum.
    EXPECT_GT(tally[static_cast<int>(Outcome::Loaded)], kIterations / 100);
    EXPECT_GT(tally[static_cast<int>(Outcome::ParseError)], kIterations / 4);
}
