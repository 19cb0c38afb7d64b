/**
 * @file
 * Checkpoint persistence: the v2 writer, and one reader for v2
 * archives and legacy v1 dumps.
 */

#include "rbm/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/checksum.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"
#include "util/logging.hpp"

namespace ising::rbm {

namespace {

constexpr std::string_view kRbmMagic = "isingrbm-rbm";
constexpr std::string_view kDbnMagic = "isingrbm-dbn";
constexpr std::string_view kCheckpointMagic = "isingrbm-checkpoint";

/** Integrity-trailer line: "checksum crc64 <16 hex>\n". */
constexpr std::string_view kTrailerPrefix = "checksum crc64 ";
constexpr std::size_t kTrailerHexLen = 16;
constexpr std::size_t kTrailerLineLen =
    kTrailerPrefix.size() + kTrailerHexLen + 1;
/** The trailer algorithm declared in the meta section. */
constexpr const char *kTrailerAlgo = "crc64";

/**
 * Sanity caps applied before any allocation, so hostile or corrupt
 * archives are rejected with a clean fatal() instead of aborting in
 * the allocator.  Generous for every paper-scale model.
 */
constexpr unsigned long long kMaxUnits = 1ull << 24;   ///< per dimension
constexpr unsigned long long kMaxWeights = 1ull << 28; ///< per matrix
constexpr unsigned long long kMaxLayers = 1024;        ///< DBN depth

// ------------------------------------------------------------ writer

/** Longest shortest-round-trip float spelling ("-1.17549435e-38") plus
 *  its separator. */
constexpr std::size_t kMaxFloatChars = 16;

/**
 * Append one line: @p fields separated by single spaces.  Integers are
 * spelled in decimal; floats and doubles in their shortest spelling
 * that parses back to the same bits.
 */
template <typename... Fields>
void
appendLine(std::string &out, const Fields &...fields)
{
    const auto append = [&out](const auto &field) {
        if constexpr (std::is_arithmetic_v<std::decay_t<decltype(field)>>) {
            char buf[32];
            out.append(buf, std::to_chars(buf, buf + sizeof buf, field).ptr);
        } else {
            out += field;
        }
        out += ' ';
    };
    (append(fields), ...);
    out.back() = '\n';
}

/** Append a row-major block of floats, one line per row (nothing at
 *  all for an empty row). */
void
appendRows(std::string &out, const float *data, std::size_t rows,
           std::size_t cols)
{
    for (std::size_t r = 0; r < rows; ++r, data += cols) {
        const std::size_t start = out.size();
        out.resize(start + cols * kMaxFloatChars);
        char *p = out.data() + start;
        for (std::size_t c = 0; c < cols; ++c) {
            p = std::to_chars(p, p + kMaxFloatChars, data[c]).ptr;
            *p++ = c + 1 == cols ? '\n' : ' ';
        }
        out.resize(static_cast<std::size_t>(p - out.data()));
    }
}

/** Rbm parameters without a magic header (v2 payloads, DBN layers). */
void
writeRbmBody(const Rbm &model, std::string &out)
{
    const std::size_t m = model.numVisible(), n = model.numHidden();
    appendLine(out, m, n);
    appendRows(out, model.visibleBias().data(), 1, m);
    appendRows(out, model.hiddenBias().data(), 1, n);
    appendRows(out, model.weights().data(), m, n);
}

void
writeFamilyPayload(const Checkpoint &ckpt, std::string &out)
{
    switch (ckpt.family()) {
      case ModelFamily::Rbm:
        writeRbmBody(std::get<Rbm>(ckpt.model), out);
        return;
      case ModelFamily::ClassRbm: {
        const ClassRbm &model = std::get<ClassRbm>(ckpt.model);
        appendLine(out, model.numPixels(), model.numClasses());
        writeRbmBody(model.joint(), out);
        return;
      }
      case ModelFamily::CfRbm: {
        const CfRbm &model = std::get<CfRbm>(ckpt.model);
        const linalg::Matrix &w = model.weights();
        appendLine(out, model.numUsers(), model.numStars(),
                   model.numHidden());
        appendRows(out, model.visibleBias().data(), 1, w.rows());
        appendRows(out, model.hiddenBias().data(), 1, w.cols());
        appendRows(out, w.data(), w.rows(), w.cols());
        return;
      }
      case ModelFamily::ConvRbm: {
        const ConvRbm &model = std::get<ConvRbm>(ckpt.model);
        const ConvRbmConfig &cfg = model.config();
        const linalg::Matrix &filters = model.filters();
        appendLine(out, cfg.imageSide, cfg.filterSide, cfg.numFilters,
                   cfg.poolGrid);
        appendLine(out, cfg.learningRate, cfg.weightDecay,
                   cfg.sparsityTarget, cfg.sparsityCost);
        appendLine(out, model.visibleBias());
        appendRows(out, model.hiddenBias().data(), 1,
                   model.hiddenBias().size());
        appendRows(out, filters.data(), filters.rows(), filters.cols());
        return;
      }
      case ModelFamily::Dbn: {
        const Dbn &stack = std::get<Dbn>(ckpt.model);
        appendLine(out, stack.numLayers());
        for (std::size_t l = 0; l < stack.numLayers(); ++l)
            writeRbmBody(stack.layer(l), out);
        return;
      }
      case ModelFamily::Dbm: {
        const Dbm &model = std::get<Dbm>(ckpt.model);
        const std::size_t m = model.numVisible();
        const std::size_t n1 = model.hidden1(), n2 = model.hidden2();
        appendLine(out, m, n1, n2);
        appendRows(out, model.visibleBias().data(), 1, m);
        appendRows(out, model.hidden1Bias().data(), 1, n1);
        appendRows(out, model.hidden2Bias().data(), 1, n2);
        appendRows(out, model.w1().data(), m, n1);
        appendRows(out, model.w2().data(), n1, n2);
        return;
      }
    }
    util::fatal("serialize: unknown checkpoint family");
}

bool
hasWhitespace(std::string_view s)
{
    return s.find_first_of(" \t\r\n") != std::string_view::npos;
}

void
writeTrainSection(const TrainState &state, std::string &out)
{
    out += "section train\n";
    appendLine(out, "counters", state.counters.size());
    for (const auto &[name, value] : state.counters) {
        if (name.empty() || hasWhitespace(name))
            util::fatal("serialize: bad train-state counter name '" +
                        name + "'");
        appendLine(out, name, value);
    }
    appendLine(out, "tensors", state.tensors.size());
    for (const auto &[name, tensor] : state.tensors) {
        if (name.empty() || hasWhitespace(name))
            util::fatal("serialize: bad train-state tensor name '" +
                        name + "'");
        appendLine(out, name, tensor.rows(), tensor.cols());
        appendRows(out, tensor.data(), tensor.rows(), tensor.cols());
    }
    out += "end train\n";
}

/**
 * The whole archive in one buffer: the body through `end checkpoint`,
 * then the CRC-64 trailer line over exactly those bytes.
 */
std::string
archiveText(const Checkpoint &ckpt)
{
    if (hasWhitespace(ckpt.meta.name) || hasWhitespace(ckpt.meta.backend))
        util::fatal("serialize: checkpoint meta values must not contain "
                    "whitespace");
    std::string out;
    appendLine(out, kCheckpointMagic, "v2");
    appendLine(out, "family", familyTag(ckpt.family()));

    std::vector<std::pair<std::string_view, std::string>> meta;
    if (!ckpt.meta.name.empty())
        meta.emplace_back("name", ckpt.meta.name);
    if (!ckpt.meta.backend.empty())
        meta.emplace_back("backend", ckpt.meta.backend);
    meta.emplace_back("seed", std::to_string(ckpt.meta.seed));
    meta.emplace_back("epoch", std::to_string(ckpt.meta.epoch));
    // Written only when set: archives from runs that never stopped
    // early stay byte-identical to pre-early-stop writers.
    if (ckpt.meta.earlyStopEpoch >= 0)
        meta.emplace_back("early_stop",
                          std::to_string(ckpt.meta.earlyStopEpoch));
    // Declare the integrity trailer inside the checksummed body, so a
    // file truncated exactly at the trailer boundary (structurally
    // complete, trailer gone) is still rejected by file loads.
    meta.emplace_back("trailer", kTrailerAlgo);
    appendLine(out, "section meta", meta.size());
    for (const auto &[key, value] : meta)
        appendLine(out, key, value);
    out += "end meta\nsection model\n";
    writeFamilyPayload(ckpt, out);
    out += "end model\n";
    if (ckpt.train && !ckpt.train->empty())
        writeTrainSection(*ckpt.train, out);
    out += "end checkpoint\n";
    const std::string crc = util::crc64Hex(util::crc64(out));
    appendLine(out, "checksum", kTrailerAlgo, crc);
    return out;
}

// ------------------------------------------------------------ reader
//
// The reader walks the archive text in place: a std::string_view holds
// the unconsumed bytes.  Tokens are separated by "C"-locale whitespace
// (space, \t, \n, \v, \f, \r); a number parses with std::from_chars
// and ends where its spelling ends, separator or not.

bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

void
skipSpace(std::string_view &in)
{
    in.remove_prefix(static_cast<std::size_t>(
        std::find_if_not(in.begin(), in.end(), isSpace) - in.begin()));
}

/** Next whitespace-delimited token; empty at the end of the text. */
std::string_view
nextToken(std::string_view &in)
{
    skipSpace(in);
    const std::string_view token(in.begin(),
                                 std::find_if(in.begin(), in.end(), isSpace));
    in.remove_prefix(token.size());
    return token;
}

/** Next token; fatal on truncation. */
std::string_view
expectToken(std::string_view &in, const char *what)
{
    const std::string_view token = nextToken(in);
    if (token.empty())
        util::fatal(std::string("serialize: truncated archive (expected ") +
                    what + ")");
    return token;
}

/** Consume an exact literal token; fatal on mismatch. */
void
expectLiteral(std::string_view &in, std::string_view literal,
              const char *context)
{
    const std::string_view token = expectToken(in, context);
    if (token != literal)
        util::fatal("serialize: corrupt archive: expected '" +
                    std::string(literal) + "' (" + context + "), found '" +
                    std::string(token) + "'");
}

/**
 * Parse one number into @p value; false when the text there does not
 * start with one.  A leading '+' is allowed, and a decimal below the
 * smallest subnormal reads as a signed zero, as the format has always
 * allowed.  A non-finite spelling ("inf", "nan", which from_chars
 * reads) is fatal, naming the spelling and @p what.
 */
template <typename T>
bool
readNumber(std::string_view &in, T &value, const char *what)
{
    skipSpace(in);
    const char *first = in.data();
    const char *const last = first + in.size();
    if (last - first > 1 && first[0] == '+' && first[1] != '-')
        ++first;
    auto [ptr, ec] = std::from_chars(first, last, value);
    if constexpr (std::is_floating_point_v<T>) {
        long double wide = 0;
        if (ec == std::errc::result_out_of_range &&
            std::from_chars(first, ptr, wide).ec == std::errc() &&
            std::fabs(wide) < 1) {
            value = std::signbit(wide) ? -T(0) : T(0);
            ec = std::errc();
        }
        if (ec == std::errc() && !std::isfinite(value))
            util::fatal("serialize: non-finite value '" +
                        std::string(first, ptr) + "' in " + what);
    }
    if (ec != std::errc())
        return false;
    in.remove_prefix(static_cast<std::size_t>(ptr - in.data()));
    return true;
}

/**
 * Every value takes at least two bytes (a digit and a separator):
 * reject a declared count the remaining text cannot hold before it
 * sizes an allocation.
 */
void
expectRoom(std::string_view in, unsigned long long values, const char *what)
{
    if (values > in.size() / 2)
        util::fatal("serialize: truncated " + std::string(what) + " (" +
                    std::to_string(values) + " values declared, " +
                    std::to_string(in.size()) + " bytes left)");
}

template <typename T>
T
expectValue(std::string_view &in, const char *what)
{
    T value{};
    if (!readNumber(in, value, what))
        util::fatal(std::string("serialize: corrupt archive: bad ") + what);
    return value;
}

/** Read a positive dimension/count, capped. */
std::size_t
expectDim(std::string_view &in, const char *what,
          unsigned long long cap = kMaxUnits)
{
    unsigned long long v = 0;
    if (!readNumber(in, v, what) || v == 0 || v > cap)
        util::fatal(std::string("serialize: bad ") + what);
    return static_cast<std::size_t>(v);
}

void
checkWeightCount(unsigned long long rows, unsigned long long cols,
                 const char *what)
{
    // Divide rather than multiply: the product of two untrusted sizes
    // can wrap 64 bits back under the cap.
    if (cols != 0 && rows > kMaxWeights / cols)
        util::fatal(std::string("serialize: implausibly large ") + what);
}

void
readFloats(std::string_view &in, float *data, std::size_t n,
           const char *what)
{
    for (std::size_t i = 0; i < n; ++i)
        if (!readNumber(in, data[i], what))
            util::fatal(std::string("serialize: truncated ") + what);
}

Rbm
readRbmBody(std::string_view &in)
{
    const std::size_t m = expectDim(in, "RBM dimensions");
    const std::size_t n = expectDim(in, "RBM dimensions");
    checkWeightCount(m, n, "RBM weight matrix");
    expectRoom(in, m * n + m + n, "RBM parameters");
    Rbm model(m, n);
    readFloats(in, model.visibleBias().data(), m, "visible biases");
    readFloats(in, model.hiddenBias().data(), n, "hidden biases");
    readFloats(in, model.weights().data(), m * n, "weight matrix");
    return model;
}

/**
 * Shared DBN reader: a layer count followed by one RBM body per layer,
 * each behind its own v1 magic in v1 files (@p v1Layers), with
 * adjacent dimensions validated while stitching the stack.
 */
Dbn
readDbnStack(std::string_view &in, bool v1Layers)
{
    const std::size_t layers = expectDim(in, "DBN layer count",
                                         kMaxLayers);
    std::vector<Rbm> loaded;
    for (std::size_t l = 0; l < layers; ++l) {
        if (v1Layers &&
            (nextToken(in) != kRbmMagic || nextToken(in) != "v1"))
            util::fatal("serialize: expected '" + std::string(kRbmMagic) +
                        " v1' header");
        loaded.push_back(readRbmBody(in));
        if (l > 0 && loaded[l].numVisible() != loaded[l - 1].numHidden())
            util::fatal("serialize: DBN layer dimensions inconsistent");
    }
    std::vector<std::size_t> sizes{loaded[0].numVisible()};
    for (const Rbm &layer : loaded)
        sizes.push_back(layer.numHidden());
    Dbn stack(sizes);
    for (std::size_t l = 0; l < layers; ++l)
        stack.layer(l) = std::move(loaded[l]);
    return stack;
}

Checkpoint::Payload
readFamilyPayload(ModelFamily family, std::string_view &in)
{
    switch (family) {
      case ModelFamily::Rbm:
        return readRbmBody(in);
      case ModelFamily::ClassRbm: {
        const std::size_t pixels = expectDim(in, "class_rbm pixel count");
        const std::size_t classes =
            expectDim(in, "class_rbm class count");
        Rbm joint = readRbmBody(in);
        if (joint.numVisible() != pixels + classes)
            util::fatal("serialize: class_rbm dimensions inconsistent");
        ClassRbm model(pixels, static_cast<int>(classes),
                       joint.numHidden());
        model.joint() = std::move(joint);
        return model;
      }
      case ModelFamily::CfRbm: {
        const std::size_t users = expectDim(in, "cf_rbm dimensions");
        const std::size_t stars = expectDim(in, "cf_rbm dimensions");
        const std::size_t hidden = expectDim(in, "cf_rbm dimensions");
        checkWeightCount(users, stars, "cf_rbm softmax groups");
        checkWeightCount(users * stars, hidden, "cf_rbm weight matrix");
        expectRoom(in, users * stars * hidden + users * stars + hidden,
                   "cf_rbm parameters");
        CfRbm model(static_cast<int>(users), static_cast<int>(stars),
                    static_cast<int>(hidden));
        readFloats(in, model.visibleBias().data(), users * stars,
                   "cf biases");
        readFloats(in, model.hiddenBias().data(), hidden, "cf biases");
        readFloats(in, model.weights().data(), model.weights().size(),
                   "cf weights");
        return model;
      }
      case ModelFamily::ConvRbm: {
        ConvRbmConfig cfg;
        cfg.imageSide = expectDim(in, "conv_rbm image side");
        cfg.filterSide = expectDim(in, "conv_rbm filter side");
        cfg.numFilters = expectDim(in, "conv_rbm filter count");
        cfg.poolGrid = expectDim(in, "conv_rbm pool grid");
        cfg.learningRate = expectValue<double>(in, "conv config");
        cfg.weightDecay = expectValue<double>(in, "conv config");
        cfg.sparsityTarget = expectValue<double>(in, "conv config");
        cfg.sparsityCost = expectValue<double>(in, "conv config");
        if (cfg.filterSide > cfg.imageSide)
            util::fatal("serialize: bad conv_rbm configuration");
        const std::size_t filterSize = cfg.filterSide * cfg.filterSide;
        checkWeightCount(cfg.numFilters, filterSize, "conv_rbm filters");
        expectRoom(in, cfg.numFilters * (filterSize + 1) + 1,
                   "conv_rbm parameters");
        ConvRbm model(cfg);
        model.setVisibleBias(expectValue<float>(in, "conv visible bias"));
        readFloats(in, model.hiddenBias().data(), cfg.numFilters,
                   "conv hidden biases");
        readFloats(in, model.filters().data(), model.filters().size(),
                   "conv filters");
        return model;
      }
      case ModelFamily::Dbn:
        return readDbnStack(in, false);
      case ModelFamily::Dbm: {
        const std::size_t m = expectDim(in, "dbm dimensions");
        const std::size_t n1 = expectDim(in, "dbm dimensions");
        const std::size_t n2 = expectDim(in, "dbm dimensions");
        checkWeightCount(m, n1, "dbm W1");
        checkWeightCount(n1, n2, "dbm W2");
        expectRoom(in, m * n1 + n1 * n2 + m + n1 + n2, "dbm parameters");
        Dbm model(m, n1, n2);
        readFloats(in, model.visibleBias().data(), m, "dbm biases");
        readFloats(in, model.hidden1Bias().data(), n1, "dbm biases");
        readFloats(in, model.hidden2Bias().data(), n2, "dbm biases");
        readFloats(in, model.w1().data(), m * n1, "dbm W1");
        readFloats(in, model.w2().data(), n1 * n2, "dbm W2");
        return model;
      }
    }
    util::fatal("serialize: unknown checkpoint family");
}

TrainState
readTrainSection(std::string_view &in)
{
    TrainState state;
    expectLiteral(in, "counters", "train counters");
    const auto numCounters =
        expectValue<std::size_t>(in, "train counter count");
    if (numCounters > kMaxUnits)
        util::fatal("serialize: implausibly many train counters");
    for (std::size_t i = 0; i < numCounters; ++i) {
        const std::string name(expectToken(in, "train counter name"));
        state.setCounter(name,
                         expectValue<std::uint64_t>(in, "train counter"));
    }
    expectLiteral(in, "tensors", "train tensors");
    const auto numTensors =
        expectValue<std::size_t>(in, "train tensor count");
    if (numTensors > kMaxUnits)
        util::fatal("serialize: implausibly many train tensors");
    for (std::size_t i = 0; i < numTensors; ++i) {
        const std::string name(expectToken(in, "train tensor name"));
        // Rows may legitimately be 0 (e.g. an empty particle set), so
        // read raw and cap rather than using expectDim.
        const auto rows = expectValue<std::size_t>(in, "train tensor rows");
        const auto cols = expectValue<std::size_t>(in, "train tensor cols");
        if (rows > kMaxUnits || cols > kMaxUnits)
            util::fatal("serialize: bad train tensor dimensions");
        checkWeightCount(rows, cols, "train tensor");
        expectRoom(in, rows * cols, "train tensor");
        linalg::Matrix tensor(rows, cols);
        readFloats(in, tensor.data(), tensor.size(), "train tensor");
        state.setTensor(name, std::move(tensor));
    }
    expectLiteral(in, "end", "train trailer");
    expectLiteral(in, "train", "train trailer");
    return state;
}

/** Consume an unrecognized section's tokens through `end <name>`. */
void
skipUnknownSection(std::string_view &in, std::string_view name)
{
    for (std::string_view token = nextToken(in); !token.empty();
         token = nextToken(in))
        if (token == "end" && expectToken(in, "section trailer") == name)
            return;
    util::fatal("serialize: truncated archive (unterminated section '" +
                std::string(name) + "')");
}

/**
 * The one parser: a v2 archive (or a legacy v1 dump), which ends at
 * `end checkpoint`; whatever follows is ignored.
 */
Checkpoint
parseCheckpoint(std::string_view in)
{
    const std::string_view magic = expectToken(in, "archive magic");
    const std::string_view version = expectToken(in, "archive version");

    // Legacy v1 artifacts migrate to checkpoints with empty meta.
    if (magic == kRbmMagic && version == "v1")
        return Checkpoint{{}, readRbmBody(in), {}};
    if (magic == kDbnMagic && version == "v1")
        return Checkpoint{{}, readDbnStack(in, true), {}};

    if (magic != kCheckpointMagic || version != "v2")
        util::fatal("serialize: unrecognized archive header '" +
                    std::string(magic) + " " + std::string(version) + "'");

    expectLiteral(in, "family", "family tag");
    const ModelFamily family =
        familyFromTag(std::string(expectToken(in, "family name")));

    Checkpoint ckpt;
    expectLiteral(in, "section", "meta section");
    expectLiteral(in, "meta", "meta section");
    const auto metaCount = expectValue<std::size_t>(in, "meta entry count");
    for (std::size_t i = 0; i < metaCount; ++i) {
        const std::string_view key = expectToken(in, "meta key");
        const std::string_view value = expectToken(in, "meta value");
        if (key == "name")
            ckpt.meta.name = value;
        else if (key == "backend")
            ckpt.meta.backend = value;
        else if (key == "trailer")
            ckpt.meta.trailer = value;
        else if (key == "seed" || key == "epoch" || key == "early_stop") {
            // Digits only: no sign, no trailing bytes, no overflow.
            unsigned long long parsed = 0;
            const char *const end = value.data() + value.size();
            const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
            if (ec != std::errc() || ptr != end ||
                (key != "seed" &&
                 parsed > static_cast<unsigned long long>(INT_MAX)))
                util::fatal("serialize: corrupt meta value '" +
                            std::string(value) + "' for key '" +
                            std::string(key) + "'");
            if (key == "seed")
                ckpt.meta.seed = parsed;
            else if (key == "epoch")
                ckpt.meta.epoch = static_cast<int>(parsed);
            else
                ckpt.meta.earlyStopEpoch = static_cast<int>(parsed);
        }
        // Unknown keys are ignored for forward compatibility.
    }
    expectLiteral(in, "end", "meta trailer");
    expectLiteral(in, "meta", "meta trailer");

    expectLiteral(in, "section", "model section");
    expectLiteral(in, "model", "model section");
    ckpt.model = readFamilyPayload(family, in);
    expectLiteral(in, "end", "model trailer");
    expectLiteral(in, "model", "model trailer");

    // Optional trailing sections, then the checkpoint trailer.  Unknown
    // sections are skipped token-wise so newer writers stay loadable.
    for (;;) {
        const std::string_view token =
            expectToken(in, "section or checkpoint trailer");
        if (token == "end") {
            expectLiteral(in, "checkpoint", "checkpoint trailer");
            break;
        }
        if (token != "section")
            util::fatal("serialize: corrupt archive: expected 'section' "
                        "or 'end checkpoint', found '" +
                        std::string(token) + "'");
        const std::string_view name = expectToken(in, "section name");
        if (name == "train") {
            if (ckpt.train)
                util::fatal("serialize: duplicate train section");
            ckpt.train = readTrainSection(in);
        } else {
            skipUnknownSection(in, name);
        }
    }
    return ckpt;
}

/**
 * Locate the trailer's line start in an archive, or npos.  The
 * trailer is by construction the final line of the file.
 */
std::size_t
findTrailer(std::string_view content, std::uint64_t &value)
{
    if (content.size() < kTrailerLineLen || content.back() != '\n')
        return std::string_view::npos;
    const std::size_t start = content.size() - kTrailerLineLen;
    if (content.substr(start, kTrailerPrefix.size()) != kTrailerPrefix ||
        !util::parseCrc64Hex(
            content.substr(start + kTrailerPrefix.size(), kTrailerHexLen),
            value))
        return std::string_view::npos;
    return start;
}

} // namespace

const char *const kCheckpointExtension = ".ckpt";

const char *
familyTag(ModelFamily family)
{
    switch (family) {
      case ModelFamily::Rbm: return "rbm";
      case ModelFamily::ClassRbm: return "class_rbm";
      case ModelFamily::CfRbm: return "cf_rbm";
      case ModelFamily::ConvRbm: return "conv_rbm";
      case ModelFamily::Dbn: return "dbn";
      case ModelFamily::Dbm: return "dbm";
    }
    util::fatal("serialize: unknown model family");
}

ModelFamily
familyFromTag(const std::string &tag)
{
    std::string known;
    for (const ModelFamily family : kAllModelFamilies) {
        if (tag == familyTag(family))
            return family;
        known += known.empty() ? "" : ", ";
        known += familyTag(family);
    }
    util::fatal("serialize: unknown model family tag '" + tag +
                "' (use " + known + ")");
}

void
saveCheckpoint(const Checkpoint &ckpt, std::ostream &os)
{
    const std::string text = archiveText(ckpt);
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void
saveCheckpoint(const Checkpoint &ckpt, const std::string &path)
{
    // Write-temp-then-rename: training sessions overwrite live archives
    // that a serving registry may revalidate-and-reload at any moment,
    // so a reader must never observe a half-written file.  Crash points
    // and write/truncate faults (util::FaultInjector) let the tests
    // kill or corrupt this sequence at every interesting instant.
    util::FaultInjector &faults = util::FaultInjector::instance();
    faults.onCrashPoint("checkpoint.before-write");
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            util::fatal("serialize: cannot open for writing: " + tmp);
        saveCheckpoint(ckpt, os);
        os.flush();
        if (!os || faults.shouldFailWrite(path))
            util::fatal("serialize: write failed: " + tmp);
    }
    faults.onCrashPoint("checkpoint.after-temp-write");
    if (const auto bytes = faults.truncateBytes(path)) {
        std::error_code ec;
        const auto size = std::filesystem::file_size(tmp, ec);
        if (!ec && *bytes < size)
            std::filesystem::resize_file(tmp, *bytes, ec);
    }
    // fsync before the rename: without it, a crash shortly after the
    // rename can publish a directory entry whose data blocks never
    // reached the disk -- a torn archive under a valid name.
    std::string syncError;
    if (!util::fsyncFile(tmp, &syncError))
        util::fatal("serialize: cannot sync " + tmp + ": " + syncError);
    faults.onCrashPoint("checkpoint.before-rename");
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        util::fatal("serialize: cannot move " + tmp + " into place: " +
                    ec.message());
    // Directory-entry durability is best-effort (not every filesystem
    // supports directory fsync); the data itself is already synced.
    if (!util::fsyncParentDir(path, &syncError))
        util::warn("serialize: directory sync failed: " + syncError);
    faults.onCrashPoint("checkpoint.after-rename");
}

Checkpoint
loadCheckpoint(std::istream &is)
{
    const std::string text(std::istreambuf_iterator<char>(is), {});
    return parseCheckpoint(text);
}

Checkpoint
loadCheckpointFile(const std::string &path)
{
    std::string content, error;
    if (!util::slurpFile(path, content, &error))
        util::fatal("serialize: " + error);

    // Verify the integrity trailer before trusting any byte of the
    // structure: a torn or corrupted archive must be rejected whether
    // or not it happens to still parse.
    std::uint64_t declared = 0;
    const std::size_t trailerAt = findTrailer(content, declared);
    const bool hasTrailer = trailerAt != std::string_view::npos;
    const std::string_view body =
        std::string_view(content).substr(0, trailerAt);
    if (hasTrailer) {
        const std::uint64_t actual = util::crc64(body);
        if (actual != declared)
            util::fatal("serialize: checksum mismatch in " + path +
                        " (expected crc64 " + util::crc64Hex(declared) +
                        ", archive hashes to " + util::crc64Hex(actual) +
                        "): torn or corrupt archive");
    }

    Checkpoint ckpt = parseCheckpoint(body);

    if (!hasTrailer) {
        if (ckpt.meta.trailer == kTrailerAlgo)
            util::fatal("serialize: " + path + " declares a " +
                        std::string(kTrailerAlgo) +
                        " trailer but carries none (archive truncated "
                        "at the trailer boundary?)");
        if (body.starts_with(kCheckpointMagic))
            util::warn("serialize: " + path +
                       " carries no integrity trailer (written before "
                       "checksummed checkpoints); re-save to upgrade");
    }
    return ckpt;
}

std::optional<Checkpoint>
tryLoadCheckpointFile(const std::string &path, std::string *error)
{
    try {
        util::FatalThrowScope scope;
        return loadCheckpointFile(path);
    } catch (const util::FatalError &e) {
        if (error)
            *error = e.what();
        return std::nullopt;
    }
}

std::optional<std::uint64_t>
readArchiveTrailer(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::string tail(kTrailerLineLen, '\0');
    std::uint64_t value = 0;
    if (!is.seekg(-static_cast<std::streamoff>(kTrailerLineLen),
                  std::ios::end) ||
        !is.read(tail.data(), static_cast<std::streamsize>(tail.size())) ||
        findTrailer(tail, value) != 0)
        return std::nullopt;
    return value;
}

} // namespace ising::rbm
