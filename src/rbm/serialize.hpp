/**
 * @file
 * Model persistence.
 *
 * Two formats live here:
 *
 *  - **v1** (legacy, load-only): plain `Rbm`/`Dbn` parameter dumps,
 *    which nothing writes any more and `loadCheckpoint*` still read.
 *
 *      isingrbm-rbm v1
 *      <numVisible> <numHidden>
 *      <bv_0> ... <bv_{m-1}>
 *      <bh_0> ... <bh_{n-1}>
 *      <W_00> ... <W_0{n-1}>
 *      ...
 *
 *  - **v2 checkpoint**: a versioned tagged-section archive that
 *    round-trips *every* model family (`Rbm`, `ClassRbm`, `CfRbm`,
 *    `ConvRbm`, `Dbn`, `Dbm`) bit-exactly, plus training provenance
 *    (name, trainer backend, seed, epoch).  Sections are explicit and
 *    self-describing so readers can verify structure and reject
 *    corrupted archives:
 *
 *      isingrbm-checkpoint v2
 *      family <tag>
 *      section meta <numEntries>
 *      <key> <value>
 *      ...
 *      end meta
 *      section model
 *      <family payload>
 *      end model
 *      [section train ... end train]
 *      end checkpoint
 *
 *    Unknown meta keys are ignored (forward compatibility); anything
 *    structurally wrong (bad magic, unknown family, truncated payload,
 *    missing trailers) is fatal.  `loadCheckpoint` also accepts v1
 *    files, migrating them to `Rbm`/`Dbn` checkpoints with empty meta.
 *
 *    **Integrity trailer**: after `end checkpoint` the writer appends
 *    one final line,
 *
 *      checksum crc64 <16 hex digits>
 *
 *    a CRC-64/XZ over every archive byte up to and including the
 *    `end checkpoint` line.  The meta section declares it
 *    (`trailer crc64`) so a file truncated exactly at the trailer
 *    boundary is still detected.  File-based loads verify the trailer
 *    and reject mismatches (torn or corrupted archives); archives from
 *    pre-trailer writers carry neither the declaration nor the trailer
 *    and still load, with a warning.  Stream-based `loadCheckpoint`
 *    parses structure only (the bytes seen by a stream are whatever
 *    the caller staged; integrity is a property of files).
 *
 *    **Durability**: the file writer stages into `<path>.tmp`, fsyncs
 *    the temp file, renames it into place and fsyncs the directory, so
 *    a crash at any instant leaves either the old complete archive or
 *    the new complete archive -- never a torn one.  The publish path
 *    is threaded with util::FaultInjector crash points and write/
 *    truncate faults so the tests can prove exactly that.
 *
 *    After the model section a checkpoint may carry *optional* trailing
 *    sections.  The only one currently defined is `train`: the
 *    persistent training state (PCD particles, DBM chains, momentum
 *    buffers, fabric voltages) that `train::Session` needs for
 *    bit-exact resume.  Readers skip sections they do not recognize
 *    (tokens through the matching `end <name>`), so newer writers stay
 *    loadable; a missing train section merely downgrades resume to
 *    re-initialized chains.  Section payloads must never contain the
 *    bare token `end` (ours are numbers and single-token names).
 *
 * **Numbers** are spelled in their shortest round-trip form
 * (`std::to_chars`: the fewest digits that parse back to the same
 * bits, e.g. `0.1` for 0.1f), independent of the locale.  Readers also
 * accept the 17-significant-digit spelling of earlier writers; both
 * give the same floats.  Readers reject a non-finite value (`inf`,
 * `nan`; a model holding one still saves, but its archive does not
 * load) and, before allocating, a declared size the remaining bytes
 * cannot hold (every value takes at least a digit and a separator).
 */

#ifndef ISINGRBM_RBM_SERIALIZE_HPP
#define ISINGRBM_RBM_SERIALIZE_HPP

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <variant>

#include "rbm/cf_rbm.hpp"
#include "rbm/class_rbm.hpp"
#include "rbm/conv_rbm.hpp"
#include "rbm/dbm.hpp"
#include "rbm/dbn.hpp"
#include "rbm/rbm.hpp"
#include "rbm/train_state.hpp"

namespace ising::rbm {

/**
 * Model families a checkpoint can carry.  The enumerator order is the
 * `Checkpoint::Payload` variant order (family() relies on it).
 */
enum class ModelFamily { Rbm, ClassRbm, CfRbm, ConvRbm, Dbn, Dbm };

/** Every family, in enumerator order (capability tables, listings). */
inline constexpr ModelFamily kAllModelFamilies[] = {
    ModelFamily::Rbm, ModelFamily::ClassRbm, ModelFamily::CfRbm,
    ModelFamily::ConvRbm, ModelFamily::Dbn, ModelFamily::Dbm};

/** Archive tag of a family ("rbm", "class_rbm", ...). */
const char *familyTag(ModelFamily family);

/** Inverse of familyTag; fatal on unknown tags. */
ModelFamily familyFromTag(const std::string &tag);

/** Training provenance carried inside a v2 checkpoint. */
struct CheckpointMeta
{
    std::string name;     ///< registry name ("" when unnamed)
    std::string backend;  ///< training engine tag ("cd", "gs", "bgf", ...)
    std::uint64_t seed = 0;
    int epoch = 0;        ///< epochs completed when the snapshot was taken
    /**
     * Epoch at which the session early-stopped (overfitting monitor),
     * or -1 when the run was never stopped early.  A resumed session
     * sees a non-negative value and treats the run as finished, so
     * `--resume` after an early stop is a no-op instead of a restart.
     */
    int earlyStopEpoch = -1;
    /**
     * Integrity-trailer algorithm the archive declared ("crc64"; empty
     * for archives from pre-trailer writers).  Read-only provenance:
     * the writer always emits the current algorithm regardless of this
     * field.
     */
    std::string trailer;
};

/** One self-describing model artifact: any family plus its metadata. */
struct Checkpoint
{
    using Payload = std::variant<Rbm, ClassRbm, CfRbm, ConvRbm, Dbn, Dbm>;

    CheckpointMeta meta;
    Payload model;

    /**
     * Persistent training state for exact resume (optional "train"
     * section).  Absent in archives written before the session layer,
     * by inference-only exporters, and in migrated v1 files.
     */
    std::optional<TrainState> train;

    ModelFamily
    family() const
    {
        return static_cast<ModelFamily>(model.index());
    }
};

/** Write a v2 checkpoint archive. */
void saveCheckpoint(const Checkpoint &ckpt, std::ostream &os);
void saveCheckpoint(const Checkpoint &ckpt, const std::string &path);

/**
 * Read a checkpoint: v2 archives of any family, or legacy v1
 * `Rbm`/`Dbn` files (migrated with default meta).  Fatal on anything
 * malformed.  The file overload additionally verifies the integrity
 * trailer (see the file comment); the stream overload reads its stream
 * to the end and checks structure only.  Both run the same parser,
 * which ignores anything after `end checkpoint`.
 */
Checkpoint loadCheckpoint(std::istream &is);
Checkpoint loadCheckpointFile(const std::string &path);

/**
 * Non-fatal file load for supervising layers (the serving registry,
 * retry loops): returns the checkpoint, or std::nullopt with the
 * fatal diagnostic copied into @p error (when non-null).  The process
 * never exits through this call.
 */
std::optional<Checkpoint>
tryLoadCheckpointFile(const std::string &path,
                      std::string *error = nullptr);

/**
 * Read just the integrity trailer from an archive's tail (one small
 * read; no parse).  std::nullopt for legacy un-checksummed archives,
 * unreadable files, or anything that is not a checkpoint.  The
 * registry folds this into its revalidation stamp so an overwrite
 * that preserves (mtime, size) is still detected.
 */
std::optional<std::uint64_t> readArchiveTrailer(const std::string &path);

/** Conventional checkpoint file extension (".ckpt"). */
extern const char *const kCheckpointExtension;

} // namespace ising::rbm

#endif // ISINGRBM_RBM_SERIALIZE_HPP
