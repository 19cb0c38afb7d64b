/**
 * @file
 * Tiny command-line flag parser shared by the isingrbm multi-tool,
 * examples and bench binaries.
 *
 * Supports "--name value", "--name=value" and boolean "--name" forms,
 * plus an optional leading subcommand word for multi-tool binaries
 * ("isingrbm train --epochs 3").  Unknown flags are collected so
 * google-benchmark can still consume its own arguments from the
 * remainder; unknown() reports them for binaries that own their whole
 * command line.  Malformed numeric values fall back to the default
 * after a warning through util/logging (never silently).
 */

#ifndef ISINGRBM_UTIL_CLI_HPP
#define ISINGRBM_UTIL_CLI_HPP

#include <map>
#include <string>
#include <vector>

namespace ising::util {

/** Parsed view of argv with typed accessors and defaults. */
class CliArgs
{
  public:
    CliArgs() = default;

    /** Parse argv; never throws, malformed values warn and fall back. */
    CliArgs(int argc, char **argv);

    /** True if --name was present in any form. */
    bool has(const std::string &name) const;

    /** String flag with default. */
    std::string get(const std::string &name, const std::string &dflt) const;

    /** Integer flag with default (warns on malformed values). */
    long getInt(const std::string &name, long dflt) const;

    /** Floating-point flag with default (warns on malformed or
     *  non-finite values). */
    double getDouble(const std::string &name, double dflt) const;

    /** Boolean flag: present without value, or value in {0,1,true,false}. */
    bool getBool(const std::string &name, bool dflt) const;

    /** argv entries not consumed as --flags (argv[0] preserved first). */
    const std::vector<std::string> &positional() const { return positional_; }

    /**
     * The first bare word after argv[0] ("" when none): the subcommand
     * of a multi-tool binary ("isingrbm train ...").
     */
    std::string subcommand() const;

    /** True when --help was passed (any value). */
    bool helpRequested() const { return has("help"); }

    /**
     * Flags that were passed but are not in @p known, in command-line
     * order.  Binaries that own their full command line use this to
     * reject typos instead of silently ignoring them.
     */
    std::vector<std::string> unknown(
        const std::vector<std::string> &known) const;

  private:
    std::map<std::string, std::string> flags_;
    std::vector<std::string> flagOrder_;  ///< parse order for unknown()
    std::vector<std::string> positional_;
};

/** One flag's entry in generated --help text. */
struct FlagHelp
{
    std::string name;   ///< flag name without the leading "--"
    std::string value;  ///< value placeholder ("N", "cd|gs|bgf", ...)
    std::string text;   ///< one-line description (include the default)
};

/**
 * Render generated help: a usage banner followed by one aligned line
 * per flag.  The FlagHelp names double as the unknown() allowlist.
 */
std::string usageText(const std::string &usage,
                      const std::vector<FlagHelp> &flags);

/** The FlagHelp names as an unknown() allowlist ("help" included). */
std::vector<std::string> knownFlagNames(const std::vector<FlagHelp> &flags);

/** Parse a comma-separated size list ("96,48"); fatal on malformed. */
std::vector<std::size_t> parseSizeList(const std::string &text);

} // namespace ising::util

#endif // ISINGRBM_UTIL_CLI_HPP
