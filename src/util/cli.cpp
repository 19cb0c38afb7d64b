/**
 * @file
 * Flag-parsing implementation.
 */

#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/logging.hpp"

namespace ising::util {

CliArgs::CliArgs(int argc, char **argv)
{
    if (argc > 0)
        positional_.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        const auto eq = body.find('=');
        std::string name, value;
        if (eq != std::string::npos) {
            name = body.substr(0, eq);
            value = body.substr(eq + 1);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            name = body;
            value = argv[++i];
        } else {
            name = body;
        }
        if (!flags_.count(name))
            flagOrder_.push_back(name);
        flags_[name] = value;
    }
}

bool
CliArgs::has(const std::string &name) const
{
    return flags_.count(name) > 0;
}

std::string
CliArgs::get(const std::string &name, const std::string &dflt) const
{
    const auto it = flags_.find(name);
    return it == flags_.end() ? dflt : it->second;
}

long
CliArgs::getInt(const std::string &name, long dflt) const
{
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return dflt;
    if (it->second.empty()) {
        warn(strcat("cli: --", name, " given without a value; using "
                    "default ", dflt));
        return dflt;
    }
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(it->second.c_str(), &end, 10);
    // strtol saturates an out-of-range value to LONG_MIN/LONG_MAX and
    // flags ERANGE; a silently clamped value is as wrong as a
    // malformed one.
    if (!end || *end != '\0' || errno == ERANGE) {
        warn(strcat("cli: malformed integer '", it->second, "' for --",
                    name, "; using default ", dflt));
        return dflt;
    }
    return v;
}

double
CliArgs::getDouble(const std::string &name, double dflt) const
{
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return dflt;
    if (it->second.empty()) {
        warn(strcat("cli: --", name, " given without a value; using "
                    "default ", dflt));
        return dflt;
    }
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    // strtod also parses "nan" and "inf"; a non-finite value would
    // silently disable every comparison gate it feeds (x > NaN is
    // always false), so it counts as malformed too.
    if (!end || *end != '\0' || !std::isfinite(v)) {
        warn(strcat("cli: malformed number '", it->second, "' for --",
                    name, "; using default ", dflt));
        return dflt;
    }
    return v;
}

bool
CliArgs::getBool(const std::string &name, bool dflt) const
{
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return dflt;
    const std::string &v = it->second;
    if (v.empty() || v == "1" || v == "true" || v == "yes")
        return true;
    if (v == "0" || v == "false" || v == "no")
        return false;
    warn(strcat("cli: malformed boolean '", v, "' for --", name,
                "; using default ", dflt ? "true" : "false"));
    return dflt;
}

std::string
CliArgs::subcommand() const
{
    return positional_.size() > 1 ? positional_[1] : "";
}

std::vector<std::string>
CliArgs::unknown(const std::vector<std::string> &known) const
{
    std::vector<std::string> out;
    for (const std::string &name : flagOrder_)
        if (std::find(known.begin(), known.end(), name) == known.end())
            out.push_back(name);
    return out;
}

std::string
usageText(const std::string &usage, const std::vector<FlagHelp> &flags)
{
    std::size_t width = 0;
    std::vector<std::string> heads;
    heads.reserve(flags.size());
    for (const FlagHelp &f : flags) {
        std::string head = "--" + f.name;
        if (!f.value.empty())
            head += " <" + f.value + ">";
        width = std::max(width, head.size());
        heads.push_back(std::move(head));
    }
    std::ostringstream os;
    os << "usage: " << usage << "\n";
    for (std::size_t i = 0; i < flags.size(); ++i) {
        os << "  " << heads[i]
           << std::string(width - heads[i].size() + 2, ' ')
           << flags[i].text << "\n";
    }
    return os.str();
}

std::vector<std::string>
knownFlagNames(const std::vector<FlagHelp> &flags)
{
    std::vector<std::string> names = {"help"};
    for (const FlagHelp &f : flags)
        names.push_back(f.name);
    return names;
}

std::vector<std::size_t>
parseSizeList(const std::string &text)
{
    std::vector<std::size_t> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        // Digits only: strtoul would silently wrap "-1" to ULONG_MAX.
        if (item.empty() ||
            item.find_first_not_of("0123456789") != std::string::npos)
            fatal("cli: malformed size list entry '" + item + "' in '" +
                  text + "'");
        char *end = nullptr;
        const unsigned long v = std::strtoul(item.c_str(), &end, 10);
        if (!end || *end != '\0' || v == 0 || v > (1ul << 24))
            fatal("cli: size list entry '" + item + "' out of range in '" +
                  text + "'");
        out.push_back(static_cast<std::size_t>(v));
    }
    if (out.empty())
        fatal("cli: empty size list '" + text + "'");
    return out;
}

} // namespace ising::util
