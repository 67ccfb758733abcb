/**
 * @file
 * A tiny command-line flag parser shared by benches and examples.
 *
 * Flags look like "--name=value"; bare "--name" sets a boolean.
 * Anything else is a positional argument. ("--name value" is
 * deliberately unsupported: it is ambiguous against positionals.)
 *
 * Programs declare the flags they understand with checkUnknown():
 * a misspelled flag ("--smke") then fails loudly instead of silently
 * running with defaults, and --help lists them.
 */

#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace pra {
namespace util {

/** The non-empty items of a comma-separated @p list, in order. */
std::vector<std::string> splitList(const std::string &list);

/** Parsed command-line arguments. */
class ArgParser
{
  public:
    /** Parse argv; fatal() on malformed or repeated flags. */
    ArgParser(int argc, const char *const *argv);

    bool has(const std::string &name) const;

    /** String flag value, or @p fallback when absent. */
    std::string getString(const std::string &name,
                          const std::string &fallback = "") const;

    /** Integer flag value, or @p fallback when absent. */
    int64_t getInt(const std::string &name, int64_t fallback) const;

    /** Double flag value, or @p fallback when absent. */
    double getDouble(const std::string &name, double fallback) const;

    /**
     * Boolean flag: present without value, or
     * "true"/"false"/"1"/"0"/"yes"/"no"/"on"/"off".
     */
    bool getBool(const std::string &name, bool fallback = false) const;

    /**
     * The sampling cap set by the --units/--full pair: 0 (exhaustive)
     * under --full, else --units or @p fallback when absent. fatal()
     * on a non-positive --units, which must not silently mean "price
     * everything" — that is --full's job.
     */
    int64_t sampleUnits(int64_t fallback) const;

    /**
     * An int flag (a count, size or budget), @p fallback when absent;
     * fatal() below @p min ("--name must be <what>") or above INT_MAX.
     */
    int getCount(const std::string &name, int fallback, int min,
                 const std::string &what) const;

    /**
     * fatal() when any parsed flag is not in @p known — call once,
     * after construction, with every flag the program understands.
     * The error names the closest known flag when one is plausible.
     * When @p help is given and --help was passed, write the known
     * flags to it instead, sorted, one "--name" per line, and exit 0.
     */
    void checkUnknown(const std::vector<std::string> &known,
                      std::ostream *help = nullptr) const;

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    const std::string &programName() const { return program_; }

  private:
    std::string program_;
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

} // namespace util
} // namespace pra

