/**
 * @file
 * Name -> engine-factory registry.
 *
 * Engines register under a *kind* ("dadn", "stripes", "pragmatic",
 * "pragmatic-col", "terms"); a factory turns a knob map (string
 * key=value pairs, e.g. {"bits","2"}) into a configured Engine
 * instance. Factories must reject unknown knob keys with fatal() so
 * CLI typos fail loudly. The built-in engines live in
 * models/engines.h to keep this layer free of backend dependencies.
 */

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"

namespace pra {
namespace sim {

/** Engine configuration knobs as parsed key=value strings. */
using EngineKnobs = std::map<std::string, std::string>;

/** A (kind, knobs) pair naming one engine variant of a sweep grid. */
struct EngineSelection
{
    std::string kind;
    EngineKnobs knobs;
};

/** Registry of engine factories, keyed by kind. */
class EngineRegistry
{
  public:
    using Factory =
        std::function<std::unique_ptr<Engine>(const EngineKnobs &)>;

    /**
     * Register @p factory under @p kind with a one-line @p help
     * string (knob summary); fatal() on duplicate kinds.
     */
    void registerEngine(const std::string &kind,
                        const std::string &help, Factory factory);

    bool has(const std::string &kind) const;

    /** Instantiate @p kind with @p knobs; fatal() on unknown kind. */
    std::unique_ptr<Engine> create(const std::string &kind,
                                   const EngineKnobs &knobs = {}) const;

    /** Instantiate from a selection. */
    std::unique_ptr<Engine> create(const EngineSelection &sel) const
    {
        return create(sel.kind, sel.knobs);
    }

    /** Registered kinds in sorted order. */
    std::vector<std::string> kinds() const;

    /** The help string registered for @p kind. */
    const std::string &help(const std::string &kind) const;

    size_t size() const { return factories_.size(); }

  private:
    struct Entry
    {
        std::string help;
        Factory factory;
    };
    std::map<std::string, Entry> factories_;
};

/**
 * Parse an engine-spec string into a selection. The syntax is
 * "kind[:key=value]*", e.g. "pragmatic:bits=2" or
 * "pragmatic-col:bits=2:ssr=1". fatal() on a malformed knob or a
 * key given twice.
 */
EngineSelection parseEngineSpec(const std::string &spec);

/** Look one knob up as an integer, or @p fallback when absent. */
int64_t knobInt(const EngineKnobs &knobs, const std::string &key,
                int64_t fallback);

/** Look one knob up as a bool ("1"/"0"/"true"/"false"). */
bool knobBool(const EngineKnobs &knobs, const std::string &key,
              bool fallback);

/** Look one knob up as a string, or @p fallback when absent. */
std::string knobString(const EngineKnobs &knobs, const std::string &key,
                       const std::string &fallback);

/**
 * fatal() unless every key of @p knobs appears in @p allowed —
 * factories call this so misspelled knobs are caught.
 */
void requireKnownKnobs(const std::string &kind, const EngineKnobs &knobs,
                       const std::vector<std::string> &allowed);

} // namespace sim
} // namespace pra

