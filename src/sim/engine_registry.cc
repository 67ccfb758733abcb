#include "sim/engine_registry.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace sim {

void
EngineRegistry::registerEngine(const std::string &kind,
                               const std::string &help, Factory factory)
{
    PRA_CHECK(!kind.empty() && static_cast<bool>(factory),
                         "EngineRegistry: bad registration");
    auto [it, inserted] = factories_.emplace(
        kind, Entry{help, std::move(factory)});
    (void)it;
    PRA_CHECK(inserted, "EngineRegistry: duplicate kind '" +
                                       kind + "'");
}

bool
EngineRegistry::has(const std::string &kind) const
{
    return factories_.count(kind) != 0;
}

std::unique_ptr<Engine>
EngineRegistry::create(const std::string &kind,
                       const EngineKnobs &knobs) const
{
    auto it = factories_.find(kind);
    if (it == factories_.end())
        util::fatal("unknown engine '" + kind + "'");
    std::unique_ptr<Engine> engine = it->second.factory(knobs);
    PRA_CHECK(static_cast<bool>(engine),
                         "EngineRegistry: factory returned null");
    return engine;
}

std::vector<std::string>
EngineRegistry::kinds() const
{
    std::vector<std::string> names;
    names.reserve(factories_.size());
    for (const auto &[kind, entry] : factories_)
        names.push_back(kind);
    return names; // std::map iterates sorted.
}

const std::string &
EngineRegistry::help(const std::string &kind) const
{
    auto it = factories_.find(kind);
    if (it == factories_.end())
        util::fatal("unknown engine '" + kind + "'");
    return it->second.help;
}

EngineSelection
parseEngineSpec(const std::string &spec)
{
    EngineSelection sel;
    size_t pos = spec.find(':');
    sel.kind = spec.substr(0, pos);
    if (sel.kind.empty())
        util::fatal("empty engine spec");
    while (pos != std::string::npos) {
        size_t start = pos + 1;
        pos = spec.find(':', start);
        std::string pair =
            spec.substr(start, pos == std::string::npos
                                   ? std::string::npos
                                   : pos - start);
        size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0)
            util::fatal("bad engine knob '" + pair + "' in '" + spec +
                        "' (expected key=value)");
        const std::string key = pair.substr(0, eq);
        if (!sel.knobs.emplace(key, pair.substr(eq + 1)).second)
            util::fatal("engine knob '" + key + "' repeated in '" + spec +
                        "'");
    }
    return sel;
}

int64_t
knobInt(const EngineKnobs &knobs, const std::string &key,
        int64_t fallback)
{
    auto it = knobs.find(key);
    if (it == knobs.end())
        return fallback;
    try {
        size_t used = 0;
        int64_t value = std::stoll(it->second, &used);
        if (used != it->second.size())
            throw std::invalid_argument(it->second);
        return value;
    } catch (const std::exception &) {
        util::fatal("knob '" + key + "': not an integer: '" +
                    it->second + "'");
    }
}

bool
knobBool(const EngineKnobs &knobs, const std::string &key, bool fallback)
{
    auto it = knobs.find(key);
    if (it == knobs.end())
        return fallback;
    const std::string &v = it->second;
    if (v == "1" || v == "true")
        return true;
    if (v == "0" || v == "false")
        return false;
    util::fatal("knob '" + key + "': not a bool: '" + v + "'");
}

std::string
knobString(const EngineKnobs &knobs, const std::string &key,
           const std::string &fallback)
{
    auto it = knobs.find(key);
    return it == knobs.end() ? fallback : it->second;
}

void
requireKnownKnobs(const std::string &kind, const EngineKnobs &knobs,
                  const std::vector<std::string> &allowed)
{
    for (const auto &[key, value] : knobs) {
        (void)value;
        if (std::find(allowed.begin(), allowed.end(), key) ==
            allowed.end())
            util::fatal("engine '" + kind + "': unknown knob '" + key +
                        "'");
    }
}

} // namespace sim
} // namespace pra
