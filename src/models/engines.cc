#include "models/engines.h"

#include "models/analytic/term_count_engine.h"
#include "models/dadn/dadn.h"
#include "models/dynamic_stripes/dynamic_stripes.h"
#include "models/laconic/laconic.h"
#include "models/pragmatic/pragmatic_engine.h"
#include "models/stripes/stripes.h"
#include "util/args.h"
#include "util/logging.h"

namespace pra {
namespace models {

void
registerBuiltinEngines(sim::EngineRegistry &registry)
{
    registry.registerEngine(
        "dadn", "bit-parallel DaDianNao baseline (no knobs)",
        [](const sim::EngineKnobs &knobs) {
            return std::make_unique<DadnEngine>(knobs);
        });
    registry.registerEngine(
        "stripes",
        "bit-serial Stripes baseline [repr=fixed16|quant8]",
        [](const sim::EngineKnobs &knobs) {
            return std::make_unique<StripesEngine>(knobs);
        });
    registry.registerEngine(
        "dynamic_stripes",
        "runtime per-group precision Stripes [granularity=N|layer "
        "column-regs=N leading-bit=0|1 diffy=0|1]",
        [](const sim::EngineKnobs &knobs) {
            return std::make_unique<DynamicStripesEngine>(knobs);
        });
    registry.registerEngine(
        "laconic",
        "both-operand essential-bit term serialization (no knobs)",
        [](const sim::EngineKnobs &knobs) {
            return std::make_unique<LaconicEngine>(knobs);
        });
    registry.registerEngine(
        "pragmatic",
        "Pragmatic, pallet sync [bits=0..4 trim=0|1 "
        "repr=fixed16|quant8 nmstalls=0|1]",
        [](const sim::EngineKnobs &knobs) {
            return std::make_unique<PragmaticEngine>(SyncScheme::Pallet,
                                                     knobs);
        });
    registry.registerEngine(
        "pragmatic-col",
        "Pragmatic, per-column sync [ssr=N plus pragmatic knobs]",
        [](const sim::EngineKnobs &knobs) {
            return std::make_unique<PragmaticEngine>(
                SyncScheme::PerColumn, knobs);
        });
    registry.registerEngine(
        "terms",
        "analytic term counts [series=dadn|zn|cvn|stripes|pra|pra-red]",
        [](const sim::EngineKnobs &knobs) {
            return std::make_unique<TermCountEngine>(knobs);
        });
}

const sim::EngineRegistry &
builtinEngines()
{
    static const sim::EngineRegistry registry = [] {
        sim::EngineRegistry r;
        registerBuiltinEngines(r);
        return r;
    }();
    return registry;
}

std::vector<sim::EngineSelection>
paperEngineGrid()
{
    std::vector<sim::EngineSelection> grid;
    grid.push_back({"dadn", {}});
    grid.push_back({"stripes", {}});
    for (int l = 0; l <= 4; l++)
        grid.push_back({"pragmatic", {{"bits", std::to_string(l)}}});
    grid.push_back({"pragmatic-col", {{"bits", "2"}, {"ssr", "1"}}});
    return grid;
}

std::vector<sim::EngineSelection>
coreEngineGrid()
{
    // Frozen expansion of "--engines=all" (see the header comment):
    // the five kinds that existed when the smoke goldens were
    // committed, default knobs, sorted order.
    return {{"dadn", {}},
            {"pragmatic", {}},
            {"pragmatic-col", {}},
            {"stripes", {}},
            {"terms", {}}};
}

std::vector<sim::EngineSelection>
parseEngineList(const std::string &list)
{
    if (list == "paper")
        return paperEngineGrid();
    if (list == "all")
        return coreEngineGrid();
    std::vector<sim::EngineSelection> grid;
    for (const auto &spec : util::splitList(list)) {
        grid.push_back(sim::parseEngineSpec(spec));
        builtinEngines().create(grid.back()); // Knob errors fail here.
    }
    if (grid.empty())
        util::fatal("no engines selected");
    return grid;
}

} // namespace models
} // namespace pra
