/**
 * @file
 * The built-in engine registry: every cycle/term model in src/models
 * registered behind the sim::Engine interface.
 *
 * Kinds (see each engine's header for knobs):
 *   dadn             bit-parallel DaDianNao baseline
 *   stripes          bit-serial Stripes baseline
 *   dynamic_stripes  Stripes with runtime per-group precision
 *   pragmatic        Pragmatic, pallet synchronization
 *   pragmatic-col    Pragmatic, per-column synchronization (SSRs)
 *   laconic          both-operand essential-bit term serialization
 *   terms            analytic term-count model (work, not cycles)
 */

#pragma once

#include "sim/engine_registry.h"

namespace pra {
namespace models {

/** Register the built-in engine kinds into @p registry. */
void registerBuiltinEngines(sim::EngineRegistry &registry);

/** The shared, immutable registry of built-in engines. */
const sim::EngineRegistry &builtinEngines();

/**
 * The paper's headline design points as a default sweep grid:
 * DaDN, Stripes, PRA-0b..4b (pallet) and PRA-2b-1R (column).
 */
std::vector<sim::EngineSelection> paperEngineGrid();

/**
 * The historical five-kind grid "--engines=all" expands to: dadn,
 * pragmatic, pragmatic-col, stripes, terms with default knobs, in
 * registry (sorted) order. Deliberately frozen: the committed smoke
 * goldens and the CI row counts pin this expansion, so newly
 * registered kinds (dynamic_stripes, laconic) must NOT grow it —
 * select them explicitly instead.
 */
std::vector<sim::EngineSelection> coreEngineGrid();

/**
 * Parse an --engines= value: "paper" (paperEngineGrid), "all"
 * (coreEngineGrid) or a comma-separated list of engine specs
 * (sim::parseEngineSpec). fatal() on a bad spec, an unknown kind or
 * knob, or when the list names no engine (e.g. ",").
 */
std::vector<sim::EngineSelection> parseEngineList(const std::string &list);

} // namespace models
} // namespace pra

