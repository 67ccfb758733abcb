/**
 * @file
 * The command-line front end of every program that prices a grid:
 * pra_sweep, pra_serve, the sweep-path benches and the design-space
 * explorer read their shared flags here, so each flag has one
 * spelling, one default rule and one error message.
 *
 *   --networks=all|a,b            (default: all six; tiny with --smoke)
 *   --layers=conv|fc|all          (default: conv)
 *   --activations=synthetic|propagated
 *   --threads=N  --cache=on|off   --memory=PRESET
 *   --units=N | --full            --seed=S  --smoke
 *
 * Propagated activations run the whole layer pipeline, so they imply
 * --layers=all and reject any other explicit --layers value.
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "dnn/network.h"
#include "sim/engine_registry.h"
#include "sim/sweep.h"
#include "util/args.h"

namespace pra {
namespace sim {

/** The flags parseGridFlags reads, for a program's checkUnknown. */
inline const std::vector<std::string> kGridFlags = {
    "networks", "layers", "activations", "threads", "cache",
    "memory",   "units",  "full",        "seed",    "smoke"};

/**
 * Read the grid flags of @p args into @p options and return the
 * selected networks. The sampling cap defaults to @p default_units,
 * or @p smoke_units under --smoke. fatal() on a bad value: a
 * non-positive --threads or --units, a negative --seed, an unknown
 * network, layer kind, activation mode or memory preset, or
 * propagated activations with a filtered --layers.
 */
std::vector<dnn::Network> parseGridFlags(const util::ArgParser &args,
                                         GridOptions &options,
                                         int64_t default_units,
                                         int64_t smoke_units);

/**
 * Write the engine kinds of @p registry for --list-engines, or the
 * memory presets for --list-memory, to @p out. Returns whether
 * either was asked for (the program then exits).
 */
bool printListing(const util::ArgParser &args,
                  const EngineRegistry &registry, std::ostream &out);

} // namespace sim
} // namespace pra
