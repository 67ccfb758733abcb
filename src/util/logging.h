/**
 * @file
 * Logging and error-reporting helpers.
 *
 * Follows the gem5 convention: fatal() is for user errors (bad
 * configuration, invalid arguments) and exits cleanly; panic() is for
 * internal invariant violations and aborts. warn() reports a
 * questionable condition without stopping the simulation.
 */

#pragma once

#include <string>

namespace pra {
namespace util {

/**
 * Something is questionable but the run can continue: prints
 * "warn: " and @p msg on stderr.
 */
void warn(const std::string &msg);

/**
 * Report an unrecoverable *user* error (bad configuration, bad
 * arguments) and exit with status 1.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report an internal invariant violation (a simulator bug) and abort.
 */
[[noreturn]] void panic(const std::string &msg);

} // namespace util
} // namespace pra

