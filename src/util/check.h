/**
 * @file
 * Invariant-check macros: the repo's single contract layer.
 *
 * PRA_CHECK replaces the old util::checkInvariant overload pair. It is
 * active in release builds — the simulator's numbers are meaningless if
 * its invariants do not hold — and lazily materializes the message, so
 * hot paths (per-element tensor accesses, inner scheduling loops) never
 * pay a std::string construction on the success path. Both macros
 * report through util::panic(), which aborts, making every invariant
 * death-testable with EXPECT_DEATH.
 *
 * PRA_DCHECK is for checks too expensive for release hot loops; it
 * compiles away under NDEBUG unless PRA_DCHECK_ENABLED=1 is defined
 * first (tests force it on to death-test debug-only contracts).
 */

#pragma once

#include "util/logging.h"

/**
 * Check an internal invariant; panic (abort) with @p msg when @p cond
 * is false. @p msg may be a literal or any std::string expression —
 * it is evaluated only on failure.
 */
#define PRA_CHECK(cond, msg)                                              \
    do {                                                                  \
        if (!(cond)) [[unlikely]]                                         \
            ::pra::util::panic((msg));                                    \
    } while (0)

/*
 * PRA_DCHECK_ENABLED defaults to "on in debug builds"; define it to 1
 * before including this header to force debug checks into a release
 * translation unit (the death tests do).
 */
#ifndef PRA_DCHECK_ENABLED
#ifdef NDEBUG
#define PRA_DCHECK_ENABLED 0
#else
#define PRA_DCHECK_ENABLED 1
#endif
#endif

#if PRA_DCHECK_ENABLED
#define PRA_DCHECK(cond, msg) PRA_CHECK(cond, msg)
#else
/** Debug-only check: compiled out, operands never evaluated. */
#define PRA_DCHECK(cond, msg)                                             \
    do {                                                                  \
        (void)sizeof(!(cond));                                            \
        (void)sizeof((msg));                                              \
    } while (0)
#endif
