/**
 * @file
 * Death tests for the PRA_CHECK contract layer (util/check.h).
 *
 * PRA_DCHECK_ENABLED is forced on before the include so the
 * debug-only macro is death-testable from the release test build.
 */

#define PRA_DCHECK_ENABLED 1
#include "util/check.h"

#include <string>

#include <gtest/gtest.h>

namespace {

std::string
countingMessage(int *calls)
{
    ++*calls;
    return "expensive message";
}

TEST(PraCheck, TrueConditionPasses)
{
    PRA_CHECK(1 + 1 == 2, "arithmetic works");
    PRA_CHECK(true, std::string("string messages accepted"));
}

TEST(PraCheckDeathTest, FalseConditionPanicsWithMessage)
{
    EXPECT_DEATH(PRA_CHECK(false, "seeded failure"),
                 "panic: seeded failure");
}

TEST(PraCheckDeathTest, StringExpressionMessage)
{
    const std::string what = "dynamic";
    EXPECT_DEATH(PRA_CHECK(false, "prefix: " + what),
                 "panic: prefix: dynamic");
}

TEST(PraCheck, MessageIsLazyOnSuccess)
{
    int calls = 0;
    PRA_CHECK(true, countingMessage(&calls));
    EXPECT_EQ(calls, 0);
}

TEST(PraCheck, ConditionEvaluatedExactlyOnce)
{
    int evals = 0;
    PRA_CHECK(++evals > 0, "side effects run once");
    EXPECT_EQ(evals, 1);
}

TEST(PraDcheckDeathTest, EnabledDcheckPanics)
{
    EXPECT_DEATH(PRA_DCHECK(false, "debug contract"),
                 "panic: debug contract");
}

TEST(PraDcheck, EnabledDcheckPassesWhenTrue)
{
    PRA_DCHECK(true, "cheap enough here");
}

} // namespace
