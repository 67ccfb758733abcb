// The one caller of testOnlyValue: a test, which does not count.
#include "bad_test_only.h"

int
checkTestOnlyValue()
{
    return testOnlyValue(41) == 42;
}
