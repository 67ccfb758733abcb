// Defines the seeded test-only function; a definition is not a use.
#include "bad_test_only.h"

int
testOnlyValue(int x)
{
    return x + 1;
}
