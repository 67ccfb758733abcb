// Seeded violation: a library function that only a test names.
#pragma once

int testOnlyValue(int x);
