// A function no program calls, kept as deliberate API: the
// allow(test-only-api) comment must keep the rule silent.
#pragma once

// pra-lint: allow(test-only-api) fixture demo of deliberate API
int deliberateApiValue();
