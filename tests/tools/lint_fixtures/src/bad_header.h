// Seeded violation: old-style include guard instead of #pragma once.
#ifndef PRA_LINT_FIXTURE_BAD_HEADER_H
#define PRA_LINT_FIXTURE_BAD_HEADER_H

// pra-lint: allow(test-only-api) declared only to seed pragma-once
int fixtureValue();

#endif // PRA_LINT_FIXTURE_BAD_HEADER_H
