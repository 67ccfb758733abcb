#pragma once

// pra-lint: allow(test-only-api) declared only to seed self-contained
int selfContainedValue();
