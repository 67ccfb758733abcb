#!/usr/bin/env python3
"""Repo-specific determinism and hygiene linter.

Every figure this repo reproduces is pinned byte-identical across
threads, caches, and cycle planes, so the simulated ("priced") paths
must be free of wall-clock reads, platform randomness, environment
lookups, hash-order iteration, and float rounding in integer counts.
CI used to discover violations as golden-file mismatches; this linter
catches them at review time instead.

Usage:

    python3 tools/pra_lint.py              # lint the repo, exit 1 on findings
    python3 tools/pra_lint.py --list-rules # describe every rule
    python3 tools/pra_lint.py --self-test  # run against the seeded fixtures

Suppression: append

    // pra-lint: allow(<rule>[,<rule>]) <reason>

to the offending line, or place it alone on the line above. Always
give a reason; unexplained suppressions are rejected in review.

Findings print as ``path:line: [rule] message`` so they are clickable
in editors and CI logs. The seeded-violation fixtures live in
``tests/tools/lint_fixtures/`` (one violation per rule plus
``suppressed_*`` files that must stay silent); ``--self-test`` fails if any
rule fires more or less than exactly once there, so the linter itself
cannot rot.
"""

import argparse
import functools
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Directories scanned under the root, and the extensions that count.
SCAN_DIRS = ("src", "tools", "bench", "examples", "tests")
EXTENSIONS = {".cc", ".cpp", ".h"}

# The seeded-violation fixtures are linted only by --self-test.
FIXTURE_DIR = "tests/tools/lint_fixtures"

ALLOW_RE = re.compile(r"//\s*pra-lint:\s*allow\(([a-z0-9\-,\s]+)\)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(lines):
    """Return lines with // and /* */ comment text blanked out.

    Keeps line count and column positions stable so findings point at
    the real location; does not parse string literals (a pattern inside
    a string would be a deliberate oddity worth a suppression anyway).
    """
    out = []
    in_block = False
    for line in lines:
        buf = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    buf.append(" " * (len(line) - i))
                    i = len(line)
                else:
                    buf.append(" " * (end + 2 - i))
                    in_block = False
                    i = end + 2
            else:
                block = line.find("/*", i)
                lcom = line.find("//", i)
                if lcom != -1 and (block == -1 or lcom < block):
                    buf.append(line[i:lcom] + " " * (len(line) - lcom))
                    i = len(line)
                elif block != -1:
                    buf.append(line[i:block])
                    in_block = True
                    i = block + 2
                else:
                    buf.append(line[i:])
                    i = len(line)
        out.append("".join(buf))
    return out


def allowed_rules(lines, idx):
    """Rules suppressed for code line ``idx`` (same line or line above)."""
    rules = set()
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_RE.search(lines[probe])
            if m:
                # A line-above suppression must be a comment-only line.
                if probe == idx - 1 and not lines[probe].strip().startswith("//"):
                    continue
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


# ---------------------------------------------------------------------------
# Rules. Each is (id, scope-predicate, check-function, description).
# A check receives (relpath, raw_lines, code_lines) and yields
# (line_number, message) pairs; suppressions are applied by the driver.
# ---------------------------------------------------------------------------


def in_dirs(*prefixes):
    def pred(rel):
        return any(rel.startswith(p) for p in prefixes)

    return pred


def grep_rule(pattern, message):
    rx = re.compile(pattern)

    def check(rel, raw, code):
        for i, line in enumerate(code):
            if rx.search(line):
                yield i + 1, message

    return check


WALL_CLOCK = (
    r"(steady_clock|system_clock|high_resolution_clock)\s*::\s*now"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|(?<![\w:.])time\s*\(\s*(NULL|nullptr|0)?\s*\)"
    r"|(?<![\w:.])clock\s*\(\s*\)"
)

RANDOMNESS = (
    r"std::random_device|random_device\s+\w"
    r"|(?<![\w:.])s?rand\s*\("
    r"|std::s?rand\b"
    r"|\b[dlm]rand48\s*\("
    r"|std::mt19937|std::minstd_rand"
    r"|std::(uniform_(int|real)|normal|poisson)_distribution"
)

GETENV = r"(?<![\w:.])(secure_)?getenv\s*\(|std::getenv\b"

POPCOUNT = r"\bstd::popcount\b|\b__builtin_popcount\w*"

# The one place a popcount may be spelled out (util::popcount16).
BITS_HEADER = "src/util/bits.h"

STDOUT_IN_LIB = (
    r"std::cout"
    r"|std::printf\b"
    r"|(?<![\w:.])printf\s*\("
    r"|(?<![\w:.])puts\s*\("
)


def check_unordered_iteration(rel, raw, code):
    text = "\n".join(code)
    names = set(
        m.group(2)
        for m in re.finditer(
            r"unordered_(map|set)\s*<[^;{]*>\s*(\w+)\s*[;{(=]", text
        )
    )
    if not names:
        return
    name_rx = re.compile(
        r"for\s*\([^;)]*:\s*[\w.\->]*\b(" + "|".join(names) + r")\b"
        r"|\b(" + "|".join(names) + r")\s*\.\s*c?begin\s*\("
    )
    for i, line in enumerate(code):
        m = name_rx.search(line)
        if m:
            name = m.group(1) or m.group(2)
            yield i + 1, (
                f"iteration over unordered container '{name}': hash order "
                "is nondeterministic and must not feed CSV/JSON output; "
                "use std::map/std::set or sort first"
            )


FLOAT_COUNT_RX = re.compile(
    r"\b(float|double)\s+(\w*(?:[Cc]ycles?|[Bb]ytes?|[Cc]ount)\w*)\b\s*(.)?"
)


def check_float_count(rel, raw, code):
    for i, line in enumerate(code):
        for m in FLOAT_COUNT_RX.finditer(line):
            # Function declarations returning double (the sanctioned
            # sampling-scale boundary, see sim/layer_result.h) are
            # excluded: the name is followed by '('.
            if m.group(3) == "(":
                continue
            yield i + 1, (
                f"'{m.group(2)}' holds a cycle/byte count in "
                f"{m.group(1)}: kernel-path accounting must be integer "
                "exact (int64_t); scale by sampleScale only at the "
                "LayerResult boundary"
            )


def check_pragma_once(rel, raw, code):
    if not rel.endswith(".h"):
        return
    for i, line in enumerate(code):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped != "#pragma once":
            yield i + 1, (
                "header must open with '#pragma once' (before any other "
                "directive or declaration)"
            )
        return


INCLUDE_RX = re.compile(r'#include\s+["<]([^">]+)[">]')


def check_self_contained(rel, raw, code):
    if not (rel.endswith(".cc") or rel.endswith(".cpp")):
        return
    stem = rel.rsplit(".", 1)[0]
    header = stem + ".h"
    if not (REPO_ROOT / header).exists():
        return
    # Includes are rooted at src/, mirroring the build include path.
    expected = header.split("/", 1)[1] if "/" in header else header
    for i, line in enumerate(code):
        m = INCLUDE_RX.search(line)
        if not m:
            continue
        if m.group(1) != expected:
            yield i + 1, (
                f'first include must be own header "{expected}" so the '
                "header stays self-contained (compiles standalone)"
            )
        return


def check_arg_unknown(rel, raw, code):
    text = "\n".join(code)
    m = re.search(r"\bArgParser\s+\w+\s*\(", text)
    if not m:
        return
    if "checkUnknown" in text:
        return
    line = text[: m.start()].count("\n") + 1
    yield line, (
        "ArgParser constructed without a checkUnknown() call: typoed "
        "flags would be silently ignored"
    )


# test-only-api reads references in perfbench/ too; it is never linted.
REFERENCE_DIRS = SCAN_DIRS + ("perfbench",)

# A quote after a word character is a digit separator (0b1000'0001).
STRING_RX = re.compile(r'"(?:\\.|[^"\\])*"|(?<!\w)\'(?:\\.|[^\'\\])*\'')
SCOPE_TOKEN_RX = re.compile(r"[{};]")
CALL_RX = re.compile(r"([A-Za-z_]\w*)\s*\(")
WORD_RX = re.compile(r"[A-Za-z_]\w*")
ACCESS_RX = re.compile(r"\b(?:public|private|protected)\s*:(?!:)")
ATTRIBUTE_RX = re.compile(r"\[\[.*?\]\]", re.DOTALL)
CLASS_HEAD_RX = re.compile(
    r"^\s*(?:template\s*<.*>\s*)?(?:class|struct|union|enum)\b", re.DOTALL
)
# Words before a '(' that do not name a declared function.
NOT_A_FUNCTION = {
    "alignas", "alignof", "bool", "char", "decltype", "double", "float",
    "int", "long", "noexcept", "operator", "requires", "short", "sizeof",
    "static_assert", "void",
}
# Words that may precede a function name without being its return type.
SPECIFIERS = {"constexpr", "explicit", "extern", "inline", "static", "virtual"}


def code_text(raw):
    """``(code, directives)`` of a file, comments and string and
    character literals blanked: ``code`` with its preprocessor lines
    blanked too (offsets kept), ``directives`` those lines alone."""
    code, directives = [], []
    continued = False
    for line in strip_comments(raw):
        line = STRING_RX.sub(lambda m: " " * len(m.group()), line)
        directive = continued or line.lstrip().startswith("#")
        continued = directive and line.rstrip().endswith("\\")
        code.append(" " * len(line) if directive else line)
        if directive:
            directives.append(line)
    return "\n".join(code), "\n".join(directives)


def function_name(head, in_class):
    """``(offset, qualified)`` of the function that the declaration or
    definition ``head`` names, or None. In a class body only static
    members count; ``qualified`` marks an out-of-class ``C::f``."""
    m = CALL_RX.search(head)
    if not m or m.group(1) in NOT_A_FUNCTION:
        return None
    prefix = ATTRIBUTE_RX.sub(" ", ACCESS_RX.sub(" ", head[: m.start()]))
    words = WORD_RX.findall(prefix)
    if (
        "=" in prefix
        or prefix.rstrip().endswith("~")
        or {"using", "typedef", "friend", "return"} & set(words)
        or not set(words) - SPECIFIERS
        or (in_class and "static" not in words)
    ):
        return None
    return m.start(1), prefix.rstrip().endswith("::")


def function_declarations(code):
    """``(name, offset, qualified)`` of each free function and static
    member function declared or defined at namespace or class scope
    of ``code`` (see code_text)."""
    decls = []
    stack = []  # "namespace", "class" or "body" per open brace
    start = 0
    for m in SCOPE_TOKEN_RX.finditer(code):
        pos = m.start()
        if m.group() == "}":
            if stack:
                stack.pop()
            start = pos + 1
            continue
        head = code[start:pos]
        if "body" not in stack:
            found = function_name(head, bool(stack) and stack[-1] == "class")
            if found:
                offset, qualified = found
                name = WORD_RX.match(head, offset).group()
                decls.append((name, start + offset, qualified))
        if m.group() == "{":
            if "body" in stack:
                kind = "body"
            elif re.search(r"\b(namespace|extern)\b", head):
                kind = "namespace"
            elif CLASS_HEAD_RX.match(ACCESS_RX.sub(" ", head)):
                kind = "class"
            else:
                kind = "body"
            stack.append(kind)
        start = pos + 1
    return decls


@functools.lru_cache(maxsize=None)
def test_only_findings(root):
    """Map of header path -> [(line, message)] for test-only-api.

    A free function or static member function declared in a src/
    header is test-only when no file outside tests/ names it, other
    than where a src/ file declares or defines it. Macro bodies count.
    Matching is by name, so an overload or a same-named static of
    another class keeps a function alive; a member access
    (``x.name``) does not.
    """
    texts = {
        rel: code_text(path.read_text(encoding="utf-8").split("\n"))
        for path, rel in scan_files(root, REFERENCE_DIRS)
        if not rel.startswith("tests/")
    }
    sites = {}  # src/ file -> offsets of its declarations, definitions
    decls = {}  # (header, name) -> offset of its first declaration
    for rel, (code, _) in texts.items():
        if not rel.startswith("src/"):
            continue
        found = function_declarations(code)
        sites[rel] = {offset for _, offset, _ in found}
        if rel.endswith(".h"):
            for name, offset, qualified in found:
                if not qualified:
                    decls.setdefault((rel, name), offset)
    if not decls:
        return {}
    names = sorted({name for _, name in decls})
    use_rx = re.compile(
        r"(?<![\w.])(?<!->)(" + "|".join(map(re.escape, names)) + r")\b"
    )
    used = set()
    for rel, (code, directives) in texts.items():
        not_uses = sites.get(rel, ())
        for m in use_rx.finditer(code):
            if m.start() not in not_uses:
                used.add(m.group(1))
        used.update(m.group(1) for m in use_rx.finditer(directives))
    findings = {}
    for (header, name), offset in sorted(decls.items()):
        if name in used:
            continue
        line = texts[header][0].count("\n", 0, offset) + 1
        findings.setdefault(header, []).append(
            (
                line,
                f"'{name}' has no reference outside tests/ and its own "
                "declaration and definition: move it into a tests/ "
                "header, or mark deliberate API with an allow comment",
            )
        )
    return findings


def check_test_only_api(rel, raw, code):
    yield from test_only_findings(REPO_ROOT).get(rel, [])


RULES = [
    (
        "wall-clock",
        in_dirs("src/"),
        grep_rule(
            WALL_CLOCK,
            "wall-clock read in a priced path: results must not depend "
            "on real time (benches time phases outside src/)",
        ),
        "No std::chrono `::now()`, time(), clock(), gettimeofday() or "
        "clock_gettime() under src/ — simulated results must never "
        "depend on real time.",
    ),
    (
        "randomness",
        in_dirs("src/"),
        grep_rule(
            RANDOMNESS,
            "platform randomness in a priced path: use the seeded "
            "util/random.h xoshiro generator",
        ),
        "No rand()/srand(), std::random_device, or <random> engines / "
        "distributions under src/ — only the portable seeded generator "
        "in util/random.h.",
    ),
    (
        "getenv",
        in_dirs("src/"),
        grep_rule(
            GETENV,
            "getenv in library code: configuration must arrive through "
            "explicit parameters, never ambient environment",
        ),
        "No getenv() under src/ — all configuration flows through "
        "explicit arguments so runs are reproducible from the command "
        "line alone.",
    ),
    (
        "std-popcount",
        lambda rel: rel.startswith("src/") and rel != BITS_HEADER,
        grep_rule(
            POPCOUNT,
            "library popcount: without POPCNT in the baseline ISA it "
            "is an out-of-line libgcc call that keeps the loop scalar; "
            "use util::popcount16 (util/bits.h)",
        ),
        "No std::popcount or __builtin_popcount* under src/ outside "
        "util/bits.h — on the x86-64 baseline they compile to a "
        "libgcc call; util::popcount16 inlines and vectorizes.",
    ),
    (
        "unordered-iteration",
        in_dirs("src/", "tools/", "bench/"),
        check_unordered_iteration,
        "No iteration over std::unordered_{map,set} in code that can "
        "feed CSV/JSON output (src/, tools/, bench/) — hash order is "
        "nondeterministic across platforms.",
    ),
    (
        "float-count",
        in_dirs("src/models/", "src/fixedpoint/"),
        check_float_count,
        "No float/double variables holding cycle/byte/count totals in "
        "the kernel paths (src/models/, src/fixedpoint/) — accounting "
        "is int64-exact; doubles appear only at the sampling-scale "
        "boundary (sim/layer_result.h).",
    ),
    (
        "stdout-in-lib",
        in_dirs("src/"),
        grep_rule(
            STDOUT_IN_LIB,
            "stdout write in library code: return data or take an "
            "ostream; status goes through util/logging.h (stderr)",
        ),
        "No std::cout / printf / puts under src/ — library code "
        "returns data or writes caller-supplied streams; status "
        "messages use util/logging.h.",
    ),
    (
        "pragma-once",
        in_dirs(*[d + "/" for d in SCAN_DIRS]),
        check_pragma_once,
        "Every header opens with `#pragma once` before any other "
        "directive or declaration.",
    ),
    (
        "self-contained",
        in_dirs("src/"),
        check_self_contained,
        "A foo.cc with a sibling foo.h includes that header first, "
        "keeping every header self-contained (it must compile "
        "standalone).",
    ),
    (
        "arg-check-unknown",
        in_dirs("tools/", "bench/", "examples/"),
        check_arg_unknown,
        "Every file constructing a util::ArgParser calls "
        "checkUnknown() so typoed flags fail loudly.",
    ),
    (
        "test-only-api",
        lambda rel: rel.startswith("src/") and rel.endswith(".h"),
        check_test_only_api,
        "Every free function and static member function declared in a "
        "src/ header is named outside tests/ (src/, tools/, bench/, "
        "examples/, perfbench/) beyond its own declaration and "
        "definition — test-only oracles live in tests/ headers.",
    ),
]

# Module-level root so check_self_contained can test file existence;
# set per run (the self-test points it at the fixture tree).
REPO_ROOT = REPO


def scan_files(root, dirs=SCAN_DIRS):
    for d in dirs:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in EXTENSIONS:
                continue
            rel = path.relative_to(root).as_posix()
            if rel.startswith(FIXTURE_DIR) and root == REPO:
                continue
            yield path, rel


def lint(root):
    global REPO_ROOT
    REPO_ROOT = root
    findings = []
    for path, rel in scan_files(root):
        raw = path.read_text(encoding="utf-8").split("\n")
        code = strip_comments(raw)
        for rule_id, scope, check, _ in RULES:
            if not scope(rel):
                continue
            for line, message in check(rel, raw, code):
                if rule_id in allowed_rules(raw, line - 1):
                    continue
                findings.append(Finding(rel, line, rule_id, message))
    return findings


def self_test():
    root = REPO / FIXTURE_DIR
    if not root.is_dir():
        print(f"pra_lint --self-test: missing {FIXTURE_DIR}", file=sys.stderr)
        return 1
    findings = lint(root)
    by_rule = {}
    for f in findings:
        by_rule.setdefault(f.rule, []).append(f)
    failures = []
    for rule_id, _, _, _ in RULES:
        hits = by_rule.pop(rule_id, [])
        if len(hits) != 1:
            failures.append(
                f"rule '{rule_id}' fired {len(hits)} times in fixtures "
                "(expected exactly 1): "
                + ("; ".join(str(h) for h in hits) or "never")
            )
    for rule_id, hits in by_rule.items():
        failures.append(f"unknown rule id '{rule_id}' in findings: {hits}")
    suppressed = [
        f for f in findings if Path(f.path).name.startswith("suppressed_")
    ]
    if suppressed:
        failures.append(
            "suppressed_* fixtures must stay silent but produced: "
            + "; ".join(str(f) for f in suppressed)
        )
    if failures:
        print("pra_lint --self-test FAILED:", file=sys.stderr)
        for msg in failures:
            print("  " + msg, file=sys.stderr)
        return 1
    print(
        f"pra_lint --self-test: OK — {len(RULES)} rules each tripped "
        "exactly once, suppressions honored"
    )
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--root", type=Path, default=REPO, help="tree to lint (default: repo)"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe every rule"
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="lint the seeded fixtures and assert one finding per rule",
    )
    args = parser.parse_args()

    if args.list_rules:
        for rule_id, _, _, desc in RULES:
            print(f"{rule_id}:\n    {desc}")
        return 0
    if args.self_test:
        return self_test()

    findings = lint(args.root.resolve())
    for f in findings:
        print(f)
    if findings:
        print(
            f"pra_lint: {len(findings)} finding(s); suppress a "
            "deliberate use with '// pra-lint: allow(<rule>) <reason>'",
            file=sys.stderr,
        )
        return 1
    print("pra_lint: OK — no findings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
