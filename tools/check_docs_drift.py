#!/usr/bin/env python3
"""Fail when README.md and the code disagree.

The flags are the shared lists of the library (any ``k<Name>Flags =
{...}`` under ``src/``: ``kGridFlags`` in ``src/sim/grid_flags.h``,
``kServingFlags`` in ``src/sim/serving/serving_sim.h``) plus each
program's own: the literals of ``checkUnknown({...})`` calls and of
the ``known``/``extra`` lists programs build in ``tools/*.cc``,
``bench/*.cc``, ``bench/*.h`` and ``examples/*.cpp``. They must equal
the ``| `--flag...` |`` rows of README.md's "CLI flag reference"
table: a flag without a row fails, and so does a row naming no flag,
so the table can neither miss a new flag nor keep a removed one.

The engine kinds registered in ``src/models/engines.cc``
(``registerEngine("kind", ...)``) must likewise equal the
``| `kind` |`` rows of README.md's "Engines" table.

Every relative markdown link in README.md, docs/ARCHITECTURE.md, and
CHANGES.md must resolve to an existing file (rooted at the linking
file's own directory, falling back to the repo root). Run from
anywhere:

    python3 tools/check_docs_drift.py
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# (glob roots, pattern) pairs of the programs that declare flags.
SOURCE_GLOBS = [
    ("tools", "*.cc"),
    ("bench", "*.cc"),
    ("bench", "*.h"),
    ("examples", "*.cpp"),
]

# The library's shared flag lists, searched under src/.
LIBRARY_LIST_RE = re.compile(
    r"\bk[A-Z]\w*Flags\s*=\s*\{(?P<body>[^}]*)\}", re.DOTALL
)
CHECK_UNKNOWN_RE = re.compile(
    r"checkUnknown\s*\(\s*\{(?P<body>[^}]*)\}", re.DOTALL
)
# A program's flag list: "known = ... {", "known.insert(..., {" — the
# name, then anything short of a statement end, then the braces.
PROGRAM_LIST_RE = re.compile(
    r"\b(?:known|extra)\s*(?:=|\.insert\()[^;{]*\{(?P<body>[^}]*)\}",
    re.DOTALL,
)
PUSH_BACK_RE = re.compile(r"\b(?:known|extra)\.push_back\((?P<body>[^)]*)\)")
STRING_RE = re.compile(r'"([a-z0-9-]+)"')


def declared_flags():
    """Map of flag -> set of files declaring it."""
    flags = {}

    def add(body, source):
        for flag in STRING_RE.findall(body):
            flags.setdefault(flag, set()).add(source)

    for path in sorted((REPO / "src").rglob("*.[ch]*")):  # .h, .cc
        for m in LIBRARY_LIST_RE.finditer(path.read_text(encoding="utf-8")):
            add(m.group("body"), path.relative_to(REPO).as_posix())
    for root, pattern in SOURCE_GLOBS:
        for path in sorted((REPO / root).glob(pattern)):
            text = path.read_text(encoding="utf-8")
            rel = path.relative_to(REPO).as_posix()
            for regex in (CHECK_UNKNOWN_RE, PROGRAM_LIST_RE, PUSH_BACK_RE):
                for m in regex.finditer(text):
                    add(m.group("body"), rel)
    return flags


REGISTER_ENGINE_RE = re.compile(r'registerEngine\(\s*"([a-z0-9_-]+)"')


def registered_engine_kinds():
    """Engine kinds registered in src/models/engines.cc."""
    text = (REPO / "src/models/engines.cc").read_text(encoding="utf-8")
    return set(REGISTER_ENGINE_RE.findall(text))


# (what, README heading, first-cell pattern, row format) per table. A
# row's first cell is a backticked name: "| `--units=N` |" in the flag
# table, "| `stripes` |" in the engine table.
TABLES = {
    "flag": ("CLI flag reference", r"`--([a-z0-9][a-z0-9-]*)", "--{}"),
    "engine": ("Engines", r"`([a-z][a-z0-9_-]*)`\s*\|", "{}"),
}


def table_drift(readme, table, declared):
    """(missing_rows, stale_rows) between @declared and a README table."""
    heading, cell, _ = TABLES[table]
    # The section runs up to the next same-level heading.
    section = re.search(
        rf"^## {heading}\n(?P<body>.*?)(?=^## )", readme, re.M | re.S
    )
    rows = set(
        re.findall(rf"^\|\s*{cell}", section.group("body") if section else "",
                   re.M)
    )
    return sorted(set(declared) - rows), sorted(rows - set(declared))


# Markdown files whose relative links must resolve.
LINKED_DOCS = ["README.md", "docs/ARCHITECTURE.md", "CHANGES.md"]

# [text](target) pairs, excluding images' leading "!" is harmless.
MD_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def dead_links():
    """(doc, target) pairs whose relative link resolves to nothing."""
    dead = []
    for doc in LINKED_DOCS:
        path = REPO / doc
        if not path.exists():
            dead.append((doc, "<the document itself is missing>"))
            continue
        for target in MD_LINK_RE.findall(path.read_text(encoding="utf-8")):
            if re.match(r"[a-z][a-z0-9+.-]*:", target):
                continue  # http:, https:, mailto: ...
            rel = target.split("#", 1)[0]
            if not rel:
                continue  # pure in-page anchor
            candidates = [path.parent / rel, REPO / rel]
            if not any(c.exists() for c in candidates):
                dead.append((doc, target))
    return dead


def main():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    flags = declared_flags()
    if not flags:
        print(
            "check_docs_drift: found no declared flags — the "
            "extraction patterns have rotted",
            file=sys.stderr,
        )
        return 1

    kinds = registered_engine_kinds()
    drift = False
    for table, declared in (("flag", flags), ("engine", kinds)):
        heading, _, row = TABLES[table]
        missing, stale = table_drift(readme, table, declared)
        for names, problem in ((missing, f"{table}s without a row"),
                               (stale, f"stale {table} rows")):
            if names:
                drift = True
                print(f"check_docs_drift: README.md '{heading}' table, "
                      f"{problem}:", file=sys.stderr)
            for name in names:
                where = ", ".join(sorted(flags.get(name, [])))
                print(f"  | `{row.format(name)}` |"
                      + (f"  (declared in {where})" if where else ""),
                      file=sys.stderr)
    if drift:
        return 1

    dead = dead_links()
    if dead:
        print(
            "check_docs_drift: dead relative links (target file does "
            "not exist):",
            file=sys.stderr,
        )
        for doc, target in dead:
            print(f"  {doc}: ({target})", file=sys.stderr)
        return 1

    print(
        f"check_docs_drift: OK — {len(flags)} flags and {len(kinds)} "
        f"engine kinds each have a README.md row, and every row names "
        f"one; relative links in {', '.join(LINKED_DOCS)} all resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
