#!/usr/bin/env python3
"""Docs lint: keep the markdown honest.

Checks, over every tracked *.md file in the repo:
  1. Intra-repo markdown links ([text](path) and [text](path#anchor)) must
     point at files that exist. External links (scheme://) and pure
     anchors (#...) are skipped.
  2. docs/OPERATIONS.md and src/obs/metric_names.h must agree:
       - every metric declared in the header appears in OPERATIONS.md;
       - every metric-shaped token in OPERATIONS.md (a backticked
         `<known-subsystem>.<name>`) is declared in the header.
     The header is the single source of truth; prefixes are derived from
     it, so new subsystems need no lint changes.
  3. Every DESIGN.md section reference — `DESIGN.md §N`, `[§N](DESIGN.md)`
     and the range forms `§§N–M` — must name an existing `## N.` heading
     of DESIGN.md. Checked in the markdown files of check 1 and in the C++
     sources under src/, tests/ and bench/, where a reference may wrap
     across a comment line break.

Exit status 0 = clean, 1 = findings (printed one per line).
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
METRIC_HEADER = REPO / "src" / "obs" / "metric_names.h"
OPERATIONS = REPO / "docs" / "OPERATIONS.md"

# Directories that hold generated or third-party content.
SKIP_DIRS = {"build", "build-native", ".git"}
# Harvested reference material (paper abstracts, retrieved snippets): not
# authored here, may cite assets that were never vendored.
SKIP_FILES = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md"}

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
DESIGN = REPO / "DESIGN.md"
SOURCE_DIRS = ("src", "tests", "bench")
SOURCE_SUFFIXES = {".cc", ".h", ".cpp"}
# A log: its entries cite sections as they stood when they were written.
SECTION_SKIP_FILES = {"CHANGES.md"}
DESIGN_HEADING = re.compile(r"^## (\d+[a-z]?)\.", re.MULTILINE)
SECTION = r"§§?(\d+[a-z]?)(?:\s*[–-]\s*§?(\d+[a-z]?))?"
# "DESIGN.md §N", "`DESIGN.md` §N", "[DESIGN.md](../DESIGN.md) §N", with
# whitespace and comment markers allowed between the name and the section.
DESIGN_REF = re.compile(
    r"DESIGN\.md(?:`|\]\([^)\s]*\))?(?:\s|//+|\*|#)*" + SECTION)
# "[§N](../DESIGN.md)" and "[§N text](../DESIGN.md#anchor)".
DESIGN_LINK_REF = re.compile(
    r"\[" + SECTION + r"[^\]]*\]\([^)\s]*DESIGN\.md[^)\s]*\)")
METRIC_DECL = re.compile(r'X\(k\w+,\s*"([a-z0-9_.]+)"')
BACKTICKED = re.compile(r"`([a-z0-9_]+\.[a-z0-9_.]+)`")


def markdown_files():
    for path in sorted(REPO.rglob("*.md")):
        if any(part in SKIP_DIRS for part in path.relative_to(REPO).parts):
            continue
        if path.name in SKIP_FILES:
            continue
        yield path


def check_links(errors):
    for md in markdown_files():
        text = md.read_text(encoding="utf-8")
        # Strip fenced code blocks: their bracket/paren text is not a link.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for match in MD_LINK.finditer(text):
            target = match.group(1)
            if "://" in target or target.startswith(("#", "mailto:")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = (md.parent / target_path).resolve()
            if not resolved.exists():
                rel = md.relative_to(REPO)
                errors.append(f"{rel}: broken link -> {target}")


def section_reference_files():
    for md in markdown_files():
        if md.name not in SECTION_SKIP_FILES:
            yield md
    for top in SOURCE_DIRS:
        for path in sorted((REPO / top).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                yield path


def check_section_refs(errors):
    if not DESIGN.exists():
        errors.append("missing DESIGN.md")
        return
    sections = set(DESIGN_HEADING.findall(DESIGN.read_text("utf-8")))
    for path in section_reference_files():
        text = path.read_text(encoding="utf-8")
        rel = path.relative_to(REPO)
        for pattern in (DESIGN_REF, DESIGN_LINK_REF):
            for match in pattern.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                for number in match.groups():
                    if number is not None and number not in sections:
                        errors.append(
                            f"{rel}:{line}: DESIGN.md §{number} has no "
                            f"'## {number}.' heading"
                        )


def check_metric_names(errors):
    if not METRIC_HEADER.exists():
        errors.append(f"missing {METRIC_HEADER.relative_to(REPO)}")
        return
    if not OPERATIONS.exists():
        errors.append(f"missing {OPERATIONS.relative_to(REPO)}")
        return
    declared = set(METRIC_DECL.findall(METRIC_HEADER.read_text("utf-8")))
    if not declared:
        errors.append("no metric declarations parsed from metric_names.h")
        return
    ops_text = OPERATIONS.read_text("utf-8")

    for name in sorted(declared):
        if f"`{name}`" not in ops_text:
            errors.append(
                f"docs/OPERATIONS.md: metric `{name}` (declared in "
                "src/obs/metric_names.h) is undocumented"
            )

    # Any backticked token under a subsystem prefix the header knows about
    # must itself be a declared metric — catches renames and typos.
    prefixes = {name.split(".", 1)[0] for name in declared}
    for token in set(BACKTICKED.findall(ops_text)):
        if token.split(".", 1)[0] in prefixes and token not in declared:
            errors.append(
                f"docs/OPERATIONS.md: `{token}` does not exist in "
                "src/obs/metric_names.h"
            )


def main():
    errors = []
    check_links(errors)
    check_metric_names(errors)
    check_section_refs(errors)
    for e in errors:
        print(e)
    if errors:
        print(f"docs-lint: {len(errors)} finding(s)")
        return 1
    print("docs-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
