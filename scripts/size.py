#!/usr/bin/env python3
"""Count non-test Rust lines and public API items, per crate and in total.

Usage: python3 scripts/size.py [ROOT]   (ROOT defaults to the repository
root, the parent of this script's directory).

Rules:

* Lines: every line of every `.rs` file, except files under a `tests/`,
  `benches/` or `target/` directory (or a hidden one), and except each
  item carrying `#[cfg(test)]` (the attribute, the item and its body).
* API items: each `pub` fn/struct/enum/trait/type/const/static/mod
  declaration (not `pub(crate)` and the like), plus each name a `pub use`
  brings in, all outside `#[cfg(test)]` items.

Files under `crates/<name>/` count towards `<name>`; the rest (the root
package's `src/` and `examples/`) towards `(root)`.
"""

import os
import re
import sys

SKIPPED_DIRS = {"tests", "benches", "target"}
PUB_ITEM = re.compile(
    r"^\s*pub\s+(?:(?:const|async|unsafe|extern\s+\"[^\"]*\")\s+)*"
    r"(fn|struct|enum|trait|type|const|static|mod)\b"
)
PUB_USE = re.compile(r"^\s*pub\s+use\b")


CHAR = re.compile(r"'(?:\\u\{[0-9a-fA-F]+\}|\\.|[^\\'\n])'")
RAW_STRING = re.compile(r'b?r(#*)"')


def scan(text):
    """Per line: the net `{` minus `}` in code (not in comments, strings
    or char literals), whether code on it opens a brace, and whether its
    code ends with `;`. Strings and block comments may span lines."""
    lines = [[0, False, False] for _ in text.splitlines()]
    line, i, n = 0, 0, len(text)
    last_code = ""

    def close_line():
        lines[line][2] = last_code == ";"

    while i < n:
        c = text[i]
        if c == "\n":
            if line < len(lines):
                close_line()
            line, last_code = line + 1, ""
            i += 1
            continue
        if text.startswith("//", i):
            i = text.find("\n", i)
            i = n if i < 0 else i
            continue
        if text.startswith("/*", i):
            depth, i = 1, i + 2
            while i < n and depth:
                if text.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif text.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    line += text[i] == "\n"
                    i += 1
            continue
        raw = RAW_STRING.match(text, i) if c in "br" else None
        if raw and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
            close = '"' + raw.group(1)
            j = text.find(close, raw.end())
            j = n if j < 0 else j + len(close)
            line += text.count("\n", i, j)
            i, last_code = j, '"'
            continue
        if c == '"':
            i += 1
            while i < n and text[i] != '"':
                step = 2 if text[i] == "\\" else 1
                line += text.count("\n", i, i + step)
                i += step
            i, last_code = i + 1, '"'
            continue
        if c == "'":
            m = CHAR.match(text, i)
            if m:
                i, last_code = m.end(), "'"
                continue
        if c == "{":
            lines[line][0] += 1
            lines[line][1] = True
        elif c == "}":
            lines[line][0] -= 1
        if not c.isspace():
            last_code = c
        i += 1
    if line < len(lines):
        close_line()
    return lines


def non_test_lines(text):
    """The lines of a file outside its `#[cfg(test)]` items."""
    lines = text.splitlines()
    shape = scan(text)
    kept, i = [], 0
    while i < len(lines):
        if lines[i].strip().startswith("#[cfg(test)]"):
            # Skip to the end of the attributed item: its closing brace,
            # or the `;` of a brace-less item such as `mod tests;`.
            depth, opened = 0, False
            i += 1
            while i < len(lines):
                delta, opens, semi = shape[i]
                i += 1
                opened = opened or opens
                depth += delta
                if opened and depth <= 0:
                    break
                if not opened and semi:
                    break
            continue
        kept.append(lines[i])
        i += 1
    return kept


def api_items(lines):
    """Public declarations plus the names of `pub use` re-exports."""
    count, i = 0, 0
    while i < len(lines):
        line = lines[i]
        if PUB_USE.match(line):
            stmt = line
            while ";" not in stmt and i + 1 < len(lines):
                i += 1
                stmt += lines[i]
            tree = re.sub(r"\s+", "", stmt.split(";")[0])
            tree = tree.replace(",}", "}")
            count += tree.count(",") + 1
        elif PUB_ITEM.match(line):
            count += 1
        i += 1
    return count


def crate_of(rel):
    parts = rel.split(os.sep)
    return parts[1] if parts[0] == "crates" and len(parts) > 2 else "(root)"


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    totals = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d not in SKIPPED_DIRS and not d.startswith(".")
        )
        for name in filenames:
            if not name.endswith(".rs"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                kept = non_test_lines(f.read())
            crate = crate_of(os.path.relpath(path, root))
            lines, items = totals.get(crate, (0, 0))
            totals[crate] = (lines + len(kept), items + api_items(kept))
    print(f"{'crate':<12} {'lines':>7} {'api':>5}")
    for crate in sorted(totals):
        lines, items = totals[crate]
        print(f"{crate:<12} {lines:>7} {items:>5}")
    lines = sum(v[0] for v in totals.values())
    items = sum(v[1] for v in totals.values())
    print(f"{'workspace':<12} {lines:>7} {items:>5}")


if __name__ == "__main__":
    main()
