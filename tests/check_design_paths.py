#!/usr/bin/env python3
"""Checks that DESIGN.md's repository layout (§4) and paper-to-code map
(§5) name only paths that exist.

Usage: check_design_paths.py DESIGN_MD REPO_ROOT

A path is the first column of a §4 layout row ("src/net", "tests/") or a
backticked token of §4/§5 that contains a slash ("net/Semantics.cpp").
A backticked path resolves against the repository root, then against
src/; a brace group expands ("policy/History.{h,cpp}" names two files).
Exits 1, listing every path that resolves nowhere, else 0.
"""

import os
import re
import sys

SECTIONS = ("4", "5")
PATH_TOKEN = re.compile(r"^[\w.\-/{},]+$")


def sections(text):
    """Yields (number, body) for each '## N. Title' section."""
    parts = re.split(r"^## (\d+)\. .*$", text, flags=re.M)
    for i in range(1, len(parts) - 1, 2):
        yield parts[i], parts[i + 1]


def expand(path):
    """Expands one brace group: a/b.{h,cpp} -> [a/b.h, a/b.cpp]."""
    m = re.search(r"\{([^{}]*)\}", path)
    if not m:
        return [path]
    out = []
    for alt in m.group(1).split(","):
        out += expand(path[: m.start()] + alt + path[m.end():])
    return out


def candidates(body):
    """The paths a section names."""
    in_block = False
    for line in body.splitlines():
        if line.startswith("```"):
            in_block = not in_block
            continue
        if in_block:
            # Layout rows: "src/net   description"; continuation lines
            # are indented.
            first = line.split()[0] if line.strip() else ""
            if line[:1].strip() and "/" in first:
                yield first, False
            continue
        for token in re.findall(r"`([^`]+)`", line):
            if "/" in token and PATH_TOKEN.match(token):
                yield token, True


def exists(root, path, under_src):
    bases = [root, os.path.join(root, "src")] if under_src else [root]
    return any(os.path.exists(os.path.join(base, path)) for base in bases)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    design, root = argv[1], argv[2]
    with open(design, encoding="utf-8") as f:
        text = f.read()
    missing, checked = [], 0
    for number, body in sections(text):
        if number not in SECTIONS:
            continue
        for token, under_src in candidates(body):
            for path in expand(token):
                checked += 1
                if not exists(root, path, under_src):
                    missing.append("§%s: %s" % (number, path))
    if checked == 0:
        print("no paths found in §%s" % "/§".join(SECTIONS), file=sys.stderr)
        return 1
    for m in missing:
        print("DESIGN.md names a path that does not exist: " + m)
    print("checked %d paths, %d missing" % (checked, len(missing)))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
