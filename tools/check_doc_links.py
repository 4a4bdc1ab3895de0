#!/usr/bin/env python3
"""Fail on dead relative links and dead source paths in the repo's markdown.

Scans every tracked .md file for [text](target) links, resolves
relative targets (optionally with #fragments) against the linking
file's directory, and reports targets that do not exist. External
(scheme://, mailto:) and pure-fragment links are skipped, as is
PAPERS.md (retrieved paper notes whose figure assets are not vendored).

It also checks backticked source paths such as `swarm/topology.h` or
`tools/check_bench.py` (a directory part and a .h/.cpp/.py/.sh suffix):
each must exist relative to the repo root, to src/, or to the file
that names it. Markdown notes at the repo root other than README.md
(roadmap, change log, task and paper notes) are exempt from this check,
since they name planned, deleted and external files on purpose.

Usage: tools/check_doc_links.py [root]
"""
import os
import re
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SOURCE_PATH_RE = re.compile(r"`([\w.-]+(?:/[\w.-]+)+\.(?:h|cpp|py|sh))`")


def md_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames
            if d not in {".git", ".bench_build", "build", "build-san",
                         "build-werror", "build-bench"}
        ]
        for name in filenames:
            if name == "PAPERS.md":
                continue
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def dead_source_paths(root, path, text):
    if (not os.path.dirname(os.path.relpath(path, root))
            and os.path.basename(path) != "README.md"):
        return []
    bases = [root, os.path.join(root, "src"), os.path.dirname(path)]
    return [
        match.group(1) for match in SOURCE_PATH_RE.finditer(text)
        if not any(os.path.exists(os.path.join(base, match.group(1)))
                   for base in bases)
    ]


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    dead = []
    for path in md_files(root):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        dead += [(path, "source path", target)
                 for target in dead_source_paths(root, path, text)]
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if "://" in target or target.startswith(("mailto:", "#")):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), rel))
            if not os.path.exists(resolved):
                dead.append((path, "link", target))
    for path, kind, target in dead:
        print(f"dead {kind} in {path}: {target}", file=sys.stderr)
    if dead:
        return 1
    print("all relative markdown links and source paths resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
