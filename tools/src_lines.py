#!/usr/bin/env python3
"""Count the code lines under src/, per top-level directory and in total.

    python3 tools/src_lines.py            # this checkout
    python3 tools/src_lines.py <root>     # another checkout's src/

A code line is one that is neither blank nor only a `//` (or `///`)
comment. Net code lines in src/ are a tracked number of the project, so a
change that keeps every output and removes code shows up here.
"""

import collections
import os
import sys


def count(src):
    per_dir = collections.Counter()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        rel = os.path.relpath(dirpath, src)
        directory = "." if rel == "." else rel.split(os.sep)[0]
        for name in sorted(filenames):
            with open(os.path.join(dirpath, name), "rb") as f:
                for line in f:
                    stripped = line.strip()
                    if stripped and not stripped.startswith(b"//"):
                        per_dir[directory] += 1
    return per_dir


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        sys.exit(f"src_lines: no src/ directory under {root}")
    per_dir = count(src)
    for directory, lines in sorted(per_dir.items()):
        print(f"{directory:<12} {lines:>6}")
    print(f"{'total':<12} {sum(per_dir.values()):>6}")


if __name__ == "__main__":
    main()
