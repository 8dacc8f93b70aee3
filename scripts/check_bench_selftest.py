#!/usr/bin/env python3
"""Self-test of the absolute check_bench.py gate.

For each baseline envelope given, writes a copy with every ``*_ms`` field
doubled and runs ``check_bench.py BASELINE COPY`` on it. The gate must fail
every copy (exit 1): a baseline whose timings it does not read would pass
doubled timings, and its "within 35% of baseline" line would mean nothing.
stdlib only.

Usage: scripts/check_bench_selftest.py BENCH_a.json [BENCH_b.json ...]
Exit status: 0 when the gate fails every doubled copy; 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_bench.py")


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def doubled(node):
    """node with every number under a key ending in ``_ms`` doubled."""
    if isinstance(node, dict):
        return {
            k: 2 * v if k.endswith("_ms") and is_number(v) else doubled(v)
            for k, v in node.items()
        }
    if isinstance(node, list):
        return [doubled(v) for v in node]
    return node


def main(paths):
    if not paths:
        sys.exit(__doc__)
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for path in paths:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            copy = os.path.join(tmp, os.path.basename(path))
            with open(copy, "w", encoding="utf-8") as f:
                json.dump(doubled(doc), f)
            status = subprocess.run(
                [sys.executable, GATE, path, copy], stdout=subprocess.DEVNULL
            ).returncode
            caught = status == 1
            ok &= caught
            print(
                f"check_bench_selftest: {path}: doubled timings "
                f"{'fail the gate' if caught else f'pass the gate (exit {status})'}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
