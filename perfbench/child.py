"""Runs one termcoder command with the per-layer hooks installed.

    python3 perfbench/child.py DUMP.json MAX_DIST <termcoder arguments...>

Writes the merged tallies to DUMP.json and exits with the command's code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hooks  # noqa: E402


def main() -> int:
    dump_path, max_dist, *argv = sys.argv[1:]
    tracer = hooks.Tracer(int(max_dist))
    tracer.install()
    try:
        from termcoder.cli import main as termcoder_main

        code = termcoder_main(argv)
    finally:
        tracer.uninstall()
    Path(dump_path).write_text(json.dumps(tracer.dump()), "utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
