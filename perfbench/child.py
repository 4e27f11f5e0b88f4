"""One CLI invocation with the tracer installed, for traced cli-cold runs.

Usage: python child.py STATS_FILE ARGV...

Runs ``defekt.cli.main(ARGV)`` in this fresh interpreter with every layer
wrapped, writes the per-function totals to STATS_FILE as JSON and exits
with the CLI's exit code.  ``defekt`` must be importable (PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import defekt.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    stats_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer:
            return defekt.cli.main(argv)
    finally:
        Path(stats_file).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
