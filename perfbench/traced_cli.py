"""`python -m strictsmooth.cli` with every layer wrapped by layers.py.

    python3 perfbench/traced_cli.py <snapshot.json> <cli arguments...>

Runs the CLI in this process and writes the recorder's snapshot to the
given file; the exit code is the CLI's.
"""

import importlib
import json
import sys
from pathlib import Path

import layers


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    cli = importlib.import_module("strictsmooth.cli")  # on PYTHONPATH, set by the caller
    rec = layers.Recorder()
    undo = layers.install(rec)
    try:
        code = cli.main(argv)  # looked up after install: the wrapped main
    finally:
        layers.restore(undo)
        Path(out).write_text(json.dumps(rec.snapshot()))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
