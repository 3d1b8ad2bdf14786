"""Replay ``cli_golden.json`` through ``longsol.cli.main``, stdlib only.

    PYTHONPATH=src python3.X tests/golden_replay.py

prints one JSON line: the interpreter's version, the number of entries,
and each entry whose exit code or stdout differs, with both outcomes; it
exits 1 when any differs.  It imports nothing outside the standard
library and ``longsol``, so any interpreter the package supports runs it
as it is; ``test_cli_golden.py`` runs it under each other interpreter it
finds.
"""

import contextlib
import io
import json
import os
import platform
import sys
from pathlib import Path

from longsol.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
BOUNDS = ("LONGSOL_DEPTH", "LONGSOL_INDEX_BOUND")


def load():
    """The recorded entries, in corpus order."""
    return json.loads(GOLDEN.read_text())


def call(argv):
    """Exit code and stdout of one in-process ``main(argv)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@contextlib.contextmanager
def bounds(env):
    """The work bounds set as ``env`` gives them and no others, restored
    on exit."""
    saved = {name: os.environ.pop(name, None) for name in BOUNDS}
    os.environ.update(env)
    try:
        yield
    finally:
        for name, value in saved.items():
            os.environ.pop(name, None)
            if value is not None:
                os.environ[name] = value


def differing(entries):
    """Each entry whose exit code and stdout ``main`` does not reproduce:
    its environment, its argv, and the outcomes recorded and got."""
    diffs = []
    for entry in entries:
        want = entry["code"], entry["stdout"]
        with bounds(entry["env"]):
            got = call(entry["argv"])
        if got != want:
            diffs.append({"env": entry["env"], "argv": entry["argv"], "outcomes": [want, got]})
    return diffs


if __name__ == "__main__":
    entries = load()
    diffs = differing(entries)
    print(json.dumps({"version": platform.python_version(),
                      "entries": len(entries), "differing": diffs}))
    sys.exit(1 if diffs else 0)
