"""Count the bytecode instructions one in-process ``main(argv)`` executes.

    PYTHONPATH=TREE/src PYTHONHASHSEED=0 python3 tools/opcode_worker.py

Reads one JSON argv per line on stdin and answers each with one JSON line,
``{"rc": exit code, "ops": instructions}``.  The count is taken with
``sys.settrace``: every new frame sets ``f_trace_opcodes``, so each
instruction of Python code run by the call counts once; work done inside C
functions (``int`` arithmetic, ``re``, ``str`` methods) counts as the one
instruction that called it.  The CLI's answer goes to a buffer and is
dropped.  Under one interpreter and a fixed ``PYTHONHASHSEED``, the same
queries in the same order give the same counts, run after run.
"""

import contextlib
import io
import json
import sys


def count(call):
    """(result of call(), instructions it executed)."""
    ops = 0

    def local(frame, event, arg):
        nonlocal ops
        if event == "opcode":
            ops += 1
        return local

    def new_frame(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(new_frame)
    try:
        result = call()
    finally:
        sys.settrace(None)
    return result, ops


def _main(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as stop:  # --help
        return stop.code


def main():
    import longsol.cli as cli

    for line in sys.stdin:
        argv = json.loads(line)
        with contextlib.redirect_stdout(io.StringIO()):
            rc, ops = count(lambda: _main(cli, argv))
        print(json.dumps({"rc": rc, "ops": ops}), flush=True)


if __name__ == "__main__":
    main()
