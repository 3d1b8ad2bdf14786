"""Fresh-interpreter helper for the benchmark.

    python bench/child.py setup  < argv-list.json
        time ``import longsol.cli`` and then one in-process ``main()`` call
        per argv in the list (stdout captured); print both times as JSON.

    python bench/child.py worker
        answer queries until stdin closes: each request is one JSON argv
        line; each reply is a JSON line with the exit code, the wall and
        CPU seconds of the ``main()`` call and the output's length in
        bytes, followed by the output.  The worker holds only the program
        and its answers, so its peak RSS is the program's.

    python bench/child.py trace ARGV...
        run ``main(ARGV)`` under the tracer, answer on stdout as usual; the
        import time, exit code and spans go to stderr as one JSON line.

The parent puts ``src`` on PYTHONPATH; this file only measures.
"""

import contextlib
import io
import json
import sys
import time


def setup():
    argvs = json.load(sys.stdin)
    t0 = time.perf_counter()
    import longsol.cli as cli

    t1 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            cli.main(argv)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "calls_s": t2 - t1}))


def worker():
    import longsol.cli as cli

    replies = sys.stdout.buffer
    for line in sys.stdin.buffer:
        argv = json.loads(line)
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as stop:
                rc = stop.code
            out.flush()
            t1, c1 = time.perf_counter(), time.process_time()
        data = out.buffer.getvalue()
        head = {"rc": rc, "wall": t1 - t0, "cpu": c1 - c0, "bytes": len(data)}
        replies.write(json.dumps(head).encode() + b"\n" + data)
        replies.flush()


def trace(argv):
    t0 = time.perf_counter()
    import longsol.cli as cli

    t1 = time.perf_counter()
    from tracing import Tracer

    with Tracer() as tracer:
        rc = cli.main(argv)
    sys.stdout.flush()
    sys.stderr.write(json.dumps(
        {"import_s": t1 - t0, "rc": rc, "trace": tracer.export()}) + "\n")
    return rc


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup()
    elif sys.argv[1] == "worker":
        worker()
    else:
        sys.exit(trace(sys.argv[2:]))
