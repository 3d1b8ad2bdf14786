"""Interleaved A/B of two longsol trees on one benchmark workload.

    python3 tools/ab_workers.py OLD NEW --workload W --blocks B --passes K [--seed S]
                                [--argvs FILE]

OLD and NEW are two longsol checkouts.  One ``bench/child.py worker`` runs
from each, with that tree's ``src`` on PYTHONPATH, PYTHONDONTWRITEBYTECODE=1
and the workload's ``LONGSOL_*`` bounds.  The queries are the first B
blocks of the workload (seed S, from NEW's ``bench/workloads.py``), sent K
times over; with ``--argvs``, they are the argvs of FILE, a JSON list,
such as drawn irregular argvs, which no workload sends.  Each query goes
to both workers in turn, and which goes first alternates, so both sides
see the same load on the machine at nearly the same moment.

It prints each tree's ``src/longsol/*.py`` line count (as ``wc -l``
counts), the CPU seconds of ``main()`` summed per subcommand, NEW over OLD
for each, and the number of queries whose exit code or output differed;
it exits 1 when that number is not 0, so it also checks that two trees
answer byte for byte alike.  It writes no file.  It reads in-process
``main()``, so it does not time start-up, and it does not replace the
paired ``bench/run.py`` runs.

Beside the CPU it prints the bytecode instructions each tree executes per
subcommand, counted once over the queries by ``tools/opcode_worker.py``
(``sys.settrace`` with ``f_trace_opcodes``) running on that tree's ``src``
with ``PYTHONHASHSEED=0``, after the same warm-up queries; it names the
interpreter that counted.  The count does not depend on the load on the
machine, so two runs over one tree give equal counts, but it weighs a
big-int multiplication or a regular-expression match as one instruction.

``cli_cold`` sends each query to a fresh ``python -m longsol`` per tree
instead, in the same environment and alternating order, so start-up and
imports are timed; no worker starts and no file is written there either.
It prints the median wall time and the child CPU (``os.wait4``) summed
per subcommand, and takes no instruction count.
"""

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

OPCODE_WORKER = Path(__file__).resolve().with_name("opcode_worker.py")


def tree_env(tree, bounds, **extra):
    """The environment a tree's program runs in: its ``src`` and the bounds."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LONGSOL_")}
    env.update(bounds, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", **extra)
    return env


class Worker:
    """One tree's ``bench/child.py worker``: a JSON argv line in, a JSON head
    line and the output out."""

    def __init__(self, tree, bounds, command=("bench/child.py", "worker"), **env_extra):
        self.proc = subprocess.Popen(
            [sys.executable, str(tree / command[0]), *command[1:]],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=tree_env(tree, bounds, **env_extra), cwd=tree)

    def request(self, argv):
        """(head, output bytes) of one ``main(argv)``: the head holds the
        exit code and the CPU seconds from a bench worker, the instruction
        count from an opcode worker, which writes no output after it."""
        self.proc.stdin.write(json.dumps(argv).encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("a worker ended during %r" % argv[:4])
        head = json.loads(line)
        return head, self.proc.stdout.read(head.get("bytes", 0))

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        if self.proc.wait() != 0:
            raise RuntimeError("a worker exited with %d" % self.proc.returncode)


def cold_call(tree, env, argv):
    """(head, output bytes) of one fresh ``python -m longsol``: the head
    holds the exit code, the wall seconds and the child's CPU seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "longsol", *argv], env=env, cwd=tree,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return {"rc": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime}, out


def subcommand(argv):
    """The leaf path of an argv, such as 'thread extend', after a leading
    ``--format X`` or ``--format=X``; '(none)' where no word follows."""
    head = argv[0] if argv else ""
    if head == "--format":
        argv = argv[2:]
    elif head.startswith("--format="):
        argv = argv[1:]
    return " ".join(w for w in argv[:2] if not w.startswith("-")) or "(none)"


def count_ops(trees, workload, warm, queries):
    """{subcommand: [old, new]} instructions over one pass of the queries."""
    ops = defaultdict(lambda: [0, 0])
    for side, tree in enumerate(trees):
        # the script's own worker, on each tree's src, in one fixed hash order
        counter = Worker(tree, workload.env, (str(OPCODE_WORKER),), PYTHONHASHSEED="0")
        try:
            for argv in warm:
                counter.request(argv)
            for argv in queries:
                ops[subcommand(argv)][side] += counter.request(argv)[0]["ops"]
        finally:
            counter.close()
    return ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--blocks", type=int, default=1)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--argvs", type=Path,
                        help="a JSON list of argvs to send instead of the workload's")
    args = parser.parse_args(argv)
    trees = [args.old.resolve(), args.new.resolve()]
    for tree in trees:
        if not (tree / "bench" / "child.py").is_file():
            parser.error("%s holds no bench/child.py" % tree)

    sys.dont_write_bytecode = True
    sys.path[:0] = [str(trees[1] / d) for d in ("bench", "tests", "src")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (have %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload]
    stream = workload.blocks(args.seed, False)
    if args.argvs is None:
        queries = [q.argv for _ in range(args.blocks) for q in next(stream)]
    else:
        queries = json.loads(args.argvs.read_text())
    warm = [q.argv for q in workloads.Gen(args.seed + 1_000_003).one_of_each()]

    cold = workload.subprocess  # a fresh interpreter per query: nothing to warm
    if cold:
        workers = []
        ask = [functools.partial(cold_call, tree, tree_env(tree, workload.env))
               for tree in trees]
    else:
        workers = [Worker(tree, workload.env) for tree in trees]
        ask = [w.request for w in workers]
    cpu = defaultdict(lambda: [0.0, 0.0])
    wall = defaultdict(lambda: ([], []))
    count, differ = defaultdict(int), 0
    try:
        for argv in [] if cold else warm:
            for request in ask:
                request(argv)
        for turn, argv in enumerate(queries * args.passes):
            answers = [None, None]
            for side in ((0, 1), (1, 0))[turn % 2]:
                answers[side] = ask[side](argv)
            name = subcommand(argv)
            count[name] += 1
            for side, (head, _) in enumerate(answers):
                cpu[name][side] += head["cpu"]
                wall[name][side].append(head["wall"])
            (head0, out0), (head1, out1) = answers
            differ += (head0["rc"], out0) != (head1["rc"], out1)
    finally:
        for w in workers:
            w.close()

    print("%d queries x %d passes, %s, seed %d%s" % (
        len(queries), args.passes, workload.name, args.seed,
        "" if args.argvs is None else ", argvs from %s" % args.argvs))
    print("src/longsol/*.py lines: old %d, new %d" % tuple(
        sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "longsol").glob("*.py"))
        for tree in trees))
    rows = sorted(cpu.items(), key=lambda item: -item[1][0])
    rows.append(("total", [sum(sides[i] for _, sides in rows) for i in (0, 1)]))
    count["total"] = sum(count.values())
    if cold:
        print("fresh `python -m longsol` per query under %s; no instruction count is taken"
              % sys.executable)
        print("%-22s %7s %11s %11s %7s %11s %11s %7s" % (
            "subcommand", "calls", "old p50 ms", "new p50 ms", "new/old",
            "old cpu ms", "new cpu ms", "new/old"))
        wall["total"] = tuple(sum((wall[name][i] for name, _ in rows[:-1]), []) for i in (0, 1))
        for name, (old, new) in rows:
            old_p50, new_p50 = (statistics.median(times) * 1000 for times in wall[name])
            print("%-22s %7d %11.1f %11.1f %7.3f %11.1f %11.1f %7.3f" % (
                name, count[name], old_p50, new_p50, new_p50 / old_p50,
                old * 1000, new * 1000, new / old))
    else:
        ops = count_ops(trees, workload, warm, queries)
        ops["total"] = [sum(ops[name][i] for name, _ in rows[:-1]) for i in (0, 1)]
        print("instructions: one pass, counted under %s %s (%s)" % (
            platform.python_implementation(), platform.python_version(), sys.executable))
        print("%-22s %7s %11s %11s %7s %12s %12s %7s" % (
            "subcommand", "calls", "old cpu ms", "new cpu ms", "new/old",
            "old ops", "new ops", "new/old"))
        for name, (old, new) in rows:
            old_ops, new_ops = ops[name]
            print("%-22s %7d %11.1f %11.1f %7.3f %12d %12d %7.3f" % (
                name, count[name], old * 1000, new * 1000,
                new / old if old else float("nan"),
                old_ops, new_ops, new_ops / old_ops if old_ops else float("nan")))
    print("differing outputs: %d" % differ)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
