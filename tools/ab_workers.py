"""Interleaved A/B of two longsol trees on one benchmark workload.

    python3 tools/ab_workers.py OLD NEW --workload W --blocks B --passes K [--seed S]

OLD and NEW are two longsol checkouts.  One ``bench/child.py worker`` runs
from each, with that tree's ``src`` on PYTHONPATH and the workload's
``LONGSOL_*`` bounds.  The queries are the first B blocks of the workload
(seed S, from NEW's ``bench/workloads.py``), sent K times over.  Each query
goes to both workers in turn, and which goes first alternates, so both
sides see the same load on the machine at nearly the same moment.

It prints each tree's ``src/longsol/*.py`` line count (as ``wc -l``
counts), the CPU seconds of ``main()`` summed per subcommand, NEW over OLD
for each, and the number of queries whose exit code or output differed;
it exits 1 when that number is not 0, so it also checks that two trees
answer byte for byte alike.  It writes no file.  It reads in-process
``main()`` only, so it neither times start-up nor replaces the paired
``bench/run.py`` runs.

Beside the CPU it prints the bytecode instructions each tree executes per
subcommand, counted once over the queries by ``tools/opcode_worker.py``
(``sys.settrace`` with ``f_trace_opcodes``) running on that tree's ``src``
with ``PYTHONHASHSEED=0``, after the same warm-up queries; it names the
interpreter that counted.  The count does not depend on the load on the
machine, so two runs over one tree give equal counts, but it weighs a
big-int multiplication or a regular-expression match as one instruction.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

OPCODE_WORKER = Path(__file__).resolve().with_name("opcode_worker.py")


class Worker:
    """One tree's ``bench/child.py worker``: a JSON argv line in, a JSON head
    line and the output out."""

    def __init__(self, tree, bounds, command=("bench/child.py", "worker"), **env_extra):
        env = {k: v for k, v in os.environ.items() if not k.startswith("LONGSOL_")}
        env.update(bounds, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
                   **env_extra)
        self.proc = subprocess.Popen(
            [sys.executable, str(tree / command[0]), *command[1:]],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=tree)

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


def subcommand(argv):
    """The leaf path of an argv, such as 'thread extend', after a leading
    ``--format X`` or ``--format=X``."""
    if argv[0] == "--format":
        argv = argv[2:]
    elif argv[0].startswith("--format="):
        argv = argv[1:]
    return " ".join(w for w in argv[:2] if not w.startswith("-"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--blocks", type=int, default=1)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
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
    if workload.subprocess:
        parser.error("%s times fresh interpreters, not main()" % workload.name)
    stream = workload.blocks(args.seed, False)
    queries = [q.argv for _ in range(args.blocks) for q in next(stream)]
    warm = [q.argv for q in workloads.Gen(args.seed + 1_000_003).one_of_each()]

    workers = [Worker(tree, workload.env) for tree in trees]
    cpu = defaultdict(lambda: [0.0, 0.0])
    count, differ = defaultdict(int), 0
    try:
        for argv in warm:
            for w in workers:
                w.request(argv)
        for turn, argv in enumerate(queries * args.passes):
            answers = [None, None]
            for side in ((0, 1), (1, 0))[turn % 2]:
                answers[side] = workers[side].request(argv)
            name = subcommand(argv)
            count[name] += 1
            for side, (head, _) in enumerate(answers):
                cpu[name][side] += head["cpu"]
            (head0, out0), (head1, out1) = answers
            differ += (head0["rc"], out0) != (head1["rc"], out1)
    finally:
        for w in workers:
            w.close()

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

    print("%d queries x %d passes, %s, seed %d" % (
        len(queries), args.passes, workload.name, args.seed))
    print("src/longsol/*.py lines: old %d, new %d" % tuple(
        sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "longsol").glob("*.py"))
        for tree in trees))
    print("instructions: one pass, counted under %s %s (%s)" % (
        platform.python_implementation(), platform.python_version(), sys.executable))
    print("%-22s %7s %11s %11s %7s %12s %12s %7s" % (
        "subcommand", "calls", "old cpu ms", "new cpu ms", "new/old",
        "old ops", "new ops", "new/old"))
    rows = sorted(cpu.items(), key=lambda item: -item[1][0])
    total = [sum(sides[i] for _, sides in rows) for i in (0, 1)]
    ops["total"] = [sum(ops[name][i] for name, _ in rows) for i in (0, 1)]
    for name, (old, new) in rows + [("total", total)]:
        n = sum(count.values()) if name == "total" else count[name]
        old_ops, new_ops = ops[name]
        print("%-22s %7d %11.1f %11.1f %7.3f %12d %12d %7.3f" % (
            name, n, old * 1000, new * 1000, new / old if old else float("nan"),
            old_ops, new_ops, new_ops / old_ops if old_ops else float("nan")))
    print("differing outputs: %d" % differ)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
