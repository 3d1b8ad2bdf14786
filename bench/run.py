"""longsol benchmark: end-to-end query metrics and outside-in layer tracing.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from a longsol checkout (the program is imported from ``src/``).  One
client issues queries in a closed loop, one at a time, in one process:

* ``cli_cold``: every query is a fresh ``python -m longsol`` subprocess at
  the default bounds, after the four bounded-time probes;
* ``warm_small``, ``verify_large``, ``enumerate_large``: queries go through
  ``longsol.cli.main(argv)`` with stdout captured, under the ``LONGSOL_*``
  bounds the workload sets.  The timed phase sends them to one long-lived
  worker interpreter (``child.py worker``), so the peak RSS and the
  garbage collector see the program's objects only; the traced run calls
  ``main`` in this process.

Queries come from ``workloads`` (seeded) and every answer is checked by
``oracle`` outside the timed region.  ``--trace 0`` measures the timed
phase and prints the end-to-end metrics; ``--trace 1`` runs a fixed batch
once untraced and once under ``tracing.Tracer`` and prints the per-layer
metrics.  The line before the result is a JSON report with the
environment record and the figures behind the metrics; spans are written
to ``.bench_out/``.  ``--smoke`` shrinks every size for the self-tests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / ".bench_out"

QUERY_LIMIT_S = 60.0
# a run stops before its planned blocks only on a machine this many times slower
OVERRUN = 4
SETUP_REPEATS = 21
CAVEAT = ("page cache and CPU frequency are not controlled (the benchmark "
          "changes no machine setting); other tenants share the machine")


def locate_program():
    """Put the checkout's sources first on sys.path, or refuse to run."""
    for needed in (SRC / "longsol" / "cli.py", TESTS / "reference_models.py"):
        if not needed.is_file():
            sys.exit("bench/run.py: %s is missing; run from a longsol checkout" % needed)
    sys.path[:0] = [str(SRC), str(TESTS)]
    import longsol

    if not Path(longsol.__file__).resolve().is_relative_to(SRC):
        sys.exit("bench/run.py: imported longsol from %s, not %s" % (longsol.__file__, SRC))


def child_env(bounds):
    env = {k: v for k, v in os.environ.items() if not k.startswith("LONGSOL_")}
    env.update(bounds)
    env["PYTHONPATH"] = str(SRC)
    return env


class Outcome:
    """What one query did: exit code, output, wall and CPU seconds."""

    __slots__ = ("rc", "out", "wall", "cpu", "timed_out", "stderr", "peak_kb")

    def __init__(self, rc, out, wall, cpu, timed_out=False, stderr=""):
        self.rc, self.out, self.wall, self.cpu = rc, out, wall, cpu
        self.timed_out, self.stderr = timed_out, stderr
        self.peak_kb = 0


def call_inprocess(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        c0, t0 = time.process_time(), time.perf_counter()
        rc = main(argv)
        t1, c1 = time.perf_counter(), time.process_time()
    return Outcome(rc, buf.getvalue(), t1 - t0, c1 - c0)


class Worker:
    """A fresh interpreter answering in-process queries (``child.py worker``)."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), "worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT)

    def call(self, argv):
        self.proc.stdin.write(json.dumps(argv).encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the worker ended during %r" % argv[:4])
        head = json.loads(line)
        out = self.proc.stdout.read(head["bytes"]).decode()
        return Outcome(head["rc"], out, head["wall"], head["cpu"])

    def close(self):
        """Stop the worker and return its peak RSS in KiB."""
        self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError("the worker exited with %d" % self.proc.returncode)
        return usage.ru_maxrss


def call_subprocess(cmd, env, limit):
    """Run one child to completion, killed at the limit.

    The child is reaped with wait4, so its own CPU time and peak RSS are
    known exactly.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = t0 + limit - time.perf_counter()
            if remaining <= 0 and not timed_out:
                proc.kill()
                timed_out = True
            for key, _ in sel.select(timeout=max(remaining, 0) if not timed_out else None):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for pipe in chunks:
        pipe.close()
    res = Outcome(proc.returncode, b"".join(chunks[proc.stdout]).decode(), t1 - t0,
                  usage.ru_utime + usage.ru_stime, timed_out,
                  b"".join(chunks[proc.stderr]).decode())
    res.peak_kb = usage.ru_maxrss
    return res


def median_child_time(cmd, env, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Issues one workload's queries and judges every answer."""

    def __init__(self, workload, worker):
        import longsol.cli
        import workloads

        self.w = workload
        self.cli = longsol.cli
        self.env = child_env(workload.env)
        self.worker = Worker(self.env) if worker else None
        self.probe_limit = workloads.PROBE_LIMIT_S
        for key in [k for k in os.environ if k.startswith("LONGSOL_")]:
            del os.environ[key]
        os.environ.update(workload.env)

    def issue(self, q, traced=False):
        if self.worker:
            return self.worker.call(q.argv)
        if not self.w.subprocess:
            return call_inprocess(self.cli.main, q.argv)
        head = ([sys.executable, str(BENCH / "child.py"), "trace"] if traced
                else [sys.executable, "-m", "longsol"])
        limit = self.probe_limit if q.probe else QUERY_LIMIT_S
        return call_subprocess(head + q.argv, self.env, limit)

    def judge(self, q, res):
        """None when the query counts as answered, else why it failed."""
        if res.timed_out:
            return "timed out"
        if res.rc == 1 and q.probe:
            try:
                code = json.loads(res.out)["error"]["code"]
            except (ValueError, KeyError, TypeError):
                return "exit 1 without a structured error"
            return None if code != "internal" else "internal error"
        if res.rc != 0:
            return "exit %s: %s" % (res.rc, res.out.strip()[:200])
        if q.text:
            import oracle

            plain = call_inprocess(self.cli.main, q.json_argv())
            if plain.rc != 0:
                return "JSON form of a text query exits %s" % plain.rc
            doc = json.loads(plain.out)
            if res.out.rstrip("\n").split("\n") != oracle.flatten(doc):
                return "text lines differ from the JSON answer"
        else:
            try:
                doc = json.loads(res.out)
            except ValueError:
                return "stdout is not one JSON document"
        return q.check(doc)


class Tally:
    """Counts and samples of one timed phase."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.unexpected = 0
        self.latency = []
        self.cpu = 0.0
        self.timed = 0.0
        self.probes = {"attempted": 0, "timed_out": 0}
        self.internal_exits = 0
        self.child_peak_kb = 0

    def add(self, q, res, verdict):
        self.attempted += 1
        self.timed += res.wall
        self.child_peak_kb = max(self.child_peak_kb, res.peak_kb)
        if q.probe:
            self.probes["attempted"] += 1
            self.probes["timed_out"] += res.timed_out
        if res.rc == 2 and not res.timed_out:
            self.internal_exits += 1
        if verdict is None:
            self.latency.append(res.wall)
            self.cpu += res.cpu
            return
        self.failures.append({"family": q.family, "argv": [a[:80] for a in q.argv[:8]],
                              "why": verdict[:300]})
        # a probe that times out or exits 2 is a recorded defect; a wrong
        # answer, or a failure on any other query, makes the run incorrect
        if not q.probe or (res.rc in (0, 1) and not res.timed_out):
            self.unexpected += 1


def tail(samples):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class SetupProbe:
    """Fresh interpreters that time ``import longsol.cli`` plus one first
    call per subcommand (seeded small queries), under the workload's bounds.

    Samples are taken between queries of the timed phase, which spreads
    them over the run instead of one window of the machine's speed.
    """

    def __init__(self, runner, seed):
        import workloads

        self.env = runner.env
        self.argvs = json.dumps([q.argv for q in workloads.Gen(seed).one_of_each()])
        self.totals = []
        self.imports = []

    def sample(self):
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "setup"],
                              input=self.argvs, capture_output=True, text=True,
                              env=self.env, cwd=ROOT, check=True)
        doc = json.loads(proc.stdout)
        self.totals.append(doc["import_s"] + doc["calls_s"])
        self.imports.append(doc["import_s"])

    def fill(self, count):
        while len(self.totals) < count:
            self.sample()
        return statistics.median(self.totals), statistics.median(self.imports)


def environment(workload, seed, smoke):
    import longsol.cli as cli

    repeats = 1 if smoke else 5
    env = child_env({})
    bare = median_child_time([sys.executable, "-c", "pass"], env, repeats)
    no_site = median_child_time([sys.executable, "-S", "-c", "pass"], env, repeats)
    digest = hashlib.sha256()
    for path in sorted((SRC / "longsol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    bounds = {"LONGSOL_DEPTH": str(cli.DEFAULT_DEPTH),
              "LONGSOL_INDEX_BOUND": str(cli.DEFAULT_INDEX_BOUND)}
    bounds.update(workload.env)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "bounds": bounds,
        "interpreter.startup_ms": bare * 1000,
        "interpreter.startup_no_site_ms": no_site * 1000,
        "caveat": CAVEAT,
    }


def warm_up(runner, seed):
    """Let lazy set-up finish before timing; answers are still judged."""
    import workloads

    qs = workloads.Gen(seed + 1_000_003).one_of_each()
    for q in qs[:2] if runner.w.subprocess else qs:
        runner.judge(q, runner.issue(q))


def timed_run(runner, seed, seconds, smoke):
    import workloads

    tally = Tally()
    if runner.w.subprocess:
        for q in workloads.probes():
            res = runner.issue(q)
            tally.add(q, res, runner.judge(q, res))
    # the probes' time counts in queries_per_s but not towards --seconds
    start = tally.timed
    # a fixed number of whole blocks keeps the query mix and the sample set
    # the same on every run, whatever the speed of the machine
    planned = max(1, round(seconds / runner.w.block_s))
    setup = SetupProbe(runner, seed)
    repeats = 2 if smoke else SETUP_REPEATS
    stream = runner.w.blocks(seed, smoke)
    for n in range(planned):
        block = next(stream)
        for i, q in enumerate(block, start=1):
            res = runner.issue(q)
            tally.add(q, res, runner.judge(q, res))
            while len(setup.totals) < repeats * (n + i / len(block)) / planned:
                setup.sample()
        del block  # before the next one is built
        if tally.timed - start >= OVERRUN * seconds:
            break
    if runner.worker:
        peak = runner.worker.close()
    else:
        peak = tally.child_peak_kb
    setup_s, import_s = setup.fill(repeats)
    answered = len(tally.latency)
    tail_s, tail_pct = tail(tally.latency) if answered else (0.0, 0.0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "query_p50_ms": (statistics.median(tally.latency) * 1000 if answered else 0.0, "ms"),
        "query_tail_ms": (tail_s * 1000, "ms"),
        "queries_per_s": (answered / tally.timed, "1/s"),
        "cpu_ms_per_query": (tally.cpu * 1000 / answered if answered else 0.0, "ms"),
        "answered_ratio": (answered / tally.attempted, "ratio"),
        "peak_rss_mb": (peak / 1024, "MB"),
    }
    report = {
        "fail_ratio": len(tally.failures) / tally.attempted,
        "samples": answered,
        "query_tail_percentile": tail_pct,
        "timed_s": tally.timed,
        "cli.import_ms": import_s * 1000,
        "setup_samples_s": setup.totals,
        "probes": tally.probes,
        "internal_exits": tally.internal_exits,
        "failures": tally.failures[:20],
    }
    return tally, metrics, report


def _useful(q, doc):
    """Verified levels or returned stage points/threads of one answer."""
    if q.argv[0] == "orbit" and doc.get("verified"):
        return len(doc["recipe"]) - 1
    if q.argv[:2] == ["thread", "extend"]:
        return doc["count"]
    if q.argv[0] == "fiber":
        return len(doc["points"])
    return 0


def traced_run(runner, seed, smoke, spans_path):
    import workloads
    from tracing import Tracer

    tally = Tally()
    if runner.w.subprocess:
        for q in workloads.probes():
            res = runner.issue(q)
            tally.add(q, res, runner.judge(q, res))
    blocks = runner.w.blocks(seed, smoke)
    batch = [q for _ in range(1 if smoke else runner.w.trace_blocks) for q in next(blocks)]
    plain = [runner.issue(q) for q in batch]
    tracer = Tracer()
    if runner.w.subprocess:
        traced = [runner.issue(q, traced=True) for q in batch]
        for i, res in enumerate(traced):
            try:
                spans = json.loads(res.stderr.strip().splitlines()[-1])["trace"]
            except (IndexError, ValueError, KeyError):
                continue  # the child died; judge() reports the query
            spans["qid"] = [i] * len(spans["qid"])
            tracer.absorb(spans)
    else:
        traced = []
        with tracer:
            for i, q in enumerate(batch):
                tracer.query_id = i
                traced.append(runner.issue(q))
    useful = 0
    stdout_bytes = 0
    for q, base, res in zip(batch, plain, traced):
        verdict = runner.judge(q, res)
        if verdict is None and base.out != res.out:
            verdict = "traced answer differs from the untraced one"
        tally.add(q, res, verdict)
        stdout_bytes += len(res.out.encode())
        if verdict is None and not q.text:
            useful += _useful(q, json.loads(res.out))
    overhead = sum(r.wall for r in traced) / sum(r.wall for r in plain)
    OUT.mkdir(exist_ok=True)
    tracer.write(spans_path)

    summary = tracer.summary()

    def calls(prefix):
        return sum(c for name, (c, _, _) in summary.items() if name.startswith(prefix))

    def incl_ms(name):
        return summary.get(name, (0, 0, 0))[1] / 1e6

    def self_ms(prefix):
        return sum(s for name, (_, _, s) in summary.items() if name.startswith(prefix)) / 1e6

    counts = tracer.counts
    points = counts["stages.stage_points_built"]
    metrics = {
        "cli.build_parser_ms": (incl_ms("cli.build_parser"), "ms"),
        "cli.build_parser_calls": (calls("cli.build_parser"), "count"),
        "cli.main_ms": (incl_ms("cli.main"), "ms"),
        "cli.self_ms": (summary.get("cli.main", (0, 0, 0))[2] / 1e6, "ms"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "parsing.calls": (calls("parsing."), "count"),
        "parsing.self_ms": (self_ms("parsing."), "ms"),
        "ordinal.compare_calls": (calls("ordinal.compare"), "count"),
        "ordinal.add_calls": (calls("ordinal.add"), "count"),
        "ordinal.mul_calls": (calls("ordinal.mul"), "count"),
        "ordinal.objects_built": (counts["ordinal.objects_built"], "count"),
        "ordinal.self_ms": (self_ms("ordinal."), "ms"),
        "longline.calls": (calls("longline."), "count"),
        "longline.self_ms": (self_ms("longline."), "ms"),
        "tower.calls": (calls("tower."), "count"),
        "tower.self_ms": (self_ms("tower."), "ms"),
        "arcs.calls": (calls("arcs."), "count"),
        "arcs.self_ms": (self_ms("arcs."), "ms"),
        "stages.verify_calls": (calls("stages.verify_commutes"), "count"),
        "stages.verify_ms": (incl_ms("stages.verify_commutes"), "ms"),
        "stages.synthesize_ms": (incl_ms("stages.synthesize_recipe"), "ms"),
        "stages.apply_recipe_ms": (incl_ms("stages.apply_recipe"), "ms"),
        "stages.extend_ms": (incl_ms("stages.extend_thread"), "ms"),
        "stages.fiber_ms": (incl_ms("stages.fiber"), "ms"),
        "stages.self_ms": (self_ms("stages."), "ms"),
        "stages.stage_points_built": (points, "count"),
        "stages.threads_built": (counts["stages.threads_built"], "count"),
        "stages.points_per_answer": (points / useful if useful else 0.0, "ratio"),
        "cohomology.calls": (calls("cohomology."), "count"),
        "cohomology.self_ms": (self_ms("cohomology."), "ms"),
        "cohomology.h1_action_ms": (incl_ms("cohomology.h1_action"), "ms"),
        "bounds.probes_attempted": (tally.probes["attempted"], "count"),
        "bounds.probes_timed_out": (tally.probes["timed_out"], "count"),
        "bounds.internal_exits": (tally.internal_exits, "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.spans": (len(tracer.start), "count"),
        "trace.queries": (len(batch), "count"),
    }
    report = {
        "failures": tally.failures[:20],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "useful_outcomes": useful,
    }
    return tally, metrics, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the self-tests")
    args = parser.parse_args(argv)

    locate_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (have %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workload, worker=not (workload.subprocess or args.trace))
    record = environment(workload, args.seed, args.smoke)
    warm_up(runner, args.seed)
    if args.trace:
        tally, metrics, report = traced_run(
            runner, args.seed, args.smoke,
            OUT / ("trace_%s_seed%d.csv.gz" % (workload.name, args.seed)))
        _, import_s = SetupProbe(runner, args.seed).fill(2 if args.smoke else 5)
        metrics["interpreter.startup_ms"] = (record["interpreter.startup_ms"], "ms")
        metrics["cli.import_ms"] = (import_s * 1000, "ms")
    else:
        tally, metrics, report = timed_run(runner, args.seed, args.seconds, args.smoke)
    report.update(workload=workload.name, trace=args.trace, smoke=args.smoke,
                  environment=record)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
