"""simpleloop benchmark: three CLI workloads, every run checked, plus tracing.

Run from the root of a checkout, once per workload:

    for w in verify-g2 smoke-g3 lemma-g4; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 25 --trace 0
    done

Every invocation is a fresh single-threaded child process
(`perfbench/child.py`, equivalent to the `simpleloop` command) started only
after the previous one has exited. It runs against the checked-out `src/`,
writes its report with `--out`, and counts as failed on an unexpected exit
code, on a report that misses the pinned verdicts in `checks.py`, or when it
imported simpleloop from anywhere but `src/`. The seed reaches the program
only as `verify --seed`.

`--trace 0` reports the end-to-end metrics, as medians over the successful
invocations of one run:

    setup_s      wall time of a fresh-process `info --genus <g>` (interpreter
                 start, import, cover build), repeated at least 5 times
    wall_s       wall time from spawn to exit of the workload command
    cpu_s        user plus system CPU time of that child alone
    peak_rss_mb  peak resident set size of that child alone

`--trace 1` alternates untraced and traced invocations and reports the
per-layer metrics of the traced ones (see `tracing.py` and `LAYER_METRICS`).
Times are medians; counts must repeat exactly between the invocations of a
run. The counts reached through `empirical_image_rank` (cocycle cache
misses, hence `loop_class` and `coords` calls) depend on the seed.

Earlier stdout lines name every metric with its unit, the fail rate and the
provenance; the last line is one JSON object with the keys correct,
attempted, failed and metrics. Exit code: 0 when every invocation passed its
gate, 1 when one failed, 2 when there is no `src/simpleloop` to run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
PACKAGE_FILE = os.path.join(SRC, "simpleloop", "__init__.py")

# A run must end within 180 s; no child starts or runs past this.
RUN_BUDGET_S = 170.0
SETUP_MIN_REPS = 5
SETUP_MIN_S = 3.0


@dataclass(frozen=True)
class Workload:
    genus: int
    argv: tuple
    seeded: bool
    expected: dict
    digest: str | None


WORKLOADS = {
    "verify-g2": Workload(2, ("verify",), True, checks.VERIFY_G2, checks.VERIFY_G2_DIGEST),
    "smoke-g3": Workload(
        3,
        ("verify", "--genus", "3", "--depth", "3", "--kernel-len", "6"),
        True,
        checks.SMOKE_G3,
        checks.SMOKE_G3_DIGEST,
    ),
    "lemma-g4": Workload(
        4, ("lemma-check", "--genus", "4", "--depth", "2"), False, checks.LEMMA_G4, None
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYER_METRICS = (
    ("words.canonical_class.search.calls", "count"),
    ("words.canonical_class.search.self_s", "s"),
    ("quotient.search_s", "s"),
    ("quotient.search.witnesses", "count"),
    ("quotient.search.hit_ratio", "ratio"),
    ("words.canonical_class.bfs.calls", "count"),
    ("words.canonical_class.bfs.self_s", "s"),
    ("words.substitute.calls", "count"),
    ("words.substitute.self_s", "s"),
    ("curves.generate_s", "s"),
    ("curves.classes", "count"),
    ("curves.generate.keep_ratio", "ratio"),
    ("cover.build_s", "s"),
    ("gf2.rref.calls", "count"),
    ("gf2.rref.self_s", "s"),
    ("gf2.coords.calls", "count"),
    ("gf2.coords.self_s", "s"),
    ("cover.loop_class.calls", "count"),
    ("cover.loop_class.self_s", "s"),
    ("cover.lift.calls", "count"),
    ("cover.lift.self_s", "s"),
    ("cover.closed_up_class.calls", "count"),
    ("cover.closed_up_class.self_s", "s"),
    ("curves.lemma_s", "s"),
    ("curves.lemma.lifts", "count"),
    ("cover.deck_action.calls", "count"),
    ("cover.deck_action.distinct", "count"),
    ("cover.deck_action.self_s", "s"),
    ("quotient.mul.calls", "count"),
    ("quotient.inv.calls", "count"),
    ("quotient.cocycle.calls", "count"),
    ("quotient.arith.self_s", "s"),
    ("quotient.image_rank_s", "s"),
    ("quotient.rho.calls", "count"),
    ("quotient.rho.self_s", "s"),
    ("curves.verify_s", "s"),
    ("words.dehn.calls", "count"),
    ("words.dehn.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(header, spans, out_bytes):
    """Per-layer values of one traced invocation, without the overhead ratio.

    Args:
        header: the trace header (counters and distinct-argument counts).
        spans: `tracing.summarize` output for the same trace.
        out_bytes: size of the report the invocation wrote.
    """

    def total(table, names, stage=None):
        return sum(
            value
            for (name, st), value in table.items()
            if name in names and (stage is None or st == stage)
        )

    calls, self_s = spans["calls"], spans["self_s"]

    def stage_s(stage):
        return sum(d for st, d in spans["stages"] if st == stage)

    counters = header["counters"]
    search_calls = total(calls, ("words.canonical_class",), "quotient.search")
    witnesses = counters.get("quotient.search.witnesses", 0)
    classes = counters.get("curves.classes", 0)
    twists = total(calls, ("words.substitute",), "curves.generate")
    arith = ("quotient.mul", "quotient.inv", "quotient.cocycle")
    dehn = ("words.is_trivial", "words.dehn_normal_form")
    values = {
        "words.canonical_class.search.calls": search_calls,
        "words.canonical_class.search.self_s": total(
            self_s, ("words.canonical_class",), "quotient.search"
        ),
        "quotient.search_s": stage_s("quotient.search"),
        "quotient.search.witnesses": witnesses,
        "quotient.search.hit_ratio": _ratio(witnesses, search_calls),
        "words.canonical_class.bfs.calls": total(
            calls, ("words.canonical_class",), "curves.generate"
        ),
        "words.canonical_class.bfs.self_s": total(
            self_s, ("words.canonical_class",), "curves.generate"
        ),
        "curves.generate_s": stage_s("curves.generate"),
        "curves.classes": classes,
        "curves.generate.keep_ratio": _ratio(classes, twists),
        "cover.build_s": stage_s("cover.build"),
        "curves.lemma_s": stage_s("curves.lemma"),
        "curves.lemma.lifts": total(calls, ("cover.lift",), "curves.lemma"),
        "cover.deck_action.distinct": header["distinct"].get("cover.deck_action", 0),
        "quotient.arith.self_s": total(self_s, arith),
        "quotient.image_rank_s": stage_s("quotient.image_rank"),
        "curves.verify_s": stage_s("curves.verify"),
        "words.dehn.calls": total(calls, dehn),
        "words.dehn.self_s": total(self_s, dehn),
        "cli.self_s": spans["root_s"] - sum(d for _, d in spans["stages"]),
        "cli.output_bytes": out_bytes,
        "trace.wall_s": spans["root_s"],
    }
    for span in ("words.substitute", "gf2.rref", "gf2.coords", "cover.loop_class",
                 "cover.lift", "cover.closed_up_class", "cover.deck_action",
                 "quotient.rho"):
        values[span + ".calls"] = total(calls, (span,))
        values[span + ".self_s"] = total(self_s, (span,))
    for span in arith:
        values[span + ".calls"] = total(calls, (span,))
    return values


@dataclass
class Outcome:
    ok: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    out_bytes: int


class Runner:
    """Runs checked child invocations one at a time and counts failures."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        # A fixed hash seed, so str hashing is the same in every child.
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.simpleloop_file = None
        self.out_path = os.path.join(workdir, "report.jsonl")

    def time_left(self):
        return self.deadline - time.perf_counter()

    def invoke(self, argv, check, command=None, trace_path=None):
        """Run one invocation to its end and gate its report.

        Args:
            argv: simpleloop arguments; `--out` is appended.
            check: function from the report text to None or a failure reason.
            command: the program to run in place of child.py (for tests).
            trace_path: when set, the child records spans there.
        """
        for stale in (self.out_path, trace_path):
            if stale is not None and os.path.exists(stale):
                os.remove(stale)
        if command is None:
            command = [sys.executable, CHILD]
        if trace_path is not None:
            command = command + ["--trace", trace_path]
        cmd = command + list(argv) + ["--out", self.out_path]
        stderr_path = os.path.join(self.workdir, "stderr.txt")
        self.attempted += 1
        with open(os.devnull, "wb") as devnull, open(stderr_path, "wb") as err:
            code, wall, usage = _spawn_and_wait(
                cmd, devnull, err, self.env, max(self.time_left(), 1.0)
            )
        with open(stderr_path, errors="replace") as handle:
            stderr = handle.read()
        reason = self._gate(code, stderr, check)
        if reason is not None:
            self.failed += 1
            self.reasons.append("%s: %s" % (" ".join(argv), reason))
        return Outcome(
            ok=reason is None,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            out_bytes=os.path.getsize(self.out_path) if reason is None else 0,
        )

    def _gate(self, code, stderr, check):
        if code != 0:
            return "exit code %d: %s" % (code, stderr.strip()[-300:])
        first = stderr.partition("\n")[0]
        loaded = first.partition("simpleloop_file=")[2]
        if os.path.realpath(loaded or "/") != os.path.realpath(PACKAGE_FILE):
            return "simpleloop was not imported from src/ (%r)" % first
        self.simpleloop_file = loaded
        try:
            with open(self.out_path) as handle:
                text = handle.read()
        except OSError as exc:
            return "no report: %s" % exc
        return check(text)


def _spawn_and_wait(cmd, stdout, stderr, env, timeout):
    """Run cmd to its end; return (exit code, wall seconds, rusage of it alone)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def workload_argv(workload, seed):
    """The workload's simpleloop arguments for a seed, and its output gate."""
    argv = list(workload.argv)
    expected = dict(workload.expected)
    if workload.seeded:
        argv += ["--seed", str(seed)]
        expected["config.seed"] = seed
    return argv, lambda text: checks.check_summary_then_digest(
        text, expected, workload.digest
    )


def measure_end_to_end(runner, workload, seed, seconds):
    """Set-up repeats, then workload repeats for `seconds`; samples of each."""
    info_argv = ["info", "--genus", str(workload.genus)]
    check_info = lambda text: checks.check_info(text, workload.genus)
    setups = []
    start = time.perf_counter()
    while len(setups) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_S:
        setups.append(runner.invoke(info_argv, check_info))
    argv, check = workload_argv(workload, seed)
    runs = []
    start = time.perf_counter()
    while not runs or _may_continue(runner, runs, start, seconds):
        runs.append(runner.invoke(argv, check))
    good = [o for o in runs if o.ok]
    return {
        "setup_s": [o.wall_s for o in setups if o.ok],
        "wall_s": [o.wall_s for o in good],
        "cpu_s": [o.cpu_s for o in good],
        "peak_rss_mb": [o.peak_rss_mb for o in good],
    }, "%d set-up and %d workload invocations" % (len(setups), len(runs))


def measure_layers(runner, workload, seed, seconds):
    """Untraced and traced invocations in turn for `seconds`; per-layer samples."""
    argv, check = workload_argv(workload, seed)
    trace_path = os.path.join(runner.workdir, "trace.json")
    plain, traced, per_run = [], [], []
    start = time.perf_counter()
    while not traced or _may_continue(runner, plain + traced, start, seconds):
        plain.append(runner.invoke(argv, check))
        outcome = runner.invoke(argv, check, trace_path=trace_path)
        traced.append(outcome)
        if outcome.ok:
            header, *arrays = tracing.load(trace_path)
            spans = tracing.summarize(header["names"], *arrays)
            per_run.append(layer_metrics(header, spans, outcome.out_bytes))
    samples = {}
    for name, unit in LAYER_METRICS:
        samples[name] = [values[name] for values in per_run if name in values]
        if unit == "count" and len(set(samples[name])) > 1:
            runner.failed += 1
            runner.reasons.append(
                "%s differs between traced invocations: %s" % (name, samples[name])
            )
    plain_walls = [o.wall_s for o in plain if o.ok]
    if plain_walls:
        plain_wall = statistics.median(plain_walls)
        samples["trace.overhead_ratio"] = [
            o.wall_s / plain_wall for o in traced if o.ok
        ]
    return samples, "%d untraced and %d traced invocations" % (len(plain), len(traced))


def _may_continue(runner, done, start, seconds):
    """Whether to start another invocation: inside the run length and budget."""
    elapsed = time.perf_counter() - start
    longest = max(o.wall_s for o in done)
    return elapsed < seconds and runner.time_left() > 2 * longest


def provenance(runner):
    """What ran where: git sha (when a .git is present), Python, CPUs, the
    package file the children imported, and the size of src/ in lines."""
    git_sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
            git_sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for dirpath, _, filenames in os.walk(SRC):
        for filename in filenames:
            if filename.endswith(".py"):
                with open(os.path.join(dirpath, filename), "rb") as handle:
                    src_lines += handle.read().count(b"\n")
    return {
        "git_sha": git_sha,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "simpleloop_file": runner.simpleloop_file,
        "src_lines": src_lines,
    }


def _median(values):
    """Median; for counts, which repeat exactly, the count itself."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def result(runner, samples, units):
    """The final JSON object: medians; null where no invocation succeeded."""
    values = {name: _median(v) for name, v in samples.items() if v}
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": values.get(name), "unit": unit} for name, unit in units
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "simpleloop", "cli.py")):
        sys.stderr.write("no src/simpleloop next to perfbench/: nothing to run\n")
        return 2

    workload = WORKLOADS[args.workload]
    deadline = time.perf_counter() + RUN_BUDGET_S
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(workdir, deadline)
        # Compiles the bytecode of src/ so no timed child pays for it.
        runner.invoke(["info", "--genus", "2"], lambda text: checks.check_info(text, 2))
        if args.trace:
            samples, what = measure_layers(runner, workload, args.seed, args.seconds)
            units = LAYER_METRICS
        else:
            samples, what = measure_end_to_end(runner, workload, args.seed, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("perfbench %s seed=%d seconds=%d trace=%d: %s" % (
        args.workload, args.seed, args.seconds, args.trace, what))
    print("provenance %s" % json.dumps(provenance(runner), sort_keys=True))
    out = result(runner, samples, units)
    for name, unit in units:
        seen = samples.get(name) or [None]
        print("  %-40s %r %s  (median of %d; min %r, max %r)" % (
            name, out["metrics"][name]["value"], unit, len(seen), min(seen), max(seen)))
    print("  %-40s %r ratio (%d of %d invocations failed)" % (
        "fail_rate", runner.failed / runner.attempted, runner.failed, runner.attempted))
    for reason in runner.reasons:
        sys.stderr.write("FAILED %s\n" % reason)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
