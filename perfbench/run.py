"""altkit benchmark: timed public calls per workload, digest-checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload identities --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps public
functions of each altkit module from outside (see tracer.py) and prints
the per-layer metrics, one replayable sample line per call, and the
traced-to-untraced wall ratio.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Other modes:

    --replay LINE     rerun the one call a ``sample`` line names
    --record          record pool entries missing from oracle.json

Standard library only.  Calls run in one process with no threads; only
``setup_s`` is timed in fresh child interpreters.  It imports altkit from
``src/`` of the checkout it sits in and refuses any other copy.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import tracer as tr
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ORACLE = os.path.join(HERE, "oracle.json")

# set-up samples taken per run, each in a fresh interpreter
SETUP_SAMPLES = 9
# a round may end this far past --seconds rather than be left out
OVERRUN = 1.15
# runs per pool entry when recording; its cost is their median, scaled
RECORD_REPEATS = 5
# nominal time of one reference pass: reported times are scaled to a
# machine on which the pass takes this long
REFERENCE_MS = 4.0
# reference passes on each side of a call that set its local speed
REFERENCE_WINDOW = 3
# a timer signal runs one more reference pass this often inside a call
SAMPLE_EVERY_S = 0.1
COLUMN_METRICS = (
    ("q", 4, "case_ms.q.n4"),
    ("q", 5, "case_ms.q.n5"),
    ("fp:5", 4, "case_ms.fp5.n4"),
    ("fp:5", 5, "case_ms.fp5.n5"),
)
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cases_per_s": "1/s",
    "call_ms.p50": "ms",
    "call_ms.tail": "ms",
    "case_ms.q.n4": "ms",
    "case_ms.q.n5": "ms",
    "case_ms.fp5.n4": "ms",
    "case_ms.fp5.n5": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; exit without a result."""


def import_altkit():
    """Import altkit from this checkout's src/, and only from there."""
    # the thread pool measured 1.0x and is slated for deletion; pin it off
    os.environ.pop("ALTKIT_THREADS", None)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "altkit")):
        raise BenchError(f"no altkit sources under {src}")
    sys.path.insert(0, src)
    import altkit
    import altkit.cli
    from altkit.errors import AltkitError

    where = os.path.dirname(os.path.abspath(altkit.__file__))
    if where != os.path.join(src, "altkit"):
        raise BenchError(f"altkit imported from {where}, not from {src}")
    return altkit.cli, AltkitError


def load_oracle():
    try:
        with open(ORACLE, encoding="utf-8") as fh:
            return json.load(fh)["calls"]
    except (OSError, ValueError, KeyError) as e:
        raise BenchError(f"cannot read {ORACLE}: {e}") from None


def git_commit():
    """The checkout's commit from .git, without running git; or 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# machine speed
#
# On a shared machine other tenants change its speed by a third from one
# second to the next, more than any bound a regression gate can use.  A
# fixed reference pass runs between calls, and inside a call from a timer
# signal every SAMPLE_EVERY_S; each call's time, less the passes run
# inside it, is scaled to the nominal speed by the passes nearest it.
# Raw times are printed beside the scaled ones.


def reference_pass():
    """Fixed pure-Python work of the kind altkit's kernels do: a sparse
    polynomial product, tuple exponent keys into a dict, Fraction
    coefficients.  Returns its time in ms."""
    start = time.perf_counter()
    f = {(i, j, i * j % 3): Fraction(i + 1, j + 2) for i in range(6) for j in range(5)}
    g = {(j, i % 4, 1): Fraction(2 * i - 3, i + j + 1) for i in range(5) for j in range(5)}
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[key] = out.get(key, 0) + ca * cb
    return (time.perf_counter() - start) * 1e3


def scaled(rounds):
    """Each round's call latencies at the nominal speed.

    A round holds a reference pass before each call and one after the
    last; call i of a round is scaled by the median of the passes run
    inside it and the REFERENCE_WINDOW passes on either side of it.
    """
    passes = [p for r in rounds for p in r.ref]
    out, offset = [], 0
    for r in rounds:
        row = []
        for i, ms in enumerate(r.ms):
            pos = offset + i
            near = passes[max(0, pos - REFERENCE_WINDOW + 1) : pos + REFERENCE_WINDOW + 1]
            row.append(ms * REFERENCE_MS / statistics.median(near + r.inner[i]))
        out.append(row)
        offset += len(r.ref)
    return out


# ---------------------------------------------------------------------------
# calls


class Runner:
    """Prepares and runs calls against one imported altkit.

    Owns the SIGALRM handler that runs reference passes inside calls;
    ``close`` puts the previous handler back.
    """

    def __init__(self, cli, altkit_error):
        self.cli = cli
        self.altkit_error = altkit_error
        self.passes = []  # reference passes run inside the last call
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        self.passes.append(reference_pass())

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def prepare(self, call):
        """Input generation for one call, done before any timing."""
        if call["kind"] == "instance":
            return workloads.fixture_path(call, ROOT)
        if call["kind"] == "probe":
            return workloads.probe_payload(call)
        return None

    def run(self, call, prepared):
        """One timed public call.

        Returns (ms, rendered report or None, cases, error text or None);
        ``ms`` leaves out the reference passes run inside the call, which
        are left in ``self.passes``.
        """
        self.passes = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            text, cases, error = self._call(call, prepared)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        return elapsed * 1e3 - sum(self.passes), text, cases, error

    def _call(self, call, prepared):
        # entry points are looked up on the module at call time, so the
        # traced run times the wrapped ones
        cli = self.cli
        try:
            if call["kind"] == "suite":
                config = cli.make_suite_config(
                    ring=call["ring"],
                    n=str(call["n"]),
                    cases=call["cases"],
                    seed=call["seed"],
                    max_degree=call["max_degree"],
                    max_terms=call["max_terms"],
                    identities=call["suite"],
                )
                report = cli.run_suite(config)
                cases = call["cases"]
            elif call["kind"] == "instance":
                report = cli.run_instance(prepared, call.get("mode"))
                cases = len(report["witnesses"])
            else:
                report = cli.run_probe(prepared)
                cases = 1
            return cli.render_report(report), cases, None
        except (self.altkit_error, AssertionError) as e:
            return None, call.get("cases", 1), f"{type(e).__name__}: {e}"


def check(call, text, error, oracle):
    """Why a call's output is wrong, or None when it matches the oracle."""
    if error is not None:
        return error
    report = json.loads(text)
    if report.get("failures_total") != 0:
        return f"failures_total = {report.get('failures_total')}"
    if call["kind"] == "probe" and report.get("on_diagonal") is not True:
        return "a repeated point must put every determinant at zero"
    entry = oracle.get(workloads.call_key(call))
    if entry is None:
        return "no digest recorded for this call"
    if hashlib.sha256(text.encode()).hexdigest() != entry["sha256"]:
        return "report differs from the recorded digest"
    return None


# ---------------------------------------------------------------------------
# rounds


class Round:
    """Latencies and outcomes of one pass over a workload's calls."""

    def __init__(self):
        self.ms = []
        self.ref = []  # reference passes: one before each call, one after the last
        self.inner = []  # reference passes run inside each call
        self.cases = []
        self.failed = 0
        self.errors = []
        self.layers = {}  # per-layer values accrued over the round
        self.samples = []  # (call, ms, per-layer values) when traced


def run_round(runner, calls, prepared, oracle, tracer=None):
    rnd = Round()
    for (slot, call), arg in zip(calls, prepared):
        rnd.ref.append(reference_pass())
        if tracer is not None:
            tracer.reset_peaks()
            before = tracer.snapshot()
        ms, text, cases, error = runner.run(call, arg)
        rnd.inner.append(runner.passes)
        if tracer is not None:
            own = tr.accrue({}, before, tracer.snapshot())
            if not (slot and slot.column):
                tr.accrue(rnd.layers, {}, own)
            rnd.samples.append((call, ms, own))
        rnd.ms.append(ms)
        rnd.cases.append(cases)
        problem = check(call, text, error, oracle)
        if problem is not None:
            rnd.failed += cases
            rnd.errors.append((call, problem))
    rnd.ref.append(reference_pass())
    return rnd


def run_rounds(runner, calls, prepared, oracle, seconds, tracer=None):
    """One round; then more while the next, taking as long as the last,
    would end by ``OVERRUN * seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(runner, calls, prepared, oracle, tracer))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > OVERRUN * seconds:
            return rounds


def _ceil_div(a, b):
    return -(-a // b)


def tail_percentile(count):
    """Highest whole percentile, below 100, with at least ten calls beyond it."""
    for p in range(99, 0, -1):
        if count - _ceil_div(count * p, 100) >= 10:
            return p
    return None


def main_calls(calls):
    """Indices of the calls the workload is about (not its column slice)."""
    return [i for i, (slot, _) in enumerate(calls) if not (slot and slot.column)]


def round_wall(row, main):
    return sum(row[i] for i in main) / 1e3


def e2e_metrics(calls, rounds):
    """End-to-end figures from the untraced rounds, and notes to print.

    Latencies are scaled to the nominal machine speed.  Every round
    replays the same calls, so each call's latency is its median over
    rounds, and ``wall_s`` is one round at those latencies.  A call's
    case count is the same every round.
    """
    rows = scaled(rounds)
    per_call = [statistics.median(row[i] for row in rows) for i in range(len(calls))]
    raw = [statistics.median(r.ms[i] for r in rounds) for i in range(len(calls))]
    passes = statistics.median(p for r in rounds for p in r.ref)
    cases = rounds[0].cases
    main = main_calls(calls)
    lat = sorted(per_call[i] for i in main)
    wall = sum(lat) / 1e3
    main_cases = sum(cases[i] for i in main)
    # the percentile depends on the round's call count alone, never on how
    # many rounds fitted, so it is the same at every commit
    p = tail_percentile(len(lat))
    tail = lat[_ceil_div(len(lat) * p, 100) - 1] if p else lat[-1]
    metrics = {
        "wall_s": wall,
        "cases_per_s": main_cases / wall,
        "call_ms.p50": statistics.median(lat),
        "call_ms.tail": tail,
    }
    for ring, n, name in COLUMN_METRICS:
        idx = [i for i, (_, c) in enumerate(calls) if c["ring"] == ring and c["n"] == n]
        metrics[name] = sum(per_call[i] for i in idx) / sum(cases[i] for i in idx)
    notes = {
        "wall_s": f"{len(main)} calls, {main_cases} cases, medians of {len(rounds)} rounds;"
        f" raw {sum(raw[i] for i in main) / 1e3:.6g} s, reference pass {passes:.4g} ms",
        "call_ms.tail": (f"p{p}" if p else "max") + f" of {len(lat)} calls",
    }
    return metrics, notes


def totals(rounds):
    attempted = sum(sum(r.cases) for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    return attempted, failed, errors


# ---------------------------------------------------------------------------
# modes


def measure_setup(args):
    """Median set-up time over fresh interpreters, each timed from spawn
    to the moment it would make its first timed call.  Each is scaled like
    a call, by reference passes the child runs once it is set up and the
    parent runs once the child has gone."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--setup-only",
        ]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        lines = [l for l in proc.stdout.splitlines() if l.startswith("setup-done ")]
        if proc.returncode != 0 or not lines:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        done, *passes = (float(x) for x in lines[-1].split()[1:])
        passes += [reference_pass() for _ in range(REFERENCE_WINDOW)]
        samples.append((done - start) * REFERENCE_MS / statistics.median(passes))
    return statistics.median(samples)


def print_header(args, mode):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(
        f"# altkit perfbench {mode} workload={args.workload} seed={args.seed}"
        f" seconds={args.seconds} python={platform.python_version()}"
        f" nproc={cpus} commit={git_commit()} ALTKIT_THREADS=unset"
    )


def print_result(correct, attempted, failed, metrics, units, errors, notes=None):
    notes = notes or {}
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<32} {value:>14.6g} {units[name]}{note}")
    ratio = failed / attempted if attempted else 0.0
    print(f"{'fail_ratio':<32} {ratio:>14.6g}   ({failed} of {attempted} cases)")
    for call, problem in errors[:20]:
        print(f"FAILED {json.dumps(call, sort_keys=True)}: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


def untraced(args, runner, calls, prepared, oracle, setup_s):
    rounds = run_rounds(runner, calls, prepared, oracle, args.seconds)
    metrics, notes = e2e_metrics(calls, rounds)
    metrics["setup_s"] = setup_s
    notes["setup_s"] = f"median of {SETUP_SAMPLES} fresh interpreters"
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {name: metrics[name] for name in E2E_UNITS}
    attempted, failed, errors = totals(rounds)
    correct = failed == 0
    print_result(correct, attempted, failed, metrics, E2E_UNITS, errors, notes)


def traced(args, runner, calls, prepared, oracle):
    """Untraced rounds, traced rounds, then one untraced round after the
    wrappers are gone; per-layer figures come from the traced rounds."""
    third = args.seconds / 3
    main = main_calls(calls)
    plain = run_rounds(runner, calls, prepared, oracle, third)
    tracer = tr.Tracer()
    tracer.install("altkit")
    try:
        traced_rounds = run_rounds(runner, calls, prepared, oracle, third, tracer)
    finally:
        tracer.restore()
    after = run_rounds(runner, calls, prepared, oracle, 0)
    # counters from the first traced round; check_counts.py checks that
    # they repeat across runs
    first = traced_rounds[0].layers
    values = dict(first)
    for name in first:
        if name.endswith(".ms"):
            values[name] = statistics.median(r.layers.get(name, 0) for r in traced_rounds)
    metrics = tr.layer_metrics(values, tracer.layers)
    wall_plain = statistics.median(round_wall(row, main) for row in scaled(plain))
    wall_traced = statistics.median(round_wall(row, main) for row in scaled(traced_rounds))
    wall_after = round_wall(scaled(after)[0], main)
    metrics["trace_overhead"] = wall_traced / wall_plain
    units = {name: tr.unit(name) for name in metrics}
    for call, ms, own in traced_rounds[0].samples:
        sample = {
            "workload": args.workload,
            "bench_seed": args.seed,
            "call": call,
            "ms": ms,
            "layers": {k: round(v, 6) for k, v in sorted(own.items()) if v},
        }
        print("sample " + json.dumps(sample, sort_keys=True))
    if tracer.missing:
        print("absent: " + ", ".join(tracer.missing))
    # reported only: one round on a shared machine is too noisy to gate
    # on; Tracer.restore checks that the original objects are back
    print(
        f"# untraced wall {wall_plain:.4f} s before tracing, {wall_after:.4f} s after"
        f" restoring ({len(traced_rounds)} traced rounds)"
    )
    attempted, failed, errors = totals(plain + traced_rounds + after)
    print_result(failed == 0, attempted, failed, metrics, units, errors)


def replay(args, runner, oracle):
    """Rerun the one call a sample line names, alone."""
    text = args.replay.strip()
    if text.startswith("sample "):
        text = text[len("sample "):]
    try:
        sample = json.loads(text)
        call = sample["call"] if "call" in sample else sample
    except (ValueError, TypeError, KeyError) as e:
        raise BenchError(f"--replay needs a sample line: {e}") from None
    arg = runner.prepare(call)
    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tracer.install("altkit")
    try:
        rnd = run_round(runner, [(None, call)], [arg], oracle, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    print(f"# replay {json.dumps(call, sort_keys=True)}")
    if tracer is not None:
        print("layers " + json.dumps({k: round(v, 6) for k, v in sorted(rnd.layers.items()) if v}))
    metrics = {"call_ms": rnd.ms[0]}
    print_result(rnd.failed == 0, rnd.cases[0], rnd.failed, metrics, {"call_ms": "ms"}, rnd.errors)


def record(args, runner):
    """Add the pool entries missing from oracle.json, with their digest and
    cost.  Entries already there keep both; each is rerun, and a report
    that no longer matches its digest stops the recording."""
    try:
        with open(ORACLE, encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        stored = {"calls": {}}
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    added = 0
    for name in names:
        started = time.perf_counter()
        pool = workloads.all_pool_calls(name)
        new = 0
        for call in pool:
            key = workloads.call_key(call)
            entry = stored["calls"].get(key)
            arg = runner.prepare(call)
            rnd = Round()
            rnd.ref.append(reference_pass())
            texts = set()
            for _ in range(1 if entry else RECORD_REPEATS):
                ms, text, _, error = runner.run(call, arg)
                if error is not None or json.loads(text).get("failures_total") != 0:
                    raise BenchError(f"cannot record a failing call {call}: {error}")
                texts.add(text)
                rnd.ms.append(ms)
                rnd.inner.append(runner.passes)
                rnd.ref.append(reference_pass())
            if len(texts) != 1:
                raise BenchError(f"call {call} renders different reports when repeated")
            digest = hashlib.sha256(text.encode()).hexdigest()
            if entry:
                if entry["sha256"] != digest:
                    raise BenchError(f"call {call} no longer matches its recorded digest")
                continue
            stored["calls"][key] = {
                "ms": round(statistics.median(scaled([rnd])[0]), 3),
                "sha256": digest,
            }
            new += 1
        added += new
        print(
            f"{name}: {len(pool)} calls, {new} recorded,"
            f" {len(pool) - new} checked in {time.perf_counter() - started:.1f} s"
        )
    if added:
        stored.setdefault("recorded_with", {
            "python": platform.python_version(),
            "commit": git_commit(),
        })
        with open(ORACLE, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=0, sort_keys=True)
            fh.write("\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", default=None, help="a sample line to rerun")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def bench(args):
    if not (args.record or args.replay) and args.workload not in workloads.WORKLOADS:
        raise BenchError(
            f"--workload must be one of {', '.join(workloads.WORKLOADS)}"
        )
    cli, altkit_error = import_altkit()
    oracle = {} if args.record else load_oracle()
    runner = Runner(cli, altkit_error)
    try:
        if args.record:
            return record(args, runner)
        if args.replay:
            return replay(args, runner, oracle)
        calls = workloads.draw_round(args.workload, args.seed, oracle)
        prepared = [runner.prepare(call) for _, call in calls]
        if args.setup_only:
            done = time.monotonic()
            passes = [reference_pass() for _ in range(REFERENCE_WINDOW)]
            print("setup-done", *map(repr, [done] + passes), flush=True)
            return 0
        if args.trace:
            print_header(args, "traced")
            traced(args, runner, calls, prepared, oracle)
        else:
            print_header(args, "untraced")
            untraced(args, runner, calls, prepared, oracle, measure_setup(args))
        return 0
    finally:
        runner.close()


def main(argv=None):
    args = parse_args(argv)
    try:
        return bench(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
