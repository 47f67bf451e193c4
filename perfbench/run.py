"""Benchmark of the fistab batch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree: fistab is imported from ./src, never
from an installed copy, and the run fails without printing a result when
./src/fistab is absent.

Workloads (see BENCHMARK.json for why each was chosen):

- os_scan: fresh-process `fistab os-scan` at the desk caps and past them.
- kunneth_wreath: fresh-process `kunneth --decompose` at n=16, 18 and a
  wreath-scan to n=30.
- request_mix: one closed-loop client calling `fistab.cli.main(argv)`
  in-process on the seeded request list of mix.py, after one untimed
  warm-up pass over it.

The heavy workloads repeat passes over their invocation list (order and
output format drawn from the seed) until S seconds have passed.  The mix
makes round(S / MIX_PASS_S) whole passes over its list (MIX_PASS_S is about
one pass on a 2-vCPU x86-64 host), so its attempted and failed counts are
the same on every run and every seed: its list has fixed shares of each
request kind and malformed variant.  Every report is checked: heavy
invocations against stdout digests recorded in digests.json and against
invariants computed in checks.py, mix requests against the check attached
to each request and against the bytes the same request printed in the
warm-up pass.

Times are normalized by machine-speed probes interleaved with the work
(speed.py); the raw wall time is kept in the run metadata.  Every workload
prints every metric: for the heavy workloads, requests are CLI invocations
and the latency percentiles run over each case's median time; for
request_mix, wall_s is one pass over its list (each segment's median time
over the passes, summed), requests_per_s the list's length over it, and the
percentiles run over each request's median latency over the passes.
Failed requests are counted in the result's "failed" against "attempted"
(failed_frac in the metadata).

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of trace.py, from one pass in
which each heavy invocation runs once plainly and once traced, each in a
fresh interpreter, or, for request_mix, one plain and one traced pass in
the client's process.  The line before it holds run metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import mix  # noqa: E402
import speed  # noqa: E402
import trace  # noqa: E402

SETUP = (
    "import sys, time; sys.path.insert(0, {here!r}); import speed; "
    "before = min(speed.probe() for _ in range(3)); t = time.perf_counter(); "
    "import fistab.cli; fistab.cli.build_parser(); dt = time.perf_counter() - t; "
    "after = min(speed.probe() for _ in range(3)); print(dt * speed.scale([before, after]))"
).format(here=str(HERE))
SETUP_LAUNCHES = 9
SEGMENT = 20  # mix requests between two speed calibrations; divides mix.LIST_SIZE
BUDGET_S = 170.0  # a run must end within 180 s
MIX_PASS_S = 5.0  # nominal seconds of one pass over the mix list


def _os_case(k, n_max, allow_large=False):
    argv = f"os-scan --n-min 2 --n-max {n_max} --k {k} --a-max 3"
    return argv + " --allow-large" * allow_large, lambda f: checks.check_os_scan(f, k, 2, n_max)


def _kunneth_case(n):
    argv = f"kunneth --graded-dims 1,2 --n {n} --i 3 --decompose"
    return argv, lambda f: checks.check_kunneth(f, (1, 2), n, 3)


HEAVY = {
    "os_scan": {
        "os_k1_cap": _os_case(1, 10),
        "os_k2_cap": _os_case(2, 10),
        "os_k3_cap": _os_case(3, 8),
        "os_k2_n12": _os_case(2, 12, allow_large=True),
        "os_k3_n9": _os_case(3, 9, allow_large=True),
    },
    "kunneth_wreath": {
        "kunneth_n16": _kunneth_case(16),
        "kunneth_n18": _kunneth_case(18),
        "wreath_n30": (
            "wreath-scan --graded-dims 1,2 --i 2 --n-max 30",
            lambda f: checks.check_wreath(f, (1, 2), 2, 0, 30),
        ),
    },
}
WORKLOADS = (*HEAVY, "request_mix")
DIGESTS = HERE / "digests.json"

# per-layer metric names, in the order BENCHMARK.json lists them
CALLS_REPORTED = ("os_model.", "characters.", "partitions.", trace.INSERT)
CACHES = (
    "characters.irreducible_character_cache",
    "characters.mn_cache",
    "characters.rim_hook_removals_cache",
    "os_model.basis_index_cache",
    "os_model.character_cache",
    "os_model.decomposition_cache",
    "os_model.nbc_basis_cache",
    "os_model.straighten_cache",
    "partitions.dimension_cache",
    "partitions.partitions_cache",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def span_names() -> list[str]:
    names = [f"{m}.{f}" for m, fs in trace.LAYERS.items() for f in fs]
    return names + [trace.INSERT, trace.HANDLER]


def per_layer_names() -> list[tuple[str, str]]:
    out = []
    for span in span_names():
        if span.startswith(CALLS_REPORTED):
            out.append((f"{span}.calls", "count"))
        out.append((f"{span}.self_s", "s"))
    out += [("linalg.insert_useful_ratio", "ratio"), ("cli.build_parser.request_share", "ratio")]
    out += [(f"{c}.{f}", "count") for c in CACHES for f in ("hits", "misses", "size")]
    out += [(f"cli.case_wall_s.{case}", "s") for cases in HEAVY.values() for case in cases]
    out.append(("trace.overhead_frac", "ratio"))
    return out


END_TO_END = (
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("requests_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p99", "ms"),
    ("setup_s", "s"),
)


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    code: int
    out: bytes
    err: bytes
    wall_s: float
    rss_mb: float
    norm_s: float = 0.0  # wall time less probes, in reference seconds
    record: dict | None = None  # what timed_cli.py / trace.py wrote


def run_child(args: list[str], deadline: float) -> Child:
    """Run `python3 ARGS` against ./src; wall time from start to reaping,
    peak RSS from the child's own rusage.  Killed at the deadline."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, out, err[0], wall, usage.ru_maxrss / 1024)


def run_cli(script: str, argv: list[str], deadline: float) -> Child:
    """One fistab invocation in a fresh interpreter, through timed_cli.py
    or trace.py, with its wall time normalized by the child's probes."""
    TMP.mkdir(exist_ok=True)
    path = TMP / "record.json"
    path.unlink(missing_ok=True)
    child = run_child([str(HERE / script), str(path), *argv], deadline)
    if path.exists():
        child.record = json.loads(path.read_text())
        samples = child.record["samples"]
        child.norm_s = (child.wall_s - sum(samples)) * speed.scale(samples)
        path.unlink()
    return child


def setup_seconds(deadline: float) -> float:
    """Median time for a fresh interpreter to import fistab.cli and build
    the parser, timed inside the child and normalized by probes run just
    before and after."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        child = run_child(["-c", SETUP], deadline)
        if child.code != 0:
            raise BenchError(f"cannot import fistab.cli: {child.err.decode()[-500:]}")
        times.append(float(child.out))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# heavy workloads


class Verifier:
    """Checks reports; each distinct report is checked once."""

    def __init__(self):
        self.digests = json.loads(DIGESTS.read_text())
        self.problems: list[str] = []
        self._seen: set[tuple[str, bytes]] = set()

    def heavy(self, case: str, fmt: str, check, out: bytes) -> None:
        if (case, out) in self._seen:
            return
        self._seen.add((case, out))
        want = self.digests.get(case, {}).get(fmt)
        if hashlib.sha256(out).hexdigest() != want:
            self.problems.append(f"{case} ({fmt}): stdout digest differs from the recorded one")
        try:
            problem = check(checks.flatten(fmt, out.decode()))
        except (ValueError, KeyError) as exc:
            problem = f"unreadable report: {exc!r}"
        if problem:
            self.problems.append(f"{case} ({fmt}): {problem}")


def heavy_cases(workload: str, rng: random.Random):
    cases = []
    for name, (argv, check) in HEAVY[workload].items():
        fmt = rng.choice(mix.FORMATS)
        cases.append((name, [*argv.split(), "--format", fmt], fmt, check))
    return cases


def run_heavy(workload: str, seed: int, seconds: float, deadline: float):
    rng = random.Random(seed)
    cases = heavy_cases(workload, rng)
    setup = setup_seconds(deadline)
    verify = Verifier()
    passes, per_case, raw, rss, attempted, failed = [], {}, [], 0.0, 0, 0
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        rng.shuffle(cases)
        pass_s = 0.0
        for name, argv, fmt, check in cases:
            child = run_cli("timed_cli.py", argv, deadline)
            attempted += 1
            if child.code != 0:
                failed += 1
                verify.problems.append(f"{name}: exit {child.code}: {child.err.decode()[-300:]}")
                continue
            verify.heavy(name, fmt, check, child.out)
            per_case.setdefault(name, []).append(child.norm_s)
            raw.append(child.wall_s)
            pass_s += child.norm_s
            rss = max(rss, child.rss_mb)
        passes.append(pass_s)
        if failed or time.monotonic() > deadline:
            break
    if not per_case:
        raise BenchError(f"every invocation failed: {verify.problems[0]}")
    # A handful of very different cases: percentiles over each case's
    # median keep order statistics from mixing cases from pass to pass.
    metrics = {
        "wall_s": statistics.median(passes),
        "peak_rss_mb": rss,
        "requests_per_s": len(raw) / sum(passes),
        **_latency_ms([statistics.median(times) for times in per_case.values()]),
        "setup_s": setup,
    }
    meta = {"passes": len(passes), "samples": len(raw), "raw_wall_s": sum(raw)}
    return metrics, attempted, failed, verify.problems, meta


def trace_heavy(workload: str, seed: int, deadline: float):
    rng = random.Random(seed)
    cases = heavy_cases(workload, rng)
    rng.shuffle(cases)
    verify = Verifier()
    spans: dict[str, dict] = {}
    caches: dict[str, dict[str, int]] = {}
    true_results: dict[str, int] = {}
    case_walls, plain_s, traced_s, main_s = {}, 0.0, 0.0, 0.0
    attempted = failed = 0
    largest = {}
    for name, argv, fmt, check in cases:
        plain = run_cli("timed_cli.py", argv, deadline)
        traced = run_cli("trace.py", argv, deadline)
        attempted += 2
        record = traced.record
        if plain.code != 0 or traced.code != 0 or record is None:
            failed += (plain.code != 0) + (traced.code != 0)
            verify.problems.append(f"{name}: exit {plain.code} plain, {traced.code} traced")
            continue
        if plain.out != traced.out:
            verify.problems.append(f"{name}: stdout differs with tracing on")
        verify.heavy(name, fmt, check, plain.out)
        _check_install(record, verify.problems)
        case_walls[name] = plain.norm_s
        plain_s += plain.norm_s
        traced_s += traced.norm_s
        main_s += record["main_s"]
        agg = trace.aggregate(record["spans"])
        largest[name] = _largest(agg)
        _merge_spans(spans, agg)
        for k, v in record["spans"]["true_results"].items():
            true_results[k] = true_results.get(k, 0) + v
        for cache, counts in record["caches"].items():
            acc = caches.setdefault(cache, {"hits": 0, "misses": 0, "size": 0})
            acc["hits"] += counts["hits"]
            acc["misses"] += counts["misses"]
            acc["size"] = max(acc["size"], counts["size"])
    overhead = traced_s / plain_s - 1 if plain_s else 0.0
    metrics = _layer_metrics(spans, caches, true_results, case_walls, overhead, main_s)
    meta = {"largest_spans": largest, "cases": len(cases)}
    return metrics, attempted, failed, verify.problems, meta


def _check_install(record: dict, problems: list[str]) -> None:
    if record["missing"]:
        problems.append(f"traced functions not found: {record['missing']}")
    if record["stale"]:
        problems.append(f"modules still bind unwrapped functions: {record['stale']}")


def _merge_spans(into: dict, agg: dict) -> None:
    for name, row in agg.items():
        acc = into.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for k in acc:
            acc[k] += row[k]


def _largest(agg: dict) -> list[str]:
    """Library spans by inclusive time, largest first (the cli.* spans
    enclose everything and are left out)."""
    lib = [(row["total_s"], name) for name, row in agg.items() if not name.startswith("cli.")]
    return [f"{name} {total:.3f}s" for total, name in sorted(lib, reverse=True)[:3]]


def _layer_metrics(spans, caches, true_results, case_walls, overhead, main_s) -> dict:
    values = {}
    for span in span_names():
        row = spans.get(span, {"calls": 0, "self_s": 0.0})
        values[f"{span}.calls"] = row["calls"]
        values[f"{span}.self_s"] = row["self_s"]
    inserts = spans.get(trace.INSERT, {}).get("calls", 0)
    values["linalg.insert_useful_ratio"] = true_results.get(trace.INSERT, 0) / inserts if inserts else 0.0
    parser_s = spans.get("cli.build_parser", {}).get("self_s", 0.0)
    values["cli.build_parser.request_share"] = parser_s / main_s if main_s else 0.0
    for cache in CACHES:
        for field in ("hits", "misses", "size"):
            values[f"{cache}.{field}"] = caches.get(cache, {}).get(field, 0)
    for cases in HEAVY.values():
        for case in cases:
            values[f"cli.case_wall_s.{case}"] = case_walls.get(case, 0.0)
    values["trace.overhead_frac"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def _latency_ms(latencies: list[float]) -> dict:
    cuts = statistics.quantiles(latencies, n=100, method="inclusive") if len(latencies) > 1 else latencies * 99
    return {"latency_ms.p50": statistics.median(latencies) * 1e3, "latency_ms.p99": cuts[98] * 1e3}


# ---------------------------------------------------------------------------
# request_mix: one in-process closed-loop client


def _import_cli():
    sys.path.insert(0, str(SRC))
    mods = trace.modules()
    where = Path(mods["fistab"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"fistab imported from {where}, not from {SRC}")
    return mods


def _call(main, argv) -> tuple[object, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(list(argv))
        except Exception as exc:  # an escaped exception is a failed request
            code = f"uncaught {type(exc).__name__}"
        dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


def _outcome_ok(req: mix.Request, code, out: str, err: str) -> bool:
    """Whether the request ended as documented (exit 0 with a report, or
    the expected exit code with a one-line message and no report)."""
    if code != req.expect:
        return False
    if req.expect == 0:
        return bool(out)
    lines = err.strip().splitlines()
    if out or not lines or "Traceback" in err:
        return False
    if req.expect == 1:
        return len(lines) == 1 and lines[0].startswith("fistab: ")
    return "error:" in lines[-1]


class MixClient:
    def __init__(self, seed: int):
        self.mods = _import_cli()
        self.main = self.mods["cli"].main  # looks its helpers up per call, so sees wrappers
        self.requests = mix.build(seed)
        self.reference: list[str | None] = []
        self.problems: list[str] = []

    def warm_up(self) -> None:
        """One untimed pass that checks every report and keeps its bytes."""
        for req in self.requests:
            code, out, err, _ = _call(self.main, req.argv)
            ok = _outcome_ok(req, code, out, err)
            self.reference.append(out if ok else None)
            if ok and req.check is not None:
                try:
                    problem = req.check(checks.flatten(req.fmt, out))
                except (ValueError, KeyError) as exc:
                    problem = f"unreadable report: {exc!r}"
                if problem:
                    self.problems.append(f"{' '.join(req.argv)[:120]}: {problem}")

    def one(self, idx: int) -> tuple[bool, float]:
        """Send request idx; (failed, latency)."""
        req = self.requests[idx]
        code, out, err, dt = _call(self.main, req.argv)
        if not _outcome_ok(req, code, out, err):
            return True, dt
        if self.reference[idx] is not None and out != self.reference[idx]:
            self.problems.append(f"{' '.join(req.argv)[:120]}: output changed between calls")
        return False, dt

    def segments(self):
        """Cycle over the list SEGMENT requests at a time, probing the
        machine speed between segments; yields (normalized latencies,
        raw latencies, failed requests) per segment."""
        before, idx = _calibrate(), 0
        while True:
            raw, failed = [], 0
            for _ in range(SEGMENT):
                bad, dt = self.one(idx % len(self.requests))
                idx += 1
                raw.append(dt)
                failed += bad
            after = _calibrate()
            factor = speed.scale([before, after])
            before = after
            yield [dt * factor for dt in raw], raw, failed

    def one_pass(self) -> tuple[float, float, int]:
        """(normalized seconds, raw seconds, failed) of one pass."""
        norm = raw = 0.0
        failed = 0
        segments = self.segments()
        for _ in range(len(self.requests) // SEGMENT):
            seg_norm, seg_raw, bad = next(segments)
            norm += sum(seg_norm)
            raw += sum(seg_raw)
            failed += bad
        return norm, raw, failed


def _calibrate() -> float:
    return min(speed.dict_probe() for _ in range(3))


def run_mix(seed: int, seconds: float, deadline: float):
    setup = setup_seconds(deadline)
    client = MixClient(seed)
    client.warm_up()
    latencies, passes, raw_s, failed = [], [], 0.0, 0
    segments = client.segments()
    for _ in range(max(1, round(seconds / MIX_PASS_S))):
        if passes and time.monotonic() > deadline:
            break
        lat, seg_s = [], []
        for _ in range(len(client.requests) // SEGMENT):
            seg_norm, seg_raw, bad = next(segments)
            lat += seg_norm
            seg_s.append(sum(seg_norm))
            raw_s += sum(seg_raw)
            failed += bad
        latencies.append(lat)
        passes.append(seg_s)
    # Request j and segment i are the same in every pass: their medians
    # over the passes drop bursts of machine noise.
    wall = sum(statistics.median(col) for col in zip(*passes))
    metrics = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "requests_per_s": len(client.requests) / wall,
        **_latency_ms([statistics.median(col) for col in zip(*latencies)]),
        "setup_s": setup,
    }
    attempted = len(passes) * len(client.requests)
    meta = {"passes": len(passes), "samples": attempted, "raw_wall_s": raw_s}
    return metrics, attempted, failed, client.problems, meta


def trace_mix(seed: int, deadline: float):
    client = MixClient(seed)
    client.warm_up()
    plain_s, _, failed = client.one_pass()
    caches = trace.find_caches(client.mods)
    before = trace.cache_counts(caches)
    rec = trace.Recorder()
    undo, missing = trace.install(rec, client.mods)
    try:
        stale = trace.stale_bindings(client.mods, undo)
        traced_s, traced_raw_s, traced_failed = client.one_pass()
    finally:
        trace.uninstall(undo)
    after = trace.cache_counts(caches)
    _check_install({"missing": missing, "stale": stale}, client.problems)
    counts = {
        name: {
            "hits": after[name]["hits"] - before[name]["hits"],
            "misses": after[name]["misses"] - before[name]["misses"],
            "size": after[name]["size"],
        }
        for name in after
    }
    dump = rec.dump()
    agg = trace.aggregate(dump)
    metrics = _layer_metrics(agg, counts, dump["true_results"], {}, traced_s / plain_s - 1, traced_raw_s)
    meta = {"largest_spans": {"request_mix": _largest(agg)}, "samples": 2 * len(client.requests)}
    return metrics, 2 * len(client.requests), failed + traced_failed, client.problems, meta


# ---------------------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _metadata(args, extra: dict) -> dict:
    commit = None  # a source tree that is not a git checkout is named by source_sha256
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "fistab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        **extra,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_S
    try:
        if not (SRC / "fistab" / "cli.py").is_file():
            raise BenchError(f"no fistab sources under {SRC}; run from the repository root")
        if args.workload == "request_mix":
            run = trace_mix(args.seed, deadline) if args.trace else run_mix(args.seed, args.seconds, deadline)
        elif args.trace:
            run = trace_heavy(args.workload, args.seed, deadline)
        else:
            run = run_heavy(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    metrics, attempted, failed, problems, extra = run
    if not args.trace:
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    extra["failed_frac"] = failed / attempted
    if args.trace:
        extra["trace.overhead_frac"] = metrics["trace.overhead_frac"]["value"]
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{'failed_frac':48s} {failed}/{attempted} = {failed / attempted:.4f}", file=sys.stderr)
    print(json.dumps({"run": _metadata(args, extra)}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
