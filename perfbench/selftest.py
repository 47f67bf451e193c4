"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source tree.  Checks that

1. every traced function exists and, once wrapped, is the wrapper in every
   module namespace that binds it (`decompose` in characters, induction,
   os_model and cli among them), and that uninstalling restores them;
2. the CLI prints identical bytes with tracing on and off;
3. two traced runs with the same seed give identical cache counters;
4. BENCHMARK.json names exactly the metrics run.py prints.

Exits 1 on the first failed check.
"""

import json
import subprocess
import sys
import time

import run
import trace


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def wrappers() -> None:
    mods = run._import_cli()
    originals = {n: getattr(mods["characters"], n) for n in trace.LAYERS["characters"]}
    undo, missing = trace.install(trace.Recorder(), mods)
    try:
        check(not missing, f"every traced function exists (missing: {missing})")
        stale = trace.stale_bindings(mods, undo)
        check(not stale, f"no module still binds an unwrapped function ({stale})")
        wrapped = {m: getattr(mods[m], "decompose") for m in ("characters", "induction", "os_model", "cli")}
        check(
            all(fn is not originals["decompose"] and fn.__wrapped__ is originals["decompose"]
                for fn in wrapped.values()),
            "decompose is wrapped in characters, induction, os_model and cli",
        )
    finally:
        trace.uninstall(undo)
    check(
        all(getattr(mods["characters"], n) is fn for n, fn in originals.items()),
        "uninstall restores the original functions",
    )


def identical_output() -> None:
    cases = [
        "os-scan --n-min 2 --n-max 6 --k 2 --a-max 2 --format text",
        "kunneth --graded-dims 1,2 --n 8 --i 3 --decompose --format csv",
        "fit-dimpoly --dims {\"2\":1,\"3\":3,\"4\":6,\"5\":10} --degree-bound 2",
        "stability-scan --entries []",
    ]
    deadline = time.monotonic() + 120
    for case in cases:
        argv = case.split()
        plain = run.run_cli("timed_cli.py", argv, deadline)
        traced = run.run_cli("trace.py", argv, deadline)
        check(
            (plain.code, plain.out) == (traced.code, traced.out),
            f"same exit code and stdout bytes traced and untraced: {case}",
        )


def cache_counts_repeat() -> None:
    def counters() -> dict:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "request_mix",
             "--seed", "5", "--seconds", "1", "--trace", "1"],
            cwd=run.ROOT, capture_output=True, text=True, check=True,
        )
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if "_cache." in k}

    first, second = counters(), counters()
    check(bool(first) and first == second, "cache counters repeat for the same seed")


def benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(
        [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names(),
        "BENCHMARK.json per_layer matches run.py",
    )
    check(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
        "BENCHMARK.json end_to_end matches run.py",
    )
    check(
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
        "BENCHMARK.json workloads match run.py",
    )


if __name__ == "__main__":
    benchmark_json()
    wrappers()
    identical_output()
    cache_counts_repeat()
    run.shutil.rmtree(run.TMP, ignore_errors=True)
