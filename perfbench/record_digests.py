"""Record the stdout digests of the heavy invocations in every format.

    python3 perfbench/record_digests.py

Run from the root of a source tree whose CLI output is known good; the
benchmark then requires the same bytes from every later tree.
"""

import hashlib
import json
import time

import run


def main() -> None:
    digests = {}
    for cases in run.HEAVY.values():
        for name, (argv, _) in cases.items():
            digests[name] = {}
            for fmt in run.mix.FORMATS:
                child = run.run_cli(
                    "timed_cli.py", [*argv.split(), "--format", fmt], time.monotonic() + 600
                )
                if child.code != 0:
                    raise SystemExit(f"{name} ({fmt}) exited {child.code}")
                digests[name][fmt] = hashlib.sha256(child.out).hexdigest()
    run.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    run.shutil.rmtree(run.TMP, ignore_errors=True)


if __name__ == "__main__":
    main()
