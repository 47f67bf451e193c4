"""The fistab CLI with machine-speed probes interleaved (see speed.py).

    python3 perfbench/timed_cli.py SAMPLES.json fistab-argument...

Calls `fistab.cli.main(argv)` like the installed `fistab` script would,
writes the CLI's output to stdout untouched and the probe times to
SAMPLES.json, and exits with the CLI's exit code.
"""

import json
import sys
from pathlib import Path

import speed


def main(argv: list[str]) -> int:
    sampler = speed.Sampler()
    try:
        with sampler:
            from fistab.cli import main as cli_main

            return cli_main(argv[1:])
    finally:
        sys.stdout.flush()
        Path(argv[0]).write_text(json.dumps({"samples": sampler.samples}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
