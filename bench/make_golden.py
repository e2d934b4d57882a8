"""Regenerate bench/golden/cli_cold.json from the heckej in src/.

    python3 bench/make_golden.py

Run it only when a change to the CLI's output is intended: the
cli-cold workload fails every call whose stdout or exit code differs
from this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "bench" / "golden" / "cli_cold.json"

A2_W14 = "01201201201201"  # a length-14 element of A2~

# Every subcommand family; the first four are the --tiny list.  The A2~
# `kl --radius 14` call appears twice: the first writes the KL table to
# the cache directory, the second reads it back and verifies it.
CALLS = [
    "group --type A1~ --extended --radius 3 --format json",
    "kl --type A1~ --radius 8 --y e --w 010",
    "sl2 conv --r 0 --lattice std",
    "sl2 count --p 2 --m 1 --n 5 --r 0",
    "group --type A2~ --radius 4",
    f"kl --type A2~ --radius 14 --y e --w {A2_W14}",
    f"kl --type A2~ --radius 14 --y e --w {A2_W14}",
    "kl --type A1~ --y 2 --w 0",
    "hmul --type A1~ --x 0 --y 0 --hecke-basis T",
    "hmul --type A2~ --x 01 --y 10",
    "hconst --type A2~ --x 010 --y 010",
    "gamma --type A1~ --x 0 --y 0",
    "jmul --type A1~ --x 01 --y 10 --basis unsigned",
    "jmul --type A1~ --extended --x 0@1 --y 1",
    "phi --type A1~ --x 0 --q 4",
    "phi-check --type A1~ --max-len 4",
    "sl2 count --p 2 --m 7 --n 1 --r 0",
    "sl2 count --p 3 --m 4 --n -1 --r 0",
    "sl2 verify --R 20",
    "sl2 decay --q 3 --N 6",
]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    records = []
    with tempfile.TemporaryDirectory() as cache:
        env["HECKEJ_CACHE_DIR"] = cache
        for line in CALLS:
            argv = line.split()
            proc = subprocess.run(
                [sys.executable, "-m", "heckej.cli", *argv], env=env, capture_output=True, cwd=ROOT
            )
            records.append({"argv": argv, "exit": proc.returncode, "stdout": proc.stdout.decode()})
            print(f"exit {proc.returncode}: heckej {line}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
