"""Every pinned CLI call, replayed in a fresh interpreter.

The `replay` fixture of conftest.py runs one table of calls once per
session, in order, in one fresh interpreter in which sympy cannot be
imported: the package has no runtime dependency.  The table holds the
benchmark's golden command set (bench/golden/cli_cold.json),
PINNED_OUTPUTS (checked in test_cli.py) and CLI_PINS, and the exit
code, stdout and stderr of each call are captured.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heckej
from conftest import CLI_PINS, golden


def test_golden_commands_run_without_sympy(replay):
    assert len(golden()) == 20
    for rec in golden():
        for code, out, err in replay.runs[tuple(rec["argv"])]:
            assert (code, out) == (rec["exit"], rec["stdout"]), " ".join(rec["argv"])
            assert code != 0 or err == "", " ".join(rec["argv"])
    assert replay.sympy == []
    assert replay.sl2_loaded


@pytest.mark.parametrize("argv, code, out, err", CLI_PINS, ids=[argv[:60] for argv, *_ in CLI_PINS])
def test_pinned_call(replay, argv, code, out, err):
    ((got_code, got_out, got_err),) = replay.runs[tuple(argv.split())]
    assert got_code == code
    for want, got in ((out, got_out), (err, got_err)):
        if isinstance(want, tuple):
            assert [s for s in want if s not in got] == [], got
        else:
            assert got == want


def test_replay_writes_the_pinned_kl_cache_file(replay):
    """The golden `kl` call on A2~ at radius 14, in a spawned interpreter,
    writes the cache file whose bytes test_cli.py pins."""
    (path,) = replay.cache.glob("kl_*_r14.json")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "bb4832983a6d38daef2a15ca23777d126d8daa4547a951f61423eb62ad6d7718"


# Modules that no subcommand needs at start-up: the KL cache and the json
# and csv formats import theirs when they run, so do the functions that
# make a rational with fractions (which loads decimal), and the package
# uses neither dataclasses (which pulls in inspect) nor typing.
NOT_AT_START_UP = (
    "dataclasses", "inspect", "hashlib", "csv", "json", "pathlib", "typing", "fractions", "decimal",
)


def _loaded_by_import(module):
    """The modules loaded in a fresh interpreter by `import module`."""
    src = str(Path(heckej.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # -S: no site module, so only what the import loads is there
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys, {module}; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert module in loaded
    return loaded


def test_cli_import_loads_no_unused_module():
    loaded = _loaded_by_import("heckej.cli")
    assert [m for m in NOT_AT_START_UP if m in loaded] == []


def test_package_import_loads_no_fractions():
    loaded = _loaded_by_import("heckej")
    assert "fractions" not in loaded and "decimal" not in loaded
