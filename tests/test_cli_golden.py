"""The CLI's stdout and exit codes on the benchmark's golden command set.

Every record of bench/golden/cli_cold.json is replayed in order through
``heckej.cli.main`` in this process, with a fresh KL cache directory, so
the repeated A2~ ``kl`` call reads back the table the first one wrote.
All of them are replayed once more in a fresh interpreter in which sympy
cannot be imported: the package has no runtime dependency.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import heckej
from heckej.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "cli_cold.json"


def test_golden_stdout_and_exit_codes(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("HECKEJ_CACHE_DIR", str(tmp_path / "cache"))
    records = json.loads(GOLDEN.read_text())
    assert len(records) == 20
    for rec in records:
        code = main(list(rec["argv"]))
        out = capsys.readouterr().out
        assert (code, out) == (rec["exit"], rec["stdout"]), " ".join(rec["argv"])



# Runs in a fresh interpreter: blocks sympy, replays the argv lists read
# from stdin, and prints one JSON object with what happened.
NO_SYMPY = """
import contextlib, io, json, sys
sys.modules["sympy"] = None
import heckej.cli
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = heckej.cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps({
    "results": results,
    "sympy": sorted(n for n, m in sys.modules.items()
                    if m is not None and (n == "sympy" or n.startswith("sympy."))),
    "sl2_loaded": "heckej.sl2" in sys.modules,
}))
"""


def test_golden_commands_run_without_sympy(tmp_path):
    records = json.loads(GOLDEN.read_text())
    assert len(records) == 20
    src = str(Path(heckej.__file__).resolve().parents[1])
    env = dict(os.environ, HECKEJ_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SYMPY],
        input=json.dumps([r["argv"] for r in records]),
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report["results"]) == len(records)
    for rec, (code, out) in zip(records, report["results"]):
        assert (code, out) == (rec["exit"], rec["stdout"]), " ".join(rec["argv"])
    assert report["sympy"] == []
    assert report["sl2_loaded"]


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
