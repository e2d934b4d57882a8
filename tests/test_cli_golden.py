"""The CLI's stdout and exit codes on the benchmark's golden command set.

Every record of bench/golden/cli_cold.json is replayed in order through
``heckej.cli.main`` in this process, with a fresh KL cache directory, so
the repeated A2~ ``kl`` call reads back the table the first one wrote.
"""

import json
from pathlib import Path

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

