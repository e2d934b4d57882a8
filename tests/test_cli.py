"""End-to-end command-line behavior: output formats, exit codes,
certification refusal, and KL cache files."""

import json
import time

import pytest

from heckej import GroupDescriptor, KLTable, make_group
from heckej.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def cache(tmp_path):
    return str(tmp_path / "cache")


def test_kl_dihedral(capsys, cache):
    code, out, _ = run(
        capsys, "kl", "--type", "A1~", "--radius", "8", "--y", "", "--w", "010",
        "--cache-dir", cache, "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["rows"] == [{"y": "e", "w": "010", "P": "1", "mu": 0}]
    assert record["certified"] is True and record["radius"] == 8


def test_kl_nontrivial_polynomial(capsys, cache):
    code, out, _ = run(
        capsys, "kl", "--type", "A2~", "--y", "e", "--w", "01210",
        "--cache-dir", cache, "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["rows"][0]["P"] == "1 + q"


def test_cache_file_and_transparency(capsys, cache, tmp_path):
    args = (
        "kl", "--type", "A1~", "--radius", "5", "--y", "0", "--w", "01010",
        "--cache-dir", cache, "--format", "json",
    )
    code1, cold, _ = run(capsys, *args)
    files = list((tmp_path / "cache").glob("kl_*.json"))
    assert code1 == 0 and len(files) == 1
    table = KLTable(make_group(GroupDescriptor("A1~")), 5)
    assert files[0].read_text() == json.dumps(table.to_json(), sort_keys=True)
    code2, warm, _ = run(capsys, *args)
    assert code2 == 0 and warm == cold


@pytest.mark.parametrize(
    "content",
    [
        '{"version": 1}',
        "not json",
        json.dumps(KLTable(make_group(GroupDescriptor("A1~")), 2).to_json()),
    ],
    ids=["no-entries", "not-json", "other-radius"],
)
def test_unusable_cache_file_is_a_miss(capsys, cache, tmp_path, content):
    args = (
        "kl", "--type", "A1~", "--radius", "3", "--y", "", "--w", "010",
        "--cache-dir", cache,
    )
    code, cold, _ = run(capsys, *args)
    assert code == 0
    (path,) = (tmp_path / "cache").glob("kl_*.json")
    path.write_text(content)
    code, out, _ = run(capsys, *args)
    assert code == 0 and out == cold
    assert json.loads(path.read_text())["radius"] == 3  # rebuilt and overwritten


def test_cache_dir_environment_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HECKEJ_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "kl", "--type", "A1~", "--y", "", "--w", "0")
    assert code == 0
    assert list((tmp_path / "envcache").glob("kl_*.json"))


def test_group_listing(capsys, cache):
    code, out, _ = run(
        capsys, "group", "--type", "A1~", "--extended", "--radius", "2",
        "--format", "json", "--cache-dir", cache,
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 10  # 5 Coxeter elements times two omega parts
    assert {r["element"] for r in rows} >= {"e", "0", "1", "01", "10", "e@1"}


def test_hmul_quadratic_relation(capsys, cache):
    code, out, _ = run(
        capsys, "hmul", "--type", "A1~", "--x", "0", "--y", "0",
        "--hecke-basis", "T", "--format", "json", "--cache-dir", cache,
    )
    assert code == 0
    rows = {r["element"]: r["coefficient"] for r in json.loads(out)["rows"]}
    assert rows == {"e": "v^2", "0": "-1 + v^2"}


def test_hconst_sign_conventions(capsys, cache):
    code, out, _ = run(
        capsys, "hconst", "--type", "A1~", "--x", "0", "--y", "0",
        "--basis", "unsigned", "--format", "json", "--cache-dir", cache,
    )
    assert code == 0
    assert json.loads(out)["rows"] == [{"z": "0", "h": "v^-1 + v"}]
    code, out, _ = run(
        capsys, "hconst", "--type", "A1~", "--x", "0", "--y", "0",
        "--basis", "signed", "--format", "json", "--cache-dir", cache,
    )
    assert json.loads(out)["rows"] == [{"z": "0", "h": "-v^-1 - v"}]
    code, out, _ = run(
        capsys, "hconst", "--type", "A2~", "--x", "010", "--y", "010", "--z", "010",
        "--format", "json", "--cache-dir", cache,
    )
    assert code == 0
    assert json.loads(out)["rows"] == [{"z": "010", "h": "-v^-3 - 2*v^-1 - 2*v - v^3"}]


def test_afn_refusal_and_override(capsys, cache):
    code, _, err = run(
        capsys, "afn", "--type", "A1~", "--z", "0", "--scan", "2",
        "--cache-dir", cache,
    )
    assert code == 3
    assert "uncertified" in err
    code, out, _ = run(
        capsys, "afn", "--type", "A1~", "--z", "0", "--scan", "2",
        "--allow-uncertified", "--format", "json", "--cache-dir", cache,
    )
    assert code == 0
    record = json.loads(out)
    assert record["certified"] is False
    assert record["rows"][0]["a"] == 1


def test_afn_certified_default(capsys, cache):
    code, out, _ = run(
        capsys, "afn", "--type", "A1~", "--z", "010", "--format", "json",
        "--cache-dir", cache,
    )
    assert code == 0
    record = json.loads(out)
    assert record["certified"] is True
    assert record["rows"][0]["a"] == 1
    # a scan past the certification bound widens the ring's working radius
    code, out, _ = run(
        capsys, "afn", "--type", "A1~", "--z", "01", "--scan", "12", "--format", "json",
        "--cache-dir", cache,
    )
    assert code == 0
    assert json.loads(out)["rows"] == [{"z": "01", "a": 1, "scan_radius": 12}]


def test_gamma_and_jmul(capsys, cache):
    code, out, _ = run(
        capsys, "gamma", "--type", "A1~", "--x", "0", "--y", "0", "--z", "0",
        "--format", "json", "--cache-dir", cache,
    )
    assert code == 0
    assert json.loads(out)["rows"] == [{"z": "0", "gamma": -1}]
    code, out, _ = run(
        capsys, "jmul", "--type", "A1~", "--x", "01", "--y", "10",
        "--basis", "unsigned", "--format", "json", "--cache-dir", cache,
    )
    assert code == 0
    rows = {r["z"]: r["coefficient"] for r in json.loads(out)["rows"]}
    assert rows == {"0": 1, "010": 1}


def test_dinv(capsys, cache):
    code, out, _ = run(
        capsys, "dinv", "--type", "A2~", "--format", "json", "--cache-dir", cache,
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 10
    assert sorted(r["a"] for r in rows) == [0, 1, 1, 1, 3, 3, 3, 3, 3, 3]


def test_phi_check_passes(capsys, cache):
    code, out, _ = run(
        capsys, "phi-check", "--type", "A1~", "--max-len", "3",
        "--basis", "unsigned", "--cache-dir", cache,
    )
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert last.startswith("RESULT pass=") and last.endswith("fail=0")
    # the symbolic image that phi-check compares
    code, out, _ = run(capsys, "phi", "--type", "A1~", "--x", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"] == [
        {"z": "0", "coefficient": "v^-1 + v"},
        {"z": "01", "coefficient": "1"},
    ]


def test_sl2_subcommands(capsys, cache):
    code, out, _ = run(capsys, "sl2", "gamma", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["gamma"] == "(-1)/(q**3)"
    code, out, _ = run(capsys, "sl2", "volume", "--n", "-2", "--format", "json")
    assert json.loads(out)["rows"][0]["volume_ratio"] == "q**4"
    code, out, _ = run(capsys, "sl2", "conv", "--r", "-1", "--lattice", "std")
    assert code == 0 and "q + 1" in out
    code, out, _ = run(capsys, "sl2", "verify", "--R", "20")
    assert code == 0
    assert out.strip().splitlines()[-1] == "RESULT pass=41 fail=0"
    code, out, _ = run(
        capsys, "sl2", "count", "--p", "2", "--m", "4", "--n", "1", "--r", "0",
        "--format", "json",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["fraction"] == "1/3" and row["cell_value"] == "2"
    code, out, _ = run(capsys, "sl2", "decay", "--q", "2", "--N", "5")
    assert code == 0
    assert out.strip().splitlines()[-1] == "RESULT pass=11 fail=0"


def test_sl2_count_refusal(capsys):
    code, _, err = run(
        capsys, "sl2", "count", "--p", "2", "--m", "4", "--n", "-2", "--r", "2",
        "--lattice", "sub",
    )
    assert code == 3 and "refused" in err
    # a 25-digit prime passes the primality check and is refused by the budget
    started = time.perf_counter()
    code, _, err = run(
        capsys, "sl2", "count", "--p", "1000000000000000000000007", "--m", "1",
        "--n", "0", "--r", "0",
    )
    assert code == 3 and "refused" in err
    assert time.perf_counter() - started < 5


def test_sl2_size_budgets(capsys):
    """Requests past a size budget are refused before any work is done."""
    for argv in (
        ("conv", "--r", "10000000", "--lattice", "std"),
        ("verify", "--R", "100000000"),
        ("decay", "--q", "3", "--N", "100000000"),
        # weighted values of about 5,000 digits, past the digit budget
        ("decay", "--q", "100000", "--N", "1000"),
    ):
        started = time.perf_counter()
        code, out, err = run(capsys, "sl2", *argv)
        assert code == 3 and out == "" and "refused" in err, argv
        assert time.perf_counter() - started < 5, argv
    for q in ("3", "7/5"):
        code, out, _ = run(capsys, "sl2", "decay", "--q", q, "--N", "1000")
        assert code == 0 and out.strip().endswith("RESULT pass=2001 fail=0"), q


def test_kl_table_budget(capsys, cache):
    """KL tables past the entry budget are refused before any work."""
    for argv in (
        ("afn", "--type", "A2~", "--z", "01201201201201"),  # KL radius 43
        ("kl", "--type", "A2~", "--radius", "100000", "--y", "e", "--w", "0"),
    ):
        started = time.perf_counter()
        code, out, err = run(capsys, *argv, "--cache-dir", cache)
        assert code == 3 and out == "" and "refused" in err, argv
        assert time.perf_counter() - started < 5, argv


def test_group_ball_budget(capsys):
    """A ball past the size budget is refused before any enumeration."""
    started = time.perf_counter()
    code, out, err = run(capsys, "group", "--type", "A2~", "--radius", "100000")
    assert code == 3 and out == "" and "refused" in err
    assert time.perf_counter() - started < 5


def test_usage_errors(capsys, cache):
    code, _, err = run(capsys, "kl", "--type", "A1~", "--y", "x!", "--w", "0")
    assert code == 2
    code, _, _ = run(capsys, "kl", "--type", "A1~", "--y", "2", "--w", "0")
    assert code == 2  # generator 2 does not exist in the rank-1 type
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, _ = run(capsys, "kl", "--type", "A1~", "--y", "", "--w", "010",
                     "--radius", "-1")
    assert code == 2
    code, out, _ = run(capsys, "sl2", "decay", "--q", "3", "--N", "-1")
    assert code == 2 and out == ""
    # 1000000000039 * 2000000000003, a 25-digit composite with no small factor
    code, out, _ = run(capsys, "sl2", "count", "--p", "2000000000081000000000117",
                       "--m", "1", "--n", "0", "--r", "0")
    assert code == 2 and out == ""


def test_csv_format(capsys, cache):
    code, out, _ = run(
        capsys, "gamma", "--type", "A1~", "--x", "0", "--y", "0",
        "--format", "csv", "--cache-dir", cache,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z,gamma"
    assert lines[1] == "0,-1"
