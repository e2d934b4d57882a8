"""End-to-end command-line behavior: output formats, exit codes,
refusals, and KL cache files."""

import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import heckej
import heckej.cli
from heckej import GroupDescriptor, HeckeElement, KLTable, Laurent, WeylGroup, hecke_algebra, make_group
from heckej.asymptotic import JRing
from heckej.cli import COMMANDS, build_parser, main, parse_element, parse_q

from conftest import PINNED_OUTPUTS


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


@functools.lru_cache(maxsize=None)
def _kl_blob(affine_type, radius, extended=False):
    """The bytes a cache file holds, built from the public API alone:
    {"version", "group", "radius", "P"} with sorted keys, P mapping each
    Coxeter element w of the ball to {y: the q-coefficients of P_{y,w},
    degree 0 first} over the y with P_{y,w} != 0."""
    desc = GroupDescriptor(affine_type, extended)
    g = make_group(desc)
    table = KLTable(g, radius)
    ball = [w for w in g.enumerate_ball(radius) if w.omega == 0]
    P = {}
    for w in ball:
        P[str(w)] = col = {}
        for y in ball:
            p = table.kl_polynomial(y, w)
            if p:
                assert p.min_exp() >= 0 and all(e % 2 == 0 for e, _ in p.items())
                col[str(y)] = [p.coeff(2 * k) for k in range(p.max_exp() // 2 + 1)]
    data = {"version": 2, "group": {"affine_type": affine_type, "extended": extended}, "radius": radius, "P": P}
    return json.dumps(data, sort_keys=True).encode()


def _written_blob(tmp_path, affine_type, radius, extended=False):
    """The cache file a cold `kl` call writes for (group, radius)."""
    cache = tmp_path / f"cache_{affine_type}_{extended}_{radius}"
    argv = ["kl", "--type", affine_type, "--radius", str(radius), "--y", "e", "--w", "e", "--cache-dir", str(cache)]
    assert main(argv + ["--extended"] * extended) == 0
    (path,) = cache.iterdir()
    return path.read_bytes()


PINNED_CACHE_FILES = [
    ("A2~", False, 8, 45331, "e5871f699f23bc6ee63a69bcad90aa53b639915c7d0680b303f9522710b5e1fc"),
    ("A1~", True, 8, 1990, "84076df8cb5aa12d4dd421fb64ff13b4540e1792df3917920f749f39b9570b16"),
    ("A2~", True, 8, 45330, "dcb3e769393cad12092faab9fc9fb7ec142fa3c57384ecca28b1e21d9775a670"),
    ("A2~", False, 14, 504887, "bb4832983a6d38daef2a15ca23777d126d8daa4547a951f61423eb62ad6d7718"),
]


@pytest.mark.parametrize(
    "affine_type,extended,radius,size,digest",
    PINNED_CACHE_FILES,
    ids=[f"{t}-{e}-{size}-{digest}" for t, e, _, size, digest in PINNED_CACHE_FILES],
)
def test_cache_bytes_are_pinned(capsys, tmp_path, affine_type, extended, radius, size, digest):
    """Cache files of format version 2 keep their exact bytes: the file a
    `kl` call writes, and the oracle's serialization of the table."""
    blob = _written_blob(tmp_path, affine_type, radius, extended)
    capsys.readouterr()
    assert len(blob) == size
    assert hashlib.sha256(blob).hexdigest() == digest
    assert _kl_blob(affine_type, radius, extended) == blob


def test_extended_table_writes_the_bytes_of_a_fresh_one():
    """A table grown by `extend`, as the J ring grows its own, holds what a
    table built at that radius holds, to the byte of its cache file."""
    g = make_group(GroupDescriptor("A2~"))
    grown = KLTable(g, 5)
    grown.extend(14)
    assert heckej.cli._kl_cache_bytes(grown) == heckej.cli._kl_cache_bytes(KLTable(WeylGroup(g.desc), 14))
    assert heckej.cli._kl_cache_bytes(grown) == _kl_blob("A2~", 14)


def test_cache_writers_do_not_share_a_temporary_file(capsys, tmp_path):
    """Each writer of a cache file writes its own temporary file: one at the
    fixed name kl_<key>_r<R>.tmp, here a directory, does not stop a write."""
    args = ["kl", "--type", "A2~", "--radius", "6", "--y", "e", "--w", "012", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    (path,) = tmp_path.iterdir()
    path.unlink()
    path.with_suffix(".tmp").mkdir()
    code, _, err = run(capsys, *args)
    assert (code, err) == (0, "")
    assert path.read_bytes() == _kl_blob("A2~", 6)
    assert sorted(tmp_path.iterdir()) == [path, path.with_suffix(".tmp")]


def test_cache_file_and_transparency(capsys, cache, tmp_path):
    args = (
        "kl", "--type", "A1~", "--radius", "5", "--y", "0", "--w", "01010",
        "--cache-dir", cache, "--format", "json",
    )
    code1, cold, _ = run(capsys, *args)
    files = list((tmp_path / "cache").glob("kl_*.json"))
    assert code1 == 0 and len(files) == 1
    assert files[0].read_bytes() == _kl_blob("A1~", 5)
    # an old mtime shows any rewrite, however fine the clock
    os.utime(files[0], ns=(10**9, 10**9))
    before = files[0].stat()
    code2, warm, _ = run(capsys, *args)
    assert code2 == 0 and warm == cold
    after = files[0].stat()
    assert (after.st_mtime_ns, after.st_ino) == (before.st_mtime_ns, before.st_ino)
    assert files[0].read_bytes() == _kl_blob("A1~", 5)
    assert list((tmp_path / "cache").iterdir()) == files


def _version_1(radius):
    """A cache file of the previous format: one object per entry, each
    polynomial as [[v-exponent, "coefficient"], ...]."""
    g = make_group(GroupDescriptor("A1~"))
    table = KLTable(g, radius)
    ball = g.enumerate_ball(radius)
    entries = [
        {
            "y": {"word": list(y.word), "omega": 0},
            "w": {"word": list(w.word), "omega": 0},
            "P": [[e, str(c)] for e, c in table.kl_polynomial(y, w).items()],
        }
        for w in ball for y in ball if table.kl_polynomial(y, w)
    ]
    data = {"version": 1, "group": {"affine_type": "A1~", "extended": False},
            "radius": radius, "entries": entries}
    return json.dumps(data, sort_keys=True).encode()


def _tampered(radius):
    """The right file with one coefficient changed: a single byte differs."""
    blob = _kl_blob("A1~", radius)
    assert blob.count(b'"e": [1]') > 1
    return blob.replace(b'"e": [1]', b'"e": [2]', 1)


@pytest.mark.parametrize(
    "content",
    [
        b'{"version": 1}',
        b"not json",
        _kl_blob("A1~", 2),
        _tampered(3),
        _version_1(3),
        b"\xff\xfe\x00 not utf-8",
    ],
    ids=["no-entries", "not-json", "other-radius", "tampered", "version-1", "not-utf8"],
)
def test_unusable_cache_file_is_a_miss(capsys, cache, tmp_path, content):
    """A file that differs from the table in any byte is rewritten, and
    the output does not change."""
    args = (
        "kl", "--type", "A1~", "--radius", "3", "--y", "", "--w", "010",
        "--cache-dir", cache,
    )
    code, cold, _ = run(capsys, *args)
    assert code == 0
    (path,) = (tmp_path / "cache").glob("kl_*.json")
    assert content != path.read_bytes()
    path.write_bytes(content)
    code, out, _ = run(capsys, *args)
    assert code == 0 and out == cold
    assert path.read_bytes() == _kl_blob("A1~", 3)


def test_cache_dir_environment_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HECKEJ_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "kl", "--type", "A1~", "--y", "", "--w", "0")
    assert code == 0
    assert list((tmp_path / "envcache").glob("kl_*.json"))


@pytest.mark.parametrize("argv", [
    ("kl", "--type", "A1~", "--radius", "3", "--y", "e", "--w", "010"),
    ("hmul", "--type", "A1~", "--x", "0", "--y", "0"),
    ("hconst", "--type", "A1~", "--x", "0", "--y", "0"),
])
def test_unusable_cache_directory_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    """A cache directory under a regular file, a regular file named as the
    cache directory, or a directory in place of the cache file exits 2 with
    one error line naming the path, and leaves no temporary file behind."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, *argv, "--cache-dir", str(blocker / "sub"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(blocker / "sub") in err
    assert len(err.splitlines()) == 1
    # the cache file's name, taken by a directory
    cache = tmp_path / "cache"
    assert run(capsys, *argv, "--cache-dir", str(cache))[0] == 0
    (path,) = cache.iterdir()
    path.unlink()
    path.mkdir()
    code, out, err = run(capsys, *argv, "--cache-dir", str(cache))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(cache) in err
    assert len(err.splitlines()) == 1
    assert list(cache.iterdir()) == [path]
    monkeypatch.setenv("HECKEJ_CACHE_DIR", str(blocker))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(blocker) in err
    assert len(err.splitlines()) == 1


def test_group_listing(capsys):
    code, out, _ = run(
        capsys, "group", "--type", "A1~", "--extended", "--radius", "2",
        "--format", "json",
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


@pytest.mark.parametrize("flags, basis, rows", [
    ((), "signed", {"0": "-v^-1 - v"}),
    (("--hecke-basis", "Csigned", "--basis", "signed"), "signed", {"0": "-v^-1 - v"}),
    (("--hecke-basis", "Csigned", "--basis", "unsigned"), "signed", {"0": "-v^-1 - v"}),
    (("--hecke-basis", "Cprime", "--basis", "signed"), "unsigned", {"0": "v^-1 + v"}),
    (("--hecke-basis", "Cprime", "--basis", "unsigned"), "unsigned", {"0": "v^-1 + v"}),
    (("--hecke-basis", "T", "--basis", "unsigned"), "unsigned", {"e": "v^2", "0": "-1 + v^2"}),
])
def test_hmul_record_names_the_convention_it_computed_in(capsys, cache, flags, basis, rows):
    """A C basis is a sign convention of its own: hmul's record names the
    one of the basis it multiplied in (C_s C_s = -(v + v^-1) C_s, C'_s C'_s
    = (v + v^-1) C'_s), whatever --basis says; with T it names --basis."""
    code, out, _ = run(
        capsys, "hmul", "--type", "A1~", "--x", "0", "--y", "0", *flags,
        "--format", "json", "--cache-dir", cache,
    )
    assert code == 0
    record = json.loads(out)
    assert record["basis"] == basis
    assert {r["element"]: r["coefficient"] for r in record["rows"]} == rows


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


def test_afn_certified_default(capsys):
    code, out, _ = run(capsys, "afn", "--type", "A1~", "--z", "010", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["certified"] is True
    assert record["rows"][0]["a"] == 1


def test_gamma_and_jmul(capsys):
    code, out, _ = run(
        capsys, "gamma", "--type", "A1~", "--x", "0", "--y", "0", "--z", "0",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["rows"] == [{"z": "0", "gamma": -1}]
    code, out, _ = run(
        capsys, "jmul", "--type", "A1~", "--x", "01", "--y", "10",
        "--basis", "unsigned", "--format", "json",
    )
    assert code == 0
    rows = {r["z"]: r["coefficient"] for r in json.loads(out)["rows"]}
    assert rows == {"0": 1, "010": 1}


def test_dinv(capsys):
    code, out, _ = run(capsys, "dinv", "--type", "A2~", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 10
    assert sorted(r["a"] for r in rows) == [0, 1, 1, 1, 3, 3, 3, 3, 3, 3]


def test_phi_check_passes(capsys):
    code, out, _ = run(capsys, "phi-check", "--type", "A1~", "--max-len", "3")
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


@pytest.mark.parametrize("argv, pin", PINNED_OUTPUTS)
def test_pinned_outputs(replay, argv, pin):
    """Exact outputs kept from release to release: phi-check's closing line,
    and the sha256 of a group listing's whole stdout.  The calls run in the
    session's replay (conftest.py)."""
    ((code, out, err),) = replay.runs[tuple(argv.split())]
    assert (code, err) == (0, "")
    if pin.startswith("RESULT"):
        assert out.splitlines()[-1] == pin
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == pin


def test_phi_specialized_at_a_non_square(capsys):
    """At q = 2, sqrt(q) is not rational and stays in the printed value."""
    code, out, _ = run(capsys, "phi", "--type", "A1~", "--x", "0", "--q", "2")
    assert code == 0
    assert out.splitlines()[2:] == ["0   0 + 3/2*sqrt(2)", "01  1              "]


def test_phi_refuses_a_radius_short_of_its_image(capsys):
    """phi(0) on A2~ reaches the distinguished involutions of length 5."""
    code, out, err = run(capsys, "phi", "--type", "A2~", "--x", "0", "--radius", "4")
    assert code == 3 and out == ""
    assert err == "refused: len(x) + 2 len(w0) - 1 = 6 beyond certified radius 4\n"


def test_sl2_subcommands(capsys):
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


def test_phi_check_reports_failures(capsys, monkeypatch):
    """A pair on which phi is not multiplicative fails phi-check: exit 1,
    the failure count, and at most 10 counterexample rows."""
    product = JRing.jta_multiply
    # the factors of J tensor A taken in the wrong order
    monkeypatch.setattr(JRing, "jta_multiply", lambda self, a, b: product(self, b, a))
    code, out, _ = run(capsys, "phi-check", "--type", "A1~", "--max-len", "4", "--format", "csv")
    assert code == 1
    lines = out.strip().splitlines()
    passes, fails = (int(part.split("=")[1]) for part in lines[-1].split()[1:])
    assert lines[-1] == f"RESULT pass={passes} fail={fails}"
    assert passes > 0 and fails > 10
    assert lines[1] == "x,y"
    assert len(lines[2:-1]) == 10


def test_phi_check_refuses_its_largest_kl_table_at_entry(capsys, monkeypatch):
    """phi-check checks the KL table of radius N + 4 len(w0) - 3 that its J
    products reach before it builds anything: on A2~ that is 35 at
    max-len 26, the largest the budget admits, and 36 at max-len 27."""
    desc = GroupDescriptor("A2~")
    heckej.hecke._check_kl_budget(desc, 35)
    with pytest.raises(heckej.BudgetExceeded):
        heckej.hecke._check_kl_budget(desc, 36)
    builds = []
    build = KLTable._build
    monkeypatch.setattr(KLTable, "_build", lambda self, wid: builds.append(wid) or build(self, wid))
    code, out, err = run(capsys, "phi-check", "--type", "A2~", "--max-len", "27")
    assert (code, out, builds) == (3, "", [])
    assert err == "refused: a KL table of radius 36 may hold over 2000000 entries\n"

    class Passed(Exception):
        pass

    def ring(*args):
        raise Passed

    monkeypatch.setattr(heckej.cli, "JRing", ring)
    with pytest.raises(Passed):
        main(["phi-check", "--type", "A2~", "--max-len", "26"])
    assert builds == []


def test_phi_check_reads_off_only_the_pairs_the_cell_skip_keeps(capsys, monkeypatch):
    """phi-check's J products pair t_x only with the t_y of left key
    (a(y), L(y)) equal to the right key (a(x), R(x)): on A2~ at max-len 6
    they read off under 1,000 pairs, against 4,915 when a pair needed only
    a(x) = a(y) of factors with several terms, and the result stands."""
    calls = []
    read_off = JRing._gamma_terms
    monkeypatch.setattr(JRing, "_gamma_terms", lambda self, x, y: calls.append((x, y)) or read_off(self, x, y))
    code, out, _ = run(capsys, "phi-check", "--type", "A2~", "--max-len", "6")
    assert code == 0 and out.splitlines()[-1] == "RESULT pass=757 fail=0"
    assert 0 < len(calls) <= 1000


@pytest.mark.parametrize("affine_type, extended, top", [("A2~", False, 8), ("A1~", True, 10)])
def test_phi_check_reaches_the_kl_radius_it_refuses_at(capsys, monkeypatch, affine_type, extended, top):
    """The radius of the entry check is the largest that phi-check's steps
    reach, read off KLTable.extend."""
    reached = []
    extend = KLTable.extend
    monkeypatch.setattr(KLTable, "extend", lambda self, radius: reached.append(radius) or extend(self, radius))
    longest = GroupDescriptor(affine_type, extended).finite_longest_length
    for n in range(top + 1):
        reached.clear()
        code, _, _ = run(capsys, "phi-check", "--type", affine_type, *["--extended"] * extended, "--max-len", str(n))
        assert code == 0 and max(reached) == n + 4 * longest - 3, n


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
        # p^(3m) of about 143,000 digits, refused before it is computed
        ("count", "--p", "3", "--m", "100000", "--n", "0", "--r", "0"),
    ):
        started = time.perf_counter()
        code, out, err = run(capsys, "sl2", *argv)
        assert code == 3 and out == "" and "refused" in err, argv
        assert time.perf_counter() - started < 5, argv
    for q in ("3", "7/5"):
        code, out, _ = run(capsys, "sl2", "decay", "--q", q, "--N", "1000")
        assert code == 0 and out.strip().endswith("RESULT pass=2001 fail=0"), q


def test_q_digit_budget(capsys):
    """A q whose text needs more than sl2.DECAY_DIGITS_BUDGET digits is
    refused before Fraction writes it out; ordinary rationals still parse."""
    for argv in (
        ("phi", "--type", "A1~", "--x", "0", "--q", "1e10000000"),
        ("sl2", "decay", "--q", "1e10000000", "--N", "6"),
    ):
        started = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.startswith("refused: ") and len(err.splitlines()) == 1, argv
        assert time.perf_counter() - started < 5, argv
    for text, q in (("4", 4), ("9/4", Fraction(9, 4)), ("7/5", Fraction(7, 5)), ("1e3", 1000)):
        assert parse_q(text) == q


def test_phi_digit_budget(capsys):
    """A specialized phi coefficient of more than sl2.DECAY_DIGITS_BUDGET
    digits is refused before anything is printed: phi(0120) on A2~ reaches
    q^4 and more.  Coefficients within the budget still print."""
    for q in ("1e3000", "1e3999"):
        code, out, err = run(capsys, "phi", "--type", "A2~", "--x", "0120", "--q", q)
        assert code == 3 and out == "" and err.startswith("refused: ") and len(err.splitlines()) == 1, q
    # phi(0) on A1~ has 1 + 1/q, whose numerator 10^3999 + 1 has 4,000 digits
    code, out, _ = run(capsys, "phi", "--type", "A1~", "--x", "0", "--q", "1e3999")
    assert code == 0 and "1" + "0" * 3998 + "1/1" + "0" * 3999 in out
    code, out, _ = run(capsys, "phi", "--type", "A2~", "--x", "0120", "--q", "1e1000")
    assert code == 0 and len(out.splitlines()) > 2


def test_kl_table_budget(capsys, cache):
    """KL tables past the entry budget are refused before any work."""
    for argv in (
        ("dinv", "--type", "A2~", "--radius", "40"),  # KL radius 42
        ("kl", "--type", "A2~", "--radius", "100000", "--y", "e", "--w", "0", "--cache-dir", cache),
    ):
        started = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "refused" in err, argv
        assert time.perf_counter() - started < 5, argv


def test_certified_afn_needs_no_scan(capsys):
    """Where an all-pairs scan would need a KL table past the budget, a
    certificate answers: a unique reduced word (a = 1) and a factor w_J of
    length len(w0) (a = 3)."""
    # the z column prints the ShortLex-least word
    for z, shortlex, a in (
        ("01201201201201", "01201201201201", 1),
        ("0120120120121", "0102012012012", 3),
    ):
        started = time.perf_counter()
        code, out, _ = run(capsys, "afn", "--type", "A2~", "--z", z, "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["rows"] == [{"z": shortlex, "a": a, "scan_radius": len(z) + 8}]
        assert record["certified"] is True
        assert time.perf_counter() - started < 5


def test_group_ball_budget(capsys):
    """A ball past the size budget is refused before any enumeration."""
    started = time.perf_counter()
    code, out, err = run(capsys, "group", "--type", "A2~", "--radius", "100000")
    assert code == 3 and out == "" and "refused" in err
    assert time.perf_counter() - started < 5


def test_internal_error_is_one_line(capsys, monkeypatch):
    """A HeckejError that is not a refusal exits 1 with one stderr line."""
    # (e, z) gives h = 1, of valuation 0, a wrong witness for every z != e
    monkeypatch.setattr(WeylGroup, "parabolic_factor", lambda self, z, n: (self.identity, z))
    code, out, err = run(capsys, "gamma", "--type", "A1~", "--x", "0", "--y", "0", "--z", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: internal: ") and "witness" in err
    assert len(err.splitlines()) == 1


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    for argv in (
        ("kl", "--type", "A1~", "--y", "x!", "--w", "0"),
        ("kl", "--type", "A1~", "--y", "2", "--w", "0"),  # no generator 2 in the rank-1 type
        ("kl", "--type", "A1~", "--y", "", "--w", "010", "--radius", "-1"),
        ("kl", "--type", "A1~", "--y", "", "--w", "010", "--radius", "2"),  # below len(w)
        ("kl", "--type", "A1~", "--extended", "--y", "0@x", "--w", "0"),  # bad omega suffix
        ("jmul", "--type", "A1~", "--extended", "--x", "0@", "--y", "1"),  # empty omega suffix
        # only ASCII digits: int() reads every Unicode decimal digit, and
        # isdigit() passes '²' as well
        ("jmul", "--type", "A1~", "--x", "٠١", "--y", "10"),
        ("jmul", "--type", "A1~", "--x", "01", "--y", "²"),
        ("jmul", "--type", "A1~", "--extended", "--x", "0@١", "--y", "1"),
        ("jmul", "--type", "A1~", "--extended", "--x", "0@²", "--y", "1"),
        ("phi", "--type", "A1~", "--x", "0", "--q", "0"),
        ("phi", "--type", "A1~", "--x", "0", "--q", "1/0"),
        ("phi-check", "--type", "A1~", "--max-len", "-1"),
        ("sl2", "decay", "--q", "3", "--N", "-1"),
        # 1000000000039 * 2000000000003, a 25-digit composite with no small factor
        ("sl2", "count", "--p", "2000000000081000000000117", "--m", "1", "--n", "0", "--r", "0"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and len(err.splitlines()) == 1, argv
    code, _, err = run(capsys, "phi-check", "--type", "A1~", "--max-len", "-1")
    assert "--max-len" in err
    # afn answers by certificate only: no scan radius, no uncertified output
    for flags in (("--scan", "3"), ("--allow-uncertified",)):
        code, out, _ = run(capsys, "afn", "--type", "A2~", "--z", "010", *flags)
        assert (code, out) == (2, ""), flags


def test_kl_outside_the_bruhat_interval(capsys, cache):
    """P_{y,w} = 0 when y is not below w."""
    code, out, _ = run(
        capsys, "kl", "--type", "A1~", "--y", "10", "--w", "01",
        "--cache-dir", cache, "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["rows"] == [{"y": "10", "w": "01", "P": "0", "mu": 0}]


# The subcommands whose handlers read each flag.
GROUP_COMMANDS = {"group", "kl", "hmul", "hconst", "afn", "gamma", "jmul", "dinv", "phi", "phi-check"}
FLAG_READERS = {
    "--type A2~": GROUP_COMMANDS,
    "--extended": GROUP_COMMANDS,
    "--radius 7": GROUP_COMMANDS - {"afn", "phi-check"},
    "--cache-dir d": {"kl", "hmul", "hconst"},
    "--basis unsigned": {"hmul", "hconst", "gamma", "jmul", "phi"},
}


def test_each_flag_only_where_it_is_read(capsys):
    """A subcommand rejects a flag its handler does not read (exit 2)."""
    parser = build_parser()
    accepted = set()
    for path, func, _, options in COMMANDS:
        if func is None:
            continue
        required = [arg for opt in options.split() if opt.endswith("!") for arg in (f"--{opt[:-1]}", "1")]
        for flag in FLAG_READERS:
            try:
                parser.parse_args([*path.split(), *required, *flag.split()])
            except SystemExit as exc:
                assert exc.code == 2, (path, flag)
            else:
                accepted.add((path, flag))
    assert accepted == {(path, flag) for flag, paths in FLAG_READERS.items() for path in paths}
    for argv in (
        ("gamma", "--type", "A1~", "--x", "0", "--y", "0", "--cache-dir", "d"),
        ("sl2", "conv", "--r", "0", "--radius", "7"),
        ("sl2", "conv", "--r", "0", "--type", "A2~"),
        ("dinv", "--type", "A2~", "--basis", "unsigned"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out == "", argv


# A value for each option other than its default; a flag not named takes "3".
SAMPLE_VALUES = {"type": ["A2~"], "extended": [], "hecke-basis": ["T"], "q": ["9/4"], "lattice": ["sub"], "basis": ["unsigned"]}


def _parse_outcome(capsys, monkeypatch, argv, whole_tree):
    """main(argv)'s exit code, stdout, stderr, and the command path and
    namespace of the handler it calls, with every handler replaced by one
    that only records them; whole_tree makes main parse argv with the
    whole tree from build_parser() alone."""
    seen = []

    def record(path, ns):
        seen.append((path, {k: v for k, v in vars(ns).items() if k != "func"}))
        return 0

    with monkeypatch.context() as m:
        handlers = [(path, func and functools.partial(record, path), *rest) for path, func, *rest in COMMANDS]
        m.setattr(heckej.cli, "COMMANDS", handlers)
        if whole_tree:
            m.setattr(heckej.cli, "_parse_args", lambda argv: build_parser().parse_args(argv))
        return (*run(capsys, *argv), seen)


def test_one_subcommand_parser_parses_as_the_whole_tree(capsys, monkeypatch):
    """main builds only the parser of the subcommand that argv names; for
    each subcommand, and for every kind of usage error, it answers as the
    whole tree from build_parser() does, byte for byte."""
    argvs = [
        (), ("--help",), ("bogus",), ("sl2",), ("sl2", "bogus"), ("sl2", "--help"), ("hmul", "--help"),
        ("sl2", "count", "--help"),
        ("hmul", "--type", "A1~", "--x", "0"),  # a missing required flag
        ("hmul", "--x", "0", "--y", "0", "--bogus"),  # an unknown flag
        ("group", "--type", "B2~"),  # a bad choice
        ("group", "--radius", "x"),  # a bad int
        ("group", "--radiu", "3"),  # an abbreviated flag
        # unrecognized arguments, reported with the top-level usage line
        ("sl2", "conv", "--r", "0", "--radius", "7"),
        ("sl2", "verify", "--R", "3", "extra"),
        ("gamma", "--type", "A1~", "--x", "0", "--y", "0", "--cache-dir", "d"),
    ]
    leaves = [(path, options) for path, func, _, options in COMMANDS if func is not None]
    for path, options in leaves:
        required = [arg for opt in options.split() if opt.endswith("!") for arg in (f"--{opt[:-1]}", "1")]
        every = [arg for opt in options.split() for arg in (f"--{opt.rstrip('!')}", *SAMPLE_VALUES.get(opt.rstrip("!"), ["3"]))]
        argvs += [(*path.split(), *required), (*path.split(), *every, "--format", "json")]
    parsed = 0
    for argv in argvs:
        one = _parse_outcome(capsys, monkeypatch, argv, whole_tree=False)
        assert one == _parse_outcome(capsys, monkeypatch, argv, whole_tree=True), argv
        parsed += bool(one[3])
    assert parsed == 2 * len(leaves) + 1  # every subcommand twice, and --radiu 3

    built = []
    monkeypatch.setattr(heckej.cli, "build_parser", lambda command=None: built.append(command) or build_parser(command))
    for argv, paths in [
        (("sl2", "verify", "--R", "3"), ["sl2 verify"]),
        (("sl2", "verify", "--R", "3", "extra"), ["sl2 verify", None]),
        (("--help",), [None]),
        (("sl2", "--help"), [None]),
    ]:
        built.clear()
        run(capsys, *argv)
        assert built == paths, argv


def test_csv_format(capsys):
    code, out, _ = run(
        capsys, "gamma", "--type", "A1~", "--x", "0", "--y", "0", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# basis=signed certified=True radius=2"
    assert lines[1] == "z,gamma"
    assert lines[2] == "0,-1"
    code, out, _ = run(capsys, "afn", "--type", "A2~", "--z", "010", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["# basis=signed certified=True radius=11", "z,a,scan_radius", "010,3,11"]


def test_csv_records_end_lines_with_newline_and_skip_an_empty_header(capsys):
    """A CSV record without rows is its metadata line alone, and every CSV
    line ends in a newline, as every other line of output does."""
    code, out, _ = run(capsys, "phi-check", "--type", "A1~", "--max-len", "2", "--format", "csv")
    assert code == 0
    assert out == "# basis=signed certified=True max_len=2 radius=3\nRESULT pass=13 fail=0\n"
    code, out, _ = run(capsys, "sl2", "verify", "--R", "3", "--format", "csv")
    assert code == 0
    assert out == "# R=3 basis=signed certified=True radius=0\nRESULT pass=7 fail=0\n"
    code, out, _ = run(capsys, "gamma", "--type", "A1~", "--x", "0", "--y", "0", "--format", "csv")
    assert code == 0
    assert out == "# basis=signed certified=True radius=2\nz,gamma\n0,-1\n"


def _parse_laurent(text):
    """A coefficient as Laurent.__str__ prints it, read back."""
    out = {}
    for part in text.replace(" - ", " + -").split(" + "):
        if "v" not in part:
            out[0] = int(part)
            continue
        coeff, _, power = part.partition("v")
        coeff = coeff.rstrip("*")
        out[int(power[1:]) if power else 1] = {"": 1, "-": -1}.get(coeff) or int(coeff)
    return Laurent(out)


@pytest.mark.parametrize("affine_type, extended", [("A2~", False), ("A1~", True)], ids=["A2~", "A1~-extended"])
def test_hmul_c_basis_is_star_of_the_c_prime_product(capsys, cache, c_oracle, affine_type, extended):
    """hmul's default C_w product against an oracle that shares no code with
    its conversions: with C_w built in ~T from the KL polynomials (the
    c_oracle fixture), C_x C_y multiplied in ~T is sum_z star(h_{x,y,z}) C_z
    for the C' constants h that hmul --basis unsigned prints, and hmul
    prints those star(h).  Every C_w of the ball is bar-invariant."""
    desc = GroupDescriptor(affine_type, extended)
    g = make_group(desc)
    alg = hecke_algebra(desc)
    table = KLTable(g, 6)
    flags = ["--type", affine_type, *(["--extended"] if extended else [])]
    ball = g.enumerate_ball(3)
    for w in ball:
        assert alg.bar(c_oracle(table, w), table) == c_oracle(table, w), w

    def hmul(x, y, *extra):
        code, out, _ = run(
            capsys, "hmul", *flags, "--x", str(x), "--y", str(y), *extra,
            "--format", "json", "--cache-dir", cache,
        )
        assert code == 0
        return {row["element"]: row["coefficient"] for row in json.loads(out)["rows"]}

    for x in ball:
        for y in ball:
            h = {z: _parse_laurent(c) for z, c in hmul(x, y, "--basis", "unsigned").items()}
            expect = HeckeElement(desc, "Ttilde", {})
            for z, c in h.items():
                expect = expect + c_oracle(table, parse_element(g, z)).scale(c.star())
            assert alg.multiply(c_oracle(table, x), c_oracle(table, y)) == expect, (x, y)
            assert hmul(x, y) == {z: str(c.star()) for z, c in h.items()}, (x, y)


def test_closed_pipe_ends_quietly():
    """A reader that stops after one line (as `| head -n 1` does) gets exit
    code 1 and nothing on stderr.  The ball of radius 60 prints about
    400 kB, more than a pipe holds, so the writer meets the closed pipe."""
    env = dict(os.environ)
    src = str(Path(heckej.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "heckej.cli", "group", "--type", "A2~", "--radius", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"# ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b"", err.decode()
