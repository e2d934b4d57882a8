"""Shared fixtures.

The JRing objects are built once per session and shared by all test
modules; their own KL tables are small (radius L + len(w0) - 1: 15 and
12).  The reference scan of scan_a_values builds a KL table of its own,
of radius 2S - 1 (37 and 35 for the two rings), once per group and L.

Every pinned CLI call is replayed once per session, in one fresh
interpreter, by the `replay` fixture.
"""

import functools
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import heckej
from heckej import (
    GroupDescriptor,
    HeckeElement,
    JRing,
    KLTable,
    Laurent,
    StructureConstants,
    certification_bound,
    make_group,
)


@pytest.fixture(scope="session")
def a1_desc():
    return GroupDescriptor("A1~")


@pytest.fixture(scope="session")
def a2_desc():
    return GroupDescriptor("A2~")


@pytest.fixture(scope="session")
def a1_ring(a1_desc):
    # radius 15 covers triple J-products of factors up to length 5
    # and phi for arguments up to length 14
    return JRing(a1_desc, 15)


@pytest.fixture(scope="session")
def a2_ring(a2_desc):
    # radius 10 covers triple J-products of factors up to length 3 and
    # phi for arguments up to length 5 (distinguished d reach length 5)
    return JRing(a2_desc, 10)


@pytest.fixture(scope="session")
def a1x_ring():
    return JRing(GroupDescriptor("A1~", extended=True), 8)


@pytest.fixture(scope="session")
def a2x_ring():
    return JRing(GroupDescriptor("A2~", extended=True), 8)


@pytest.fixture(scope="session")
def scan_a_values():
    """The reference the certified a-function is checked against: the
    all-pairs scan.  scan(desc, L)[id][r], for S = certification_bound(desc,
    L), r <= S and the Coxeter id of each z with len(z) <= S, is minus the
    least valuation of h_{x,y,z} over all x, y in ball(r): the running
    minimum of the strata of StructureConstants.scan_min_exponents(S, S)."""

    @functools.cache
    def scan(desc: GroupDescriptor, radius: int) -> dict[int, list[int]]:
        bound = certification_bound(desc, radius)
        constants = StructureConstants(KLTable(make_group(desc), 2 * bound - 1))
        strata = constants.scan_min_exponents(bound, bound)
        return {z: [-low for low in itertools.accumulate(mins, min)] for z, mins in strata.items()}

    return scan


@pytest.fixture(scope="session")
def c_oracle():
    """The basis C_w of Kazhdan and Lusztig, built in ~T from the KL
    polynomials alone: c_oracle(table, w) is

        C_w = sum_y star(v^(len(y) - len(w)) P_{y,w}(v^2)) ~T_y,

    star being v -> -v^-1.  It shares no basis-conversion code with
    heckej, which computes only in C' and applies star at the CLI."""

    @functools.cache
    def build(table: KLTable, w) -> HeckeElement:
        terms = {}
        for y in table.group.enumerate_ball(len(w.word)):
            p = table.kl_polynomial(y, w)
            if p:
                terms[y] = (p * Laurent.monomial(len(y.word) - len(w.word))).star()
        return HeckeElement(table.desc, "Ttilde", terms)

    return build


# -- the pinned CLI calls ---------------------------------------------------

@functools.cache
def golden():
    """The benchmark's golden command set: argv, exit code and stdout of each."""
    return json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden" / "cli_cold.json").read_text())


# Exact outputs kept from release to release: phi-check's closing line,
# and the sha256 of a group listing's whole stdout.
PINNED_OUTPUTS = [
    ("phi-check --type A2~ --max-len 3", "RESULT pass=82 fail=0"),
    ("phi-check --type A2~ --max-len 8", "RESULT pass=2107 fail=0"),
    ("phi-check --type A1~ --extended --max-len 10", "RESULT pass=884 fail=0"),
    # the pairs of the cell skip on factors with Omega parts
    ("phi-check --type A2~ --extended --max-len 5", "RESULT pass=3654 fail=0"),
    ("group --type A2~ --extended --radius 10 --format json", "d05f6f744c35a8d8ec65d173660213e837e874c42749f307da36a3d823917117"),
    ("group --type A1~ --extended --radius 20 --format json", "a6f0ab40e8674b93a77fc923807a843e61fa49ca279176e1568f3fe7caa7490e"),
]

# Usage errors, refusals and the outputs of the other subcommands and
# bases: argv, exit code, stdout, stderr.  A stream given as a str is
# pinned whole; one given as a tuple, by substrings it must hold.  The
# tuples stand for argparse's text, whose layout moves between Python
# versions.
CLI_PINS = [
    ("--help", 0,
     ("phi-check",),
     ""),
    ("sl2 count --help", 0,
     ("--lattice",),
     ""),
    ("hmul --type A1~ --x 0", 2,
     "",
     ("the following arguments are required: --y",)),
    ("bogus", 2,
     "",
     ("invalid choice: 'bogus'",)),
    ("hmul --type A2~ --x 01 --y 10 --hecke-basis T", 0,
     "# basis=signed certified=True hecke_basis=T radius=4\n"
     "element  coefficient\n"
     "e        v^4        \n"
     "0        -v^2 + v^4 \n"
     "010      -1 + v^2   \n",
     ""),
    ("hmul --type A2~ --x 01 --y 10 --basis unsigned", 0,
     "# basis=unsigned certified=True hecke_basis=Cprime radius=4\n"
     "element  coefficient\n"
     "0        v^-1 + v   \n"
     "010      v^-1 + v   \n",
     ""),
    ("hmul --type A2~ --x 01 --y 10 --hecke-basis Csigned", 0,
     "# basis=signed certified=True hecke_basis=Csigned radius=4\n"
     "element  coefficient\n"
     "0        -v^-1 - v  \n"
     "010      -v^-1 - v  \n",
     ""),
    ("hconst --type A2~ --x 010 --y 010 --basis unsigned", 0,
     "# basis=unsigned certified=True radius=6\n"
     "z    h                        \n"
     "010  v^-3 + 2*v^-1 + 2*v + v^3\n",
     ""),
    ("phi --type A1~ --x 0", 0,
     "# basis=signed certified=True radius=2\n"
     "z   coefficient\n"
     "0   v^-1 + v   \n"
     "01  1          \n",
     ""),
    ("phi --type A1~ --x 0 --q 2", 0,
     "# basis=signed certified=True q=2 radius=2\n"
     "z   coefficient    \n"
     "0   0 + 3/2*sqrt(2)\n"
     "01  1              \n",
     ""),
    ("phi --type A2~ --x 0 --radius 4", 3,
     "",
     "refused: len(x) + 2 len(w0) - 1 = 6 beyond certified radius 4\n"),
    ("phi-check --type A1~ --extended --max-len 5", 0,
     "# basis=signed certified=True max_len=5 radius=6\n"
     "RESULT pass=244 fail=0\n",
     ""),
    ("phi --type A2~ --x 0120 --q 1e3999", 3,
     "",
     "refused: values of up to 26569 bits exceed 4000 digits\n"),
    ("phi-check --type A2~ --max-len 27", 3,
     "",
     "refused: a KL table of radius 36 may hold over 2000000 entries\n"),
    ("afn --type A2~ --z 01", 0,
     "# basis=signed certified=True radius=10\n"
     "z   a  scan_radius\n"
     "01  1  10         \n",
     ""),
    ("afn --type A2~ --z 0120120120121", 0,
     "# basis=signed certified=True radius=21\n"
     "z              a  scan_radius\n"
     "0102012012012  3  21         \n",
     ""),
    ("afn --type A2~ --z 01201201201201", 0,
     "# basis=signed certified=True radius=22\n"
     "z               a  scan_radius\n"
     "01201201201201  1  22         \n",
     ""),
    ("afn --type A2~ --z 010 --scan 3", 2,
     "",
     ("unrecognized arguments: --scan 3",)),
    ("gamma --type A2~ --x 010 --y 010", 0,
     "# basis=signed certified=True radius=6\n"
     "z    gamma\n"
     "010  -1   \n",
     ""),
    ("gamma --type A2~ --x 010 --y 010 --basis unsigned", 0,
     "# basis=unsigned certified=True radius=6\n"
     "z    gamma\n"
     "010  1    \n",
     ""),
    ("jmul --type A2~ --x 010 --y 010", 0,
     "# basis=signed certified=True radius=6\n"
     "z    coefficient\n"
     "010  -1         \n",
     ""),
    ("dinv --type A2~", 0,
     "# basis=signed certified=True radius=5\n"
     "d      length  a\n"
     "e      0       0\n"
     "0      1       1\n"
     "1      1       1\n"
     "2      1       1\n"
     "010    3       3\n"
     "020    3       3\n"
     "121    3       3\n"
     "01210  5       3\n"
     "10201  5       3\n"
     "20102  5       3\n",
     ""),
    ("jmul --type A1~ --x 0101 --y 1010 --radius 6", 3,
     "",
     "refused: product support length = 8 beyond certified radius 6\n"),
    ("gamma --type A2~ --x 0120 --y 0210 --radius 7", 3,
     "",
     "refused: product support length = 8 beyond certified radius 7\n"),
    ("group --type A2~ --radius 100000", 3,
     "",
     "refused: a ball of radius 100000 has over 10000 elements\n"),
    ("afn --type A2~ --z " + "012" * 2000, 3,
     "",
     "refused: a word of 6000 letters may leave a ball of 10000 elements\n"),
    ("phi --type A1~ --x 0 --q 1e10000000", 3,
     "",
     "refused: q '1e10000000' needs more than 4000 digits\n"),
    ("sl2 count --p 3 --m 100000 --n 0 --r 0", 3,
     "",
     "refused: p = 3, m = 100000: p^(3m) exceeds 10000000\n"),
    ("sl2 conv --r 0 --radius 7", 2,
     "",
     ("unrecognized arguments: --radius 7",)),
]

# Runs in a fresh interpreter: blocks sympy, replays the argv lists read
# from stdin, and prints one JSON object with what happened.
REPLAY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["sympy"] = None
import heckej.cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = heckej.cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({
    "results": results,
    "sympy": sorted(n for n, m in sys.modules.items()
                    if m is not None and (n == "sympy" or n.startswith("sympy."))),
    "sl2_loaded": "heckej.sl2" in sys.modules,
}))
"""


@pytest.fixture(scope="session")
def replay(tmp_path_factory):
    """The golden calls, then PINNED_OUTPUTS and CLI_PINS, run in order in
    one fresh interpreter in which sympy cannot be imported, with a KL
    cache directory of its own, so the repeated golden `kl` call reads
    back the table the first one wrote.

    runs[argv] lists (exit code, stdout, stderr) of each run of argv;
    cache is the KL cache directory; sympy lists the sympy modules loaded
    and sl2_loaded says whether heckej.sl2 was."""
    cache = tmp_path_factory.mktemp("replay") / "cache"
    src = str(Path(heckej.__file__).resolve().parents[1])
    env = dict(os.environ, HECKEJ_CACHE_DIR=str(cache))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    calls = [rec["argv"] for rec in golden()] + [argv.split() for argv, *_ in PINNED_OUTPUTS + CLI_PINS]
    proc = subprocess.run(
        [sys.executable, "-c", REPLAY_SCRIPT],
        input=json.dumps(calls), capture_output=True, text=True, env=env,
        timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    runs = {}
    for argv, result in zip(calls, report["results"]):
        runs.setdefault(tuple(argv), []).append(tuple(result))
    return SimpleNamespace(runs=runs, cache=cache, sympy=report["sympy"], sl2_loaded=report["sl2_loaded"])
