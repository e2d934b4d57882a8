"""Command-line entry point.

One executable wires together the whole pipeline: group enumeration,
Kazhdan-Lusztig tables, Hecke products, structure constants, the
a-function with certified truncation, gamma constants, J-multiplication,
distinguished involutions, the map phi into J tensor A, and the SL(2)
convolution oracles.

The library computes for the basis C'_w; --basis signed (the default)
prints the image of its results in the convention of C_w: star
(v -> -v^-1) on the coefficients of hmul and hconst, the signed J
product for gamma and jmul, JElement.signed_image on phi.  hmul's
--hecke-basis Csigned is that same star image of the product in C', and
its record names the convention of the C basis it multiplied in.

kl, hmul and hconst keep each KL table they build in a cache directory
(--cache-dir, else $HECKEJ_CACHE_DIR, else ~/.cache/heckej), one file
kl_<affine type>[-extended]_r<radius>.json per table.  A cache file is
only compared byte for byte with the rebuilt table, one column at a
time, and rewritten the same way when it differs; it is never read into
a result.

A cold call pays only for its own subcommand.  main builds the parser of
the subcommand that argv names, not of the whole tree, which it builds
only for heckej --help and heckej sl2 --help, for an unknown or missing
subcommand, and to report a usage error.  Importing this module loads the package and argparse; a
standard module that only some calls use is imported by the function
that uses it.

Exit codes: 0 success, 1 verification failure, internal error or a
closed stdout, 2 usage error, 3 refusal (a request past the certified
radius or a size budget, or an oracle precondition that fails).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

# fractions (which loads decimal), json, csv, pathlib and tempfile are
# imported in the functions that use them (parse_q and the library's
# rationals, --format json, --format csv, the KL cache and its writes):
# every call pays for what is imported at start-up.
from .asymptotic import JRing, phi_reach
from .errors import BudgetExceeded, DepthTooSmall, GroupMismatch, HeckejError, RadiusExceeded
from .hecke import BASES, KLTable, StructureConstants, _check_kl_budget, _q_coefficients, hecke_algebra
from .laurent import Laurent
from .weyl import SUPPORTED_TYPES, GroupDescriptor, GroupElement, WeylGroup, _length_series, make_group
from . import sl2

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3

# Budget on the pairs (x, y) that phi-check visits, checked before its ring
# is built.  It admits --max-len 10 on A2~ (4,786 pairs; 2.8 s and 45 MB
# spawned on a 2-vCPU machine) and refuses 11 (6,832); on the extended A1~
# it admits 24 (4,804 pairs) and refuses 25 (5,204).
PHI_PAIR_BUDGET = 5000


class UsageError(Exception):
    pass


# -- parsing helpers -------------------------------------------------------


def descriptor_from_args(ns) -> GroupDescriptor:
    return GroupDescriptor(ns.type, ns.extended)


def group_from_args(ns) -> WeylGroup:
    return make_group(descriptor_from_args(ns))


def _radius(ns, default: int) -> int:
    if ns.radius is None:
        return default
    if ns.radius < 0:
        raise UsageError("--radius must be >= 0")
    return ns.radius


def parse_element(group: WeylGroup, text: str) -> GroupElement:
    """Generator-index string with optional '@k' omega suffix; '' or 'e'
    is the identity ("010" = s0 s1 s0, "01@1" = s0 s1 followed by omega)."""
    text = text.strip()
    body, at, om_part = text.partition("@")
    # isdigit alone admits every Unicode decimal digit, and '²' besides
    if at and not (om_part.isascii() and om_part.isdigit()):
        raise UsageError(f"bad omega suffix in element {text!r}")
    omega = int(om_part) if at else 0
    if body in ("", "e"):
        word: tuple[int, ...] = ()
    else:
        if not (body.isascii() and body.isdigit()):
            raise UsageError(f"element {text!r} must be generator indices like '010'")
        word = tuple(int(ch) for ch in body)
    try:
        return group.element(word, omega)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _xy(ns, group: WeylGroup) -> tuple[GroupElement, GroupElement, int]:
    """--x and --y, and --radius defaulting to len(x) + len(y)."""
    x = parse_element(group, ns.x)
    y = parse_element(group, ns.y)
    return x, y, _radius(ns, len(x.word) + len(y.word))


def parse_q(text: str) -> Fraction:
    """An exact positive rational such as 4, 9/4 or 1e3.  Fraction writes
    out 10^|k| for an exponent k, so a text longer than
    sl2.DECAY_DIGITS_BUDGET, or with an exponent past it, is refused first."""
    from fractions import Fraction

    budget = sl2.DECAY_DIGITS_BUDGET
    # an exponent that is not an int leaves the error to Fraction
    with contextlib.suppress(ValueError):
        if len(text) > budget or abs(int(text.lower().partition("e")[2] or 0)) > budget:
            raise BudgetExceeded(f"q {text[:20]!r} needs more than {budget} digits")
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}") from exc
    if q <= 0:
        raise UsageError("q must be positive")
    return q


def quadext_str(a0: Fraction, a1: Fraction, q: Fraction) -> str:
    """a0 + a1*sqrt(q), an element of Q(sqrt q), as phi --q prints it."""
    if a1 == 0:
        return str(a0)
    return f"{a0} + {a1}*sqrt({q})"


# -- output ----------------------------------------------------------------


def emit(ns, meta: dict, rows: list[dict]) -> None:
    """Write one result record.  Every record carries certified, radius
    and basis metadata; rows are dicts with identical keys."""
    record = dict(meta)
    record["rows"] = rows
    if ns.format == "json":
        import json

        print(json.dumps(record, sort_keys=True, default=str))
        return
    meta_line = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    print(f"# {meta_line}")
    if not rows:
        return
    keys = list(rows[0])
    if ns.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows([row[k] for k in keys] for row in rows)
        return
    table = [[str(row[k]) for k in keys] for row in rows]
    widths = [max(len(keys[i]), max(len(r[i]) for r in table)) for i in range(len(keys))]
    print("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def emit_terms(ns, meta: dict, terms: dict, columns: tuple[str, str], fmt=str) -> None:
    """Emit one row per (element, value) of terms, in element order."""
    key, value = columns
    rows = [
        {key: str(w), value: fmt(c)}
        for w, c in sorted(terms.items(), key=lambda t: t[0].sort_key())
    ]
    emit(ns, meta, rows)


def emit_result(passes: int, fails: int) -> int:
    """The closing line of a verification subcommand, and its exit code."""
    print(f"RESULT pass={passes} fail={fails}")
    return EXIT_OK if fails == 0 else EXIT_FAIL


def meta_for(ns, radius: int, **extra) -> dict:
    meta = {"certified": True, "radius": radius, "basis": ns.basis}
    meta.update(extra)
    return meta


# -- KL table cache --------------------------------------------------------


def cache_directory(ns) -> Path:
    from pathlib import Path

    if ns.cache_dir:
        return Path(ns.cache_dir)
    env = os.environ.get("HECKEJ_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "heckej"


class _QList(dict):
    """Packed KL polynomial -> its JSON list of q-coefficients, rendered
    once per distinct polynomial."""

    def __missing__(self, c: int) -> str:
        text = self[c] = "[" + ", ".join(map(str, _q_coefficients(c))) + "]"
        return text


def _kl_cache_chunks(table: KLTable):
    """The bytes of json.dumps({"version": 2, "group", "radius", "P"},
    sort_keys=True), yielded one piece at a time: the opening, each
    column of P, and the tail.  P maps each w to {y: the q-coefficients
    of P_{y,w}, degree 0 first}, elements written as the CLI prints them,
    straight from the table's packed columns.  Each name is written once,
    the ids are sorted by name once, and each w's keys by that rank."""
    g = table.group
    names = {i: str(g._element(i)) for i in g._ball_ids(table.radius)}
    order = sorted(names, key=names.__getitem__)
    rank = {i: r for r, i in enumerate(order)}
    keys = [f'"{names[i]}": ' for i in order]
    del names  # the generator's frame would keep them to the last column
    qlist = _QList()
    # the keys sort as "P" < "group" < "radius" < "version"
    yield b'{"P": {'
    for n, (key, w) in enumerate(zip(keys, order)):
        col = table._coords[w]
        entries = ", ".join([keys[r] + qlist[col[order[r]]] for r in sorted(map(rank.__getitem__, col))])
        yield (", " * (n > 0) + key + "{" + entries + "}").encode()
    d = table.desc
    yield (
        f'}}, "group": {{"affine_type": "{d.affine_type}", "extended": {str(d.extended).lower()}}}, '
        f'"radius": {table.radius}, "version": 2}}'
    ).encode()


def cached_kl_table(ns, desc: GroupDescriptor, radius: int) -> KLTable:
    """Build the KL table for (group, radius), once per diagram-automorphism
    orbit (`KLTable.extend`), and keep it in the cache directory as
    kl_<affine type>[-extended]_r<radius>.json, in the form
    `_kl_cache_chunks` yields.

    The table is always built, and a cache file only compared with it,
    one chunk at a time: a file whose bytes equal the table's
    serialization, to its end, is a hit and is left untouched; any other
    file is rewritten, chunk by chunk, through a temporary file of this
    writer's own in the same directory, so concurrent writers never
    share one.  So a cache file never changes a result, and neither path
    holds more than one column of its text.  A directory that cannot
    hold the file is a usage error.
    """
    table = KLTable(make_group(desc), radius)
    name = f"kl_{desc.affine_type}{'-extended' * desc.extended}_r{radius}.json"
    path = cache_directory(ns) / name
    try:
        with open(path, "rb") as fh:
            # a buffered read comes back short only at the end of the file
            if all(fh.read(len(chunk)) == chunk for chunk in _kl_cache_chunks(table)) and not fh.read(1):
                return table
    except OSError:
        pass
    # only a write pays for tempfile, which loads shutil and random
    import tempfile

    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with open(fd, "wb") as fh:
            fh.writelines(_kl_cache_chunks(table))
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise UsageError(
            f"cannot use {path.parent} as the KL cache directory: {exc.strerror or exc}"
        ) from exc
    return table


# -- subcommands -----------------------------------------------------------


def cmd_group(ns) -> int:
    g = group_from_args(ns)
    radius = _radius(ns, 3)
    rows = [
        {
            "element": str(w),
            "length": len(w.word),
            "left_descents": "".join(map(str, sorted(g.left_descents(w)))),
            "right_descents": "".join(map(str, sorted(g.right_descents(w)))),
        }
        for w in g.enumerate_ball(radius)
    ]
    emit(ns, meta_for(ns, radius), rows)
    return EXIT_OK


def cmd_kl(ns) -> int:
    g = group_from_args(ns)
    y = parse_element(g, ns.y)
    w = parse_element(g, ns.w)
    radius = _radius(ns, len(w.word))
    if radius < len(w.word):
        raise UsageError(f"radius {radius} below len(w) = {len(w.word)}")
    table = cached_kl_table(ns, g.desc, radius)
    p = table.kl_polynomial(y, w)
    rows = [{"y": str(y), "w": str(w), "P": _q_poly_str(p), "mu": table.mu(y, w)}]
    emit(ns, meta_for(ns, radius), rows)
    return EXIT_OK


def _q_poly_str(p: Laurent) -> str:
    """Render a polynomial stored on even v-exponents as a polynomial in q."""
    if not p:
        return "0"
    parts = []
    for e, c in p.items():
        qpow = "1" if e == 0 else ("q" if e == 2 else f"q^{e // 2}")
        parts.append(qpow if c == 1 and e != 0 else (str(c) if e == 0 else f"{c}*{qpow}"))
    return " + ".join(parts)


def cmd_hmul(ns) -> int:
    g = group_from_args(ns)
    x, y, radius = _xy(ns, g)
    basis = ns.hecke_basis or ("Csigned" if ns.basis == "signed" else "Cprime")
    table = cached_kl_table(ns, g.desc, radius)
    alg = hecke_algebra(g.desc)
    # star on the coefficients (~T_w fixed) is a ring automorphism taking C'_w
    # to C_w, so the product in C_w is the star image of the one in C'
    factors = [alg.basis_element(w, "Cprime" if basis == "Csigned" else basis) for w in (x, y)]
    terms = alg.multiply(*factors, table).terms
    if basis == "Csigned":
        terms = {w: c.star() for w, c in terms.items()}
    # a C basis is itself a sign convention, which the record names whatever --basis says
    convention = {"Csigned": "signed", "Cprime": "unsigned"}.get(basis, ns.basis)
    emit_terms(ns, meta_for(ns, radius, hecke_basis=basis, basis=convention), terms, ("element", "coefficient"))
    return EXIT_OK


def cmd_hconst(ns) -> int:
    g = group_from_args(ns)
    x, y, radius = _xy(ns, g)
    table = cached_kl_table(ns, g.desc, radius)
    hmap = StructureConstants(table).h_map(x, y)
    if ns.basis == "signed":
        hmap = {z: h.star() for z, h in hmap.items()}
    if ns.z is not None:
        z = parse_element(g, ns.z)
        hmap = {z: hmap.get(z, Laurent())}
    emit_terms(ns, meta_for(ns, radius), hmap, ("z", "h"))
    return EXIT_OK


def cmd_afn(ns) -> int:
    g = group_from_args(ns)
    z = parse_element(g, ns.z)
    av = JRing(g.desc, len(z.word)).a_function(z)
    rows = [{"z": str(z), "a": av.value, "scan_radius": av.scan_radius}]
    emit(ns, meta_for(ns, av.scan_radius), rows)
    return EXIT_OK


def cmd_jmul(ns) -> int:
    """gamma and jmul: the product t_x t_y in J, whose coefficients are the
    gamma_{x,y,z}; gamma names its column so and takes --z."""
    g = group_from_args(ns)
    x, y, radius = _xy(ns, g)
    ring = JRing(g.desc, radius)
    terms = ring.j_multiply(ring.t(x), ring.t(y), ns.basis == "signed").terms
    column = "coefficient"
    if ns.command == "gamma":
        column = "gamma"
        if ns.z is not None:
            z = parse_element(g, ns.z)
            terms = {z: terms.get(z, 0)}
    emit_terms(ns, meta_for(ns, radius), terms, ("z", column), int)
    return EXIT_OK


def cmd_dinv(ns) -> int:
    desc = descriptor_from_args(ns)
    radius = _radius(ns, phi_reach(desc, 0))
    ring = JRing(desc, radius)
    rows = [
        {"d": str(d), "length": len(d.word), "a": ring.a_function(d).value}
        for d in ring.distinguished_involutions(radius)
    ]
    emit(ns, meta_for(ns, radius), rows)
    return EXIT_OK


def cmd_phi(ns) -> int:
    g = group_from_args(ns)
    x = parse_element(g, ns.x)
    radius = _radius(ns, phi_reach(g.desc, len(x.word)))
    ring = JRing(g.desc, radius)
    q = None if ns.q is None else parse_q(ns.q)
    img = ring.phi(x)
    if ns.basis == "signed":
        img = img.signed_image()
    columns = ("z", "coefficient")
    if q is None:
        emit_terms(ns, meta_for(ns, radius), img.terms, columns)
    else:
        spec = img.specialize(q)
        # each numerator and denominator is printed in full
        parts = (f for pair in spec.values() for a in pair for f in (a.numerator, a.denominator))
        sl2.check_bits(max(map(int.bit_length, parts), default=0))
        emit_terms(ns, meta_for(ns, radius, q=str(q)), spec, columns, lambda c: quadext_str(*c, q))
    return EXIT_OK


def _check_phi_pair_budget(desc: GroupDescriptor, max_len: int) -> None:
    """Refuse a phi-check whose pairs (x, y) with len(x) + len(y) <= max_len,
    omega_order**2 * sum_n |stratum n| * |ball(max_len - n)| by the length
    series, pass PHI_PAIR_BUDGET.  The KL budget, checked first, bounds
    max_len, and so the series read here."""
    series = list(_length_series(desc, max_len))
    pairs = desc.omega_order**2 * sum(stratum * series[-1 - n][1] for n, (stratum, _) in enumerate(series))
    if pairs > PHI_PAIR_BUDGET:
        raise BudgetExceeded(f"phi-check --max-len {max_len} visits {pairs} pairs, over {PHI_PAIR_BUDGET}")


def cmd_phi_check(ns) -> int:
    g = group_from_args(ns)
    max_len = ns.max_len
    if max_len < 0:
        raise UsageError("--max-len must be >= 0")
    radius = phi_reach(g.desc, max_len)
    # a J product of phi(x) and phi(y) extends the KL table to len(z1) + len(z2) - 1
    # <= phi_reach(len x) + phi_reach(len y) - 1, for len(x) + len(y) <= N at most
    # phi_reach(N) + phi_reach(0) - 1: refuse that table, and then too many
    # pairs, before any work
    _check_kl_budget(g.desc, radius + phi_reach(g.desc, 0) - 1)
    _check_phi_pair_budget(g.desc, max_len)
    ring = JRing(g.desc, radius)
    alg = ring.algebra
    ball = g.enumerate_ball(max_len)
    passes = fails = 0
    counterexamples = []
    for x in ball:
        for y in ball:
            if len(x.word) + len(y.word) > max_len:
                continue
            lhs = ring.jta_multiply(ring.phi(x), ring.phi(y))
            # C_x C_y is carried onto C'_x C'_y by iota (v -> -v^-1, C_w ->
            # C'_w), a ring map, so this one product checks both conventions
            prod = alg.multiply(
                alg.basis_element(x, "Cprime"), alg.basis_element(y, "Cprime"), ring.table
            )
            rhs = ring.phi_of_element(prod)
            if lhs == rhs:
                passes += 1
            else:
                fails += 1
                if len(counterexamples) < 10:
                    counterexamples.append({"x": str(x), "y": str(y)})
    rows = counterexamples if fails else []
    emit(ns, meta_for(ns, radius, max_len=max_len), rows)
    return emit_result(passes, fails)


# -- sl2 subcommands -------------------------------------------------------


def cmd_sl2_value(ns) -> int:
    """sl2 gamma and sl2 volume: one closed form at n, in the column of its name."""
    func, column = (sl2.gamma_coefficient, "gamma") if ns.sl2_command == "gamma" else (sl2.volume_ratio, "volume_ratio")
    emit(ns, meta_for(ns, 0), [{"n": ns.n, column: sl2.canonical_str(func(ns.n))}])
    return EXIT_OK


def cmd_sl2_conv(ns) -> int:
    val = sl2.conv_f_value(ns.r, sl2.Lattice(ns.lattice))
    emit(
        ns,
        meta_for(ns, 0, lattice=ns.lattice),
        [{"r": ns.r, "value": sl2.canonical_str(val)}],
    )
    return EXIT_OK


def cmd_sl2_verify(ns) -> int:
    report = sl2.verify_relations(ns.R)
    fails = [(name, r) for name, r, ok in report if not ok]
    rows = [{"relation": name, "r": r} for name, r in fails[:10]]
    emit(ns, meta_for(ns, 0, R=ns.R), rows)
    return emit_result(len(report) - len(fails), len(fails))


def cmd_sl2_count(ns) -> int:
    lat = sl2.Lattice(ns.lattice)
    frac = sl2.brute_force_count(ns.p, ns.m, ns.n, ns.r, lat)
    cell = sl2.cell_value_from_count(ns.p, ns.m, ns.n, ns.r, lat)
    rows = [
        {
            "p": ns.p,
            "m": ns.m,
            "n": ns.n,
            "r": ns.r,
            "lattice": ns.lattice,
            "fraction": str(frac),
            "cell_value": str(cell),
        }
    ]
    emit(ns, meta_for(ns, 0), rows)
    return EXIT_OK


def cmd_sl2_decay(ns) -> int:
    q = parse_q(ns.q)
    checks = sl2.schwartz_decay_check(ns.N, q)
    rows = [{"n": n, "weighted": str(w), "ok": ok} for n, w, ok in checks]
    emit(ns, meta_for(ns, 0, q=str(q), N=ns.N), rows)
    fails = sum(not ok for _, _, ok in checks)
    return emit_result(len(checks) - fails, fails)


# -- argument grammar ------------------------------------------------------

# Every subcommand option, defined once; COMMANDS picks them by name.
OPTIONS = {
    "type": {"default": "A1~", "choices": SUPPORTED_TYPES},
    "extended": {"action": "store_true"},
    "radius": {"type": int},
    "x": {},
    "y": {},
    "z": {},
    "w": {},
    "hecke-basis": {"choices": [*BASES, "Csigned"]},
    "q": {"help": "an exact rational, e.g. 4 or 9/4"},
    "max-len": {"type": int, "default": 4},
    "n": {"type": int},
    "r": {"type": int},
    "p": {"type": int},
    "m": {"type": int},
    "lattice": {"default": "std", "choices": ["std", "sub"]},
    "R": {"type": int, "default": 50},
    "N": {"type": int, "default": 10},
    "cache-dir": {},
    "basis": {"default": "signed", "choices": ["signed", "unsigned"]},
}

# (command path, handler, help, options with "!" marking the required
# ones); a handler of None makes a group of subcommands.
COMMANDS = [
    ("group", cmd_group, "enumerate a ball", "type extended radius"),
    ("kl", cmd_kl, "Kazhdan-Lusztig polynomial", "type extended radius y! w! cache-dir"),
    ("hmul", cmd_hmul, "Hecke product of basis elements", "type extended radius x! y! hecke-basis basis cache-dir"),
    ("hconst", cmd_hconst, "structure constants h_{x,y,z}", "type extended radius x! y! z basis cache-dir"),
    ("afn", cmd_afn, "a-function value", "type extended z!"),
    ("gamma", cmd_jmul, "gamma constants of J", "type extended radius x! y! z basis"),
    ("jmul", cmd_jmul, "product t_x t_y in J", "type extended radius x! y! basis"),
    ("dinv", cmd_dinv, "distinguished involutions", "type extended radius"),
    ("phi", cmd_phi, "image of a canonical basis element in J tensor A", "type extended radius x! q basis"),
    ("phi-check", cmd_phi_check, "verify multiplicativity of phi", "type extended max-len"),
    ("sl2", None, "SL(2) volumes, convolutions, oracles", ""),
    ("sl2 gamma", cmd_sl2_value, "cell coefficient of f", "n!"),
    ("sl2 volume", cmd_sl2_value, "vol(K x_n I)/vol(K)", "n!"),
    ("sl2 conv", cmd_sl2_conv, "(f * chi_lattice)(t^-r)", "r! lattice"),
    ("sl2 verify", cmd_sl2_verify, "check the coefficient relations", "R"),
    ("sl2 count", cmd_sl2_count, "finite-quotient counting oracle", "p! m! n! r! lattice"),
    ("sl2 decay", cmd_sl2_decay, "geometric decay of the coefficients", "q! N"),
]


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the whole command tree, or, given a COMMANDS path such
    as "hmul" or "sl2 count", of that path alone, which parses its argv
    to the same namespace."""
    parser = argparse.ArgumentParser(
        prog="heckej",
        description="Exact computations in the asymptotic ring J of an "
        "extended affine Weyl group, and the SL(2) convolution picture.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", default="table", choices=["table", "json", "csv"])

    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, func, help_text, options in COMMANDS:
        group, _, name = path.rpartition(" ")
        if command is not None and path not in (command, command.partition(" ")[0]):
            continue
        if func is None:
            p = groups[group].add_parser(name, help=help_text)
            groups[path] = p.add_subparsers(dest=f"{name}_command", required=True)
            continue
        p = groups[group].add_parser(name, parents=[common], help=help_text)
        for opt in options.split():
            opt_name = opt.rstrip("!")
            p.add_argument(f"--{opt_name}", required=opt.endswith("!"), **OPTIONS[opt_name])
        # a record names a basis also where --basis is not taken
        p.set_defaults(func=func, basis=OPTIONS["basis"]["default"])
    return parser


def _command_path(argv: list[str]) -> str | None:
    """The COMMANDS path of a subcommand that argv starts with: its first
    token, or its first two for a group such as sl2; else None."""
    handlers = {path: func for path, func, _, _ in COMMANDS}
    path = " ".join(argv[:1])
    if path in handlers and handlers[path] is None:
        path = " ".join(argv[:2])
    return path if handlers.get(path) else None


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse with the parser of argv's subcommand alone.  On a usage error
    parse again with the whole tree, whose message is the one shown: an
    error such as "unrecognized arguments" prints the top-level usage line,
    which lists every subcommand."""
    command = _command_path(argv)
    if command is not None:
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                return build_parser(command).parse_args(argv)
        except SystemExit as exc:
            if exc.code in (0, None):
                raise
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = ns.func(ns)
        # a reader that stopped early shows here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: end quietly, with the output pointed at
        # devnull so the interpreter's flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except (UsageError, GroupMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RadiusExceeded, DepthTooSmall, BudgetExceeded) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except HeckejError as exc:
        # a broken invariant, not a refusal: one line, the exit code of a traceback
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
