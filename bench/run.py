"""The heckej benchmark.

    python3 bench/run.py --workload {afn-a2,j-ring,cli-cold} --seed N
                         --seconds S --trace {0,1} [--tiny]

Run it from the root of a checkout: it measures the ``heckej`` package in
``src/`` of that checkout and refuses to run without one.  Each
repetition ("rep") of a workload is a fresh interpreter, as a user's
process is, so no ``lru_cache`` or census cache survives from one rep to
the next.  Reps run one at a time (a closed loop with one operation in
flight) while the next one is expected to end within S seconds of the
start, and at least twice (once with ``--trace 1``).

With ``--trace 0`` the last line of stdout is a JSON object whose
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
untraced and traced runs of the same inputs alternate (rep by rep, or
call by call in cli-cold) and the metrics are the per-layer ones, from
spans recorded by ``bench/spans.py``.  Every output is checked
exactly; a wrong answer, an exception or an unexpected exit code counts
as a failed operation.  ``--tiny`` shrinks every workload for the
benchmark's own tests.  Every time is divided by the `slowdown` of the
process it was measured in, which its `clock.Clock` samples, so that the
host's slow spells do not show as slow code.  See ``bench/NOTES.md`` for
why these workloads and this rescaling.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
GOLDEN = BENCH / "golden" / "cli_cold.json"
OUT = ROOT / ".bench_out"

# Sizes.  The full sizes keep one rep of afn-a2 at 2-4 s and of j-ring
# at 0.8-1.2 s on a 2-core machine, so that a run holds 10-40 reps to take
# the median of; a cli-cold rep takes 14-21 s.  See NOTES.md.
AFN_RADIUS = {"full": 2, "tiny": 1}
J_TRIPLES = {"full": 2400, "tiny": 60}
J_PAIRS = {"full": 240, "tiny": 6}
CLI_CALLS = {"full": None, "tiny": 4}  # None: the whole golden list
MIN_REPS = 2  # untraced reps per run at least
SETUP_EVERY = 10  # cli-cold times one fresh `import heckej.cli` before every 10th call
REFERENCE_CALIBRATION = 15e-6  # seconds of clock.calibrate() at the reference speed; see NOTES.md
IMPORT_PROBES = 3  # fresh interpreters per import metric in a traced run

IMPORTS = {
    "import.heckej_s": "heckej",
    "import.cli_s": "heckej.cli",
    "import.sympy_s": "sympy",
}

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "call_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
CALL_COUNTS = [
    "weyl.enumerate_ball",
    "hecke.scan",
    "hecke.h_map",
    "hecke.column",
    "hecke.multiply",
    "asymptotic.a_function",
    "asymptotic.gamma_map",
    "asymptotic.j_multiply",
    "asymptotic.phi",
    "sl2.brute_force_count",
]
COUNTERS = [
    "hecke.kl_build.elements",
    "hecke.scan.pairs",
    "hecke.h_support",
    "asymptotic.scan_radii",
    "sl2.census_cells",
]
SELF_TIMES = [
    "weyl.enumerate_ball",
    "weyl.make_group",
    "hecke.kl_build",
    "hecke.scan",
    "hecke.h_map",
    "hecke.column",
    "hecke.multiply",
    "hecke.to_basis",
    "asymptotic.jring_init",
    "asymptotic.a_function",
    "asymptotic.gamma_map",
    "asymptotic.j_multiply",
    "asymptotic.phi",
    "asymptotic.jta_multiply",
    "asymptotic.phi_of_element",
    "asymptotic.dinv",
    "sl2.brute_force_count",
    "sl2.closed_form",
    "cli.main",
]
KL_CACHE = {"cli.kl_cache.cold_s": "cli.kl_cache.cold", "cli.kl_cache.warm_s": "cli.kl_cache.warm"}


def per_layer_units() -> dict[str, str]:
    units = {f"{n}.calls": "count" for n in CALL_COUNTS}
    units.update({n: "count" for n in COUNTERS})
    units.update({f"{n}.self_s": "s" for n in SELF_TIMES})
    units.update({n: "s" for n in KL_CACHE})
    units.update({n: "s" for n in IMPORTS})
    units["trace.overhead_frac"] = "ratio"
    return units


@dataclass
class Rep:
    """One repetition.  `wall` is its timed section, `setups` its set-up
    times and `calls` the spawn-to-exit time of each process that did its
    work, all divided by the `slowdown` of the process they were measured
    in; `raw` is the timed section as measured."""

    wall: float
    raw: float
    ops: int
    failed: int
    setups: list[float] = field(default_factory=list)
    calls: list[float] = field(default_factory=list)
    spans: str | None = None


def slowdown(samples: list) -> float:
    """How many times slower than the reference speed a process ran: the
    mean of its `clock.calibrate` times over REFERENCE_CALIBRATION."""
    return statistics.fmean(c for _, c in samples) / REFERENCE_CALIBRATION


@dataclass
class Context:
    workload: str
    seed: int
    size: str
    tmp: Path
    env: dict

    def spans_path(self, rep: int) -> str:
        """A fresh file for the spans of one traced rep; it is kept in
        .bench_out after the run for inspection."""
        path = OUT / f"spans-{self.workload}-seed{self.seed}-rep{rep}.jsonl"
        path.unlink(missing_ok=True)
        return str(path)


def spawn(argv: list[str], env: dict) -> tuple[float, float, int, bytes, bytes]:
    """Run one child to completion; returns (spawned, exited, code, stdout,
    stderr) with CLOCK_MONOTONIC stamps comparable to the child's own."""
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate()
    return t0, time.monotonic(), proc.returncode, out, err


def worker_rep(ctx: Context, rep: int, traced: bool, args: list[str], attempted: int) -> Rep:
    argv = [sys.executable, str(BENCH / "worker.py"), ctx.workload, "--seed", str(ctx.seed), *args]
    trace_path = ctx.spans_path(rep) if traced else None
    if trace_path:
        argv += ["--trace", trace_path, "--run", f"{ctx.workload}/{ctx.seed}/{rep}"]
    t0, t1, code, out, err = spawn(argv, ctx.env)
    if err:
        sys.stderr.write(err.decode(errors="replace")[-4000:])
    if code != 0:
        return Rep(wall=t1 - t0, raw=t1 - t0, ops=attempted, failed=attempted, setups=[t1 - t0],
                   calls=[t1 - t0], spans=trace_path)
    rec = json.loads(out.decode().splitlines()[-1])
    slow = slowdown(rec["samples"])
    return Rep(
        wall=(rec["end"] - rec["start"]) / slow,
        raw=rec["end"] - rec["start"],
        ops=rec["ops"],
        failed=rec["failed"],
        setups=[(rec["fixture"] - t0) / slow],
        calls=[(t1 - t0) / slow],
        spans=trace_path,
    )


def afn_rep(ctx: Context, rep: int, modes: tuple[bool, ...]) -> list[Rep]:
    radius = AFN_RADIUS[ctx.size]
    attempted = 1 + sum(3 * n for n in range(1, radius + 1))
    return [worker_rep(ctx, rep, traced, ["--radius", str(radius)], attempted) for traced in modes]


def jring_rep(ctx: Context, rep: int, modes: tuple[bool, ...]) -> list[Rep]:
    t, p = J_TRIPLES[ctx.size], J_PAIRS[ctx.size]
    args = ["--triples", str(t), "--pairs", str(p)]
    return [worker_rep(ctx, rep, traced, args, t + p) for traced in modes]


def golden_calls(size: str) -> list[dict]:
    calls = json.loads(GOLDEN.read_text())
    return calls[: CLI_CALLS[size]]


def rescaled_spawn(argv: list[str], env: dict, samples: Path) -> tuple[float, float, int, bytes, bytes]:
    """Run a child that writes its clock's speed samples to the file
    `samples`; returns (spawn-to-exit seconds rescaled, as measured, code,
    stdout, stderr).  A child that wrote no samples counts as having run
    at the reference speed."""
    samples.unlink(missing_ok=True)
    t0, t1, code, out, err = spawn(argv, env)
    slow = slowdown(json.loads(samples.read_text())) if samples.exists() else 1.0
    return (t1 - t0) / slow, t1 - t0, code, out, err


def cli_rep(ctx: Context, rep: int, modes: tuple[bool, ...]) -> list[Rep]:
    """The golden CLI calls, each in a fresh process, in seed order, against
    a cache directory of this rep's own.  The two identical ``kl --radius
    14`` calls make the first one write the table and the second read it.
    Each call is timed from spawn to exit.  In a traced run each call runs
    untraced and then traced, each mode with a cache directory of its own,
    so the two modes meet the same noise."""
    calls = golden_calls(ctx.size)
    random.Random(f"cli-cold:{ctx.seed}").shuffle(calls)
    caches = [tempfile.mkdtemp(prefix="cache-", dir=ctx.tmp) for _ in modes]
    samples = ctx.tmp / "samples.json"
    out = [Rep(wall=0.0, raw=0.0, ops=len(calls), failed=0, spans=ctx.spans_path(rep) if traced else None)
           for traced in modes]
    try:
        for i, call in enumerate(calls):
            if modes == (False,) and i % SETUP_EVERY == 0:
                out[0].setups.append(cli_setup_time(ctx))
            for r, cache in zip(out, caches):
                if r.spans:
                    argv = [sys.executable, str(BENCH / "worker.py"), "cli", "--trace", r.spans,
                            "--run", f"cli-cold/{ctx.seed}/{rep}/{i}", "--samples", str(samples),
                            "--", *call["argv"]]
                else:
                    argv = [sys.executable, str(BENCH / "cli_call.py"), str(samples), *call["argv"]]
                took, raw, code, stdout, err = rescaled_spawn(argv, dict(ctx.env, HECKEJ_CACHE_DIR=cache), samples)
                r.calls.append(took)
                r.wall += took
                r.raw += raw
                if code != call["exit"] or stdout != call["stdout"].encode():
                    r.failed += 1
                    sys.stderr.write(f"cli-cold: wrong output from {call['argv']} (exit {code})\n")
                    sys.stderr.write(err.decode(errors="replace")[-2000:])
    finally:
        for cache in caches:
            shutil.rmtree(cache, ignore_errors=True)
    return out


REPS = {"afn-a2": afn_rep, "j-ring": jring_rep, "cli-cold": cli_rep}


def probe_import(ctx: Context, module: str) -> float:
    """Seconds to import `module` in a fresh interpreter, timed inside it."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    _, _, rc, out, err = spawn([sys.executable, "-c", code], ctx.env)
    if rc != 0:
        raise RuntimeError(f"import {module} failed: {err.decode(errors='replace')}")
    return float(out)


def cli_setup_time(ctx: Context) -> float:
    """cli-cold set-up: the rescaled spawn-to-exit time of a process that
    only imports ``heckej.cli``, which every CLI call pays."""
    argv = [sys.executable, str(BENCH / "cli_call.py"), str(ctx.tmp / "samples.json")]
    took, _, rc, _, err = rescaled_spawn(argv, ctx.env, ctx.tmp / "samples.json")
    if rc != 0:
        raise RuntimeError(f"import heckej.cli failed: {err.decode(errors='replace')}")
    return took


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n} (too few samples for a percentile with 10 beyond it; max={max(values):.6g})"
    ordered = sorted(values)
    return f"p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.6g} n={n}"


def end_to_end(reps: list[Rep], setups: list[float]) -> dict:
    """Medians over the run of rescaled times: wall_s over the reps'
    timed sections, call_p50_s over every process that did the work and
    setup_s over the set-ups.  Each is printed with its high percentile
    and sample count, and wall_s also as measured."""
    walls = [r.wall for r in reps]
    raws = [r.raw for r in reps]
    calls = [c for r in reps for c in r.calls]
    wall = statistics.median(walls)
    verified = sum(r.ops - r.failed for r in reps) / len(reps)
    values = {
        "wall_s": wall,
        "ops_per_s": verified / wall,
        "call_p50_s": statistics.median(calls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    print(f"# wall_s median={wall:.6g} {high_percentile(walls)} samples={[round(w, 4) for w in walls]}")
    print(f"# wall_s as measured: median={statistics.median(raws):.6g} {high_percentile(raws)} "
          f"samples={[round(w, 4) for w in raws]}")
    print(f"# call_p50_s={values['call_p50_s']:.6g} {high_percentile(calls)}")
    print(f"# setup_s median={values['setup_s']:.6g} {high_percentile(setups)}")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(plain: list[Rep], traced: list[Rep], imports: dict[str, list[float]]) -> dict:
    """Counts come from the first traced rep, which the seed fixes.  A
    layer's time is its self time summed over one rep, as measured, and
    the fastest traced rep's sum is reported.  Each import time is the
    median of its fresh-interpreter probes."""
    totals = []
    for rep in traced:
        calls, self_s, counters = Counter(), Counter(), Counter()
        for proc_spans, proc_counters in spans.load(rep.spans):
            c, s = spans.layer_totals(proc_spans)
            calls.update(c)
            self_s.update(s)
            counters.update(proc_counters)
        totals.append((calls, self_s, counters))
    first_calls, _, first_counters = totals[0]

    def self_time(span: str) -> float:
        return min(t[1][span] for t in totals)

    values = {f"{n}.calls": first_calls[n] for n in CALL_COUNTS}
    values.update({n: first_counters[n] for n in COUNTERS})
    values.update({f"{n}.self_s": self_time(n) for n in SELF_TIMES})
    values.update({k: self_time(span) for k, span in KL_CACHE.items()})
    values.update({name: statistics.median(times) for name, times in imports.items()})
    values["trace.overhead_frac"] = (statistics.median(r.wall for r in traced)
                                     / statistics.median(r.wall for r in plain) - 1)
    units = per_layer_units()
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def measure(ctx: Context, deadline: float, trace: bool) -> tuple[dict, int, int]:
    """Run reps until the next one would pass `deadline` if it took as
    long as the longest so far, but at least MIN_REPS untraced (one in a
    traced run, whose times have no bound)."""
    rep_fn = REPS[ctx.workload]
    plain: list[Rep] = []
    traced: list[Rep] = []
    imports = {}
    if trace:  # probed first, so that the deadline covers them
        imports = {name: [probe_import(ctx, module) for _ in range(IMPORT_PROBES)]
                   for name, module in IMPORTS.items()}
    modes = (False, True) if trace else (False,)
    longest = 0.0
    min_reps = 1 if trace else MIN_REPS
    while len(plain) < min_reps or time.monotonic() + longest < deadline:
        began = time.monotonic()
        reps = rep_fn(ctx, len(plain), modes)
        longest = max(longest, time.monotonic() - began)
        plain.append(reps[0])
        traced.extend(reps[1:])
    reps = plain + traced
    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps)
    print(f"# workload={ctx.workload} seed={ctx.seed} reps={len(plain)} traced_reps={len(traced)} "
          f"attempted={attempted} failed={failed} fail_frac={failed / attempted:.6g}")
    if trace:
        metrics = per_layer(plain, traced, imports)
    else:
        metrics = end_to_end(plain, [s for r in plain for s in r.setups])
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(REPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (for tests)")
    ns = parser.parse_args()
    deadline = time.monotonic() + ns.seconds

    if not (ROOT / "src" / "heckej" / "__init__.py").is_file():
        print(f"error: no heckej package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    tmp = Path(tempfile.mkdtemp(prefix=f"{ns.workload}-", dir=OUT))
    ctx = Context(ns.workload, ns.seed, "tiny" if ns.tiny else "full", tmp, env)
    try:
        metrics, attempted, failed = measure(ctx, deadline, bool(ns.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
