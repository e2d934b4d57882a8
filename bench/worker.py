"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py afn-a2 --seed N --radius R [--trace FILE --run ID]
    python3 bench/worker.py j-ring --seed N --triples T --pairs P [--trace FILE --run ID]
    python3 bench/worker.py cli --trace FILE --run ID --samples FILE -- ARGV...

The in-process workloads print one JSON line with CLOCK_MONOTONIC stamps
(`fixture`: set-up done, `start`/`end`: the timed section), the number
of operations attempted and failed, and `samples`: the speed samples of
a `clock.Clock` that ran from the start of the work, with a mark after
each a-value query or block of J_SEGMENT operations.  `run.py` subtracts
its own spawn time from the stamps.  `cli` runs ``heckej.cli.main(ARGV)``
with spans installed and exits with its code, as ``cli_call.py`` does,
writing its speed samples to the file given by ``--samples``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback

import heckej
from heckej import GroupDescriptor, JRing

import spans
from clock import Clock

J_RING_RADIUS = 24  # covers triple products of length-6 factors and phi on length-10 pairs
TRIPLE_BALL = 6
PAIR_LENGTH_SUM = 10
J_SEGMENT = 50  # j-ring operations between marks


def oracle_a(word: tuple[int, ...]) -> int:
    """a(z) on A2~ from cell theory alone, sharing no code with heckej.

    a = 0 only at e; a = 3 exactly when some reduced word of z has a
    factor iji with i != j (the lowest two-sided cell); a = 1 otherwise.
    Every m_ij is 3 in A2~, so the braid moves iji <-> jij connect all
    reduced words of z (Matsumoto); the class of `word` is enumerated.
    """
    if not word:
        return 0
    seen = {word}
    todo = [word]
    while todo:
        w = todo.pop()
        for k in range(len(w) - 2):
            i, j, i2 = w[k : k + 3]
            if i == i2 != j:
                moved = w[:k] + (j, i, j) + w[k + 3 :]
                if moved not in seen:
                    seen.add(moved)
                    todo.append(moved)
    has_iji = any(w[k] == w[k + 2] != w[k + 1] for w in seen for k in range(len(w) - 2))
    return 3 if has_iji else 1


def a2_ball_size(radius: int) -> int:
    """|{z in A2~ : len(z) <= radius}|; the length-n stratum has 3n elements."""
    return 1 + sum(3 * n for n in range(1, radius + 1))


def _holds(check, *args) -> bool:
    """Run one checked operation; one that raises counts as failed."""
    try:
        return bool(check(*args))
    except Exception:
        traceback.print_exc()
        return False


def run_afn(seed: int, radius: int) -> dict:
    """Cold certified a-function on A2~: build the ring, then ask a(z) for
    every z of the working ball in seed order at the default scan radius.
    The ring build and each query end with a mark."""
    clock = Clock()
    fixture = start = clock.mark()
    ring = JRing(GroupDescriptor("A2~"), radius)
    ball = ring.group.enumerate_ball(radius)
    random.Random(f"afn-a2:{seed}").shuffle(ball)
    clock.mark()
    values = {}
    for z in ball:
        try:
            values[z] = ring.a_function(z)
        except Exception:  # a query that raises counts as failed
            traceback.print_exc()
        clock.mark()
    end = clock.mark()
    samples = clock.stop()
    attempted = a2_ball_size(radius)
    correct = sum(
        1
        for z, av in values.items()
        if len(z) <= radius and av.certified and av.value == oracle_a(z.word)
    )
    return {"fixture": fixture, "start": start, "end": end, "ops": attempted,
            "failed": attempted - min(correct, attempted), "samples": samples}


def associative(ring: JRing, x, y, z, signed: bool) -> bool:
    """(t_x t_y) t_z == t_x (t_y t_z) in J."""
    tx, ty, tz = ring.t(x), ring.t(y), ring.t(z)
    left = ring.j_multiply(ring.j_multiply(tx, ty, signed), tz, signed)
    right = ring.j_multiply(tx, ring.j_multiply(ty, tz, signed), signed)
    return left == right


def multiplicative(ring: JRing, x, y) -> bool:
    """phi(C'_x) phi(C'_y) == phi(C'_x C'_y) in J tensor A."""
    alg = ring.algebra
    lhs = ring.jta_multiply(ring.phi(x), ring.phi(y))
    prod = alg.multiply(alg.basis_element(x, "Cprime"), alg.basis_element(y, "Cprime"), ring.table)
    return lhs == ring.phi_of_element(prod)


def run_jring(seed: int, triples: int, pairs: int) -> dict:
    """Warm J-ring algebra on the Omega-extended A1~: after the ring, its
    certified scan and its distinguished involutions are built, check
    seed-sampled associativity triples and phi-homomorphism pairs."""
    clock = Clock()
    ring = JRing(GroupDescriptor("A1~", extended=True), J_RING_RADIUS)
    ring.distinguished_involutions()
    fixture = clock.mark()
    g = ring.group
    ball = g.enumerate_ball(TRIPLE_BALL)
    wide = g.enumerate_ball(PAIR_LENGTH_SUM)
    candidates = [(x, y) for x in wide for y in wide if len(x) + len(y) <= PAIR_LENGTH_SUM]
    rng = random.Random(f"j-ring:{seed}")
    ops = [
        (associative, (ring, rng.choice(ball), rng.choice(ball), rng.choice(ball), rng.random() < 0.5))
        for _ in range(triples)
    ]
    ops += [(multiplicative, (ring, x, y)) for x, y in rng.sample(candidates, pairs)]
    rng.shuffle(ops)
    start = clock.mark()
    failed = 0
    for i in range(0, len(ops), J_SEGMENT):
        failed += sum(not _holds(check, *args) for check, args in ops[i : i + J_SEGMENT])
        clock.mark()
    end = clock.mark()
    return {"fixture": fixture, "start": start, "end": end, "ops": len(ops), "failed": failed,
            "samples": clock.stop()}


def main() -> int:
    argv = sys.argv[1:]
    cli_argv: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, cli_argv = argv[:cut], argv[cut + 1 :]
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=["afn-a2", "j-ring", "cli"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--radius", type=int, default=3)
    parser.add_argument("--triples", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--run", default="")
    parser.add_argument("--samples", default=None)
    ns = parser.parse_args(argv)

    clock = Clock() if ns.samples else None
    if ns.workload == "cli":
        import heckej.cli  # noqa: F401  (imported before install, so its names are wrapped too)
    tracer = None
    if ns.trace:
        tracer = spans.Tracer(ns.run)
        spans.install(tracer)
    try:
        if ns.workload == "cli":
            return heckej.cli.main(cli_argv)
        if ns.workload == "afn-a2":
            rec = run_afn(ns.seed, ns.radius)
        else:
            rec = run_jring(ns.seed, ns.triples, ns.pairs)
    finally:
        if tracer is not None:
            tracer.dump(ns.trace)
        if clock is not None:
            clock.mark()
            clock.dump(ns.samples)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
