"""Seeded input generator for the kerrpurify benchmark.

This module never imports kerrpurify: the inputs of operation ``i`` of a
workload depend only on (workload name, seed, i), so the program under
test receives generated inputs and never helps choose them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

MC_TRIALS = 10**6

# sweep stage1: 5 x 4 x 5 = 100 grid points, one CSV row each
STAGE1_GRID = (5, 4, 5)
# sweep stage2 --baseline: 100 fidelities x 1 round = 100 grid points, one
# CSV row each.  One round only: with --baseline, the rows of later rounds
# lack the baseline columns the header names, so every such call would fail.
STAGE2_FIDELITIES = 100
STAGE2_ROUNDS = 1

DENOMINATORS = (4, 64)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kinds: tuple  # operation kinds, repeated in this order
    unit: str  # what one unit of work is, see points()
    reference: str  # the task in reference.py that loads the machine alike

    def kind(self, index: int) -> str:
        return self.kinds[index % len(self.kinds)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "param_sweep",
        "sweep CLI calls of 100 points sharing one detector config: per-config tables show here",
        # stage 1 makes up two thirds of the calls, so the latency median
        # sits inside one mode instead of between two
        ("sweep_stage1_qnd1", "sweep_stage2", "sweep_stage1_qnd3"),
        "points",
        "objects",
    ),
    Workload(
        "fresh_angles",
        "exact studies at fresh admissible angles: no config repeats, so the branch core is isolated",
        ("study",),
        "configs",
        "objects",
    ),
    Workload(
        "mc_stream",
        "10^6-trial Monte Carlo calls: time sits in the numpy trial layer, nothing is written",
        ("mc_stage1", "mc_stage2", "mc_pbs"),
        "trials",
        "arrays",
    ),
)}


def admissible(theta: Fraction, theta_prime: Fraction) -> bool:
    """The six probe classes {0, t, t', 2t, 2t', t+t'} are distinct mod 2
    (in units of pi), and t is neither 0 nor pi."""
    classes = (0, theta, theta_prime, 2 * theta, 2 * theta_prime, theta + theta_prime)
    return len({Fraction(c) % 2 for c in classes}) == 6 and theta % 2 not in (0, 1)


def _angle(rng: random.Random) -> Fraction:
    low, high = DENOMINATORS
    while True:
        q = rng.randint(low, high)
        angle = Fraction(rng.randrange(1, 2 * q), q)
        if low <= angle.denominator <= high:
            return angle


def draw_angles(rng: random.Random) -> tuple:
    while True:
        theta, theta_prime = _angle(rng), _angle(rng)
        if admissible(theta, theta_prime):
            return theta, theta_prime


def _values(rng: random.Random, n: int, low: float, high: float) -> list:
    return [round(rng.uniform(low, high), 6) for _ in range(n)]


def _source(rng: random.Random) -> dict:
    return {"p1": round(rng.uniform(0.05, 0.3), 6),
            "p2": round(rng.uniform(0.01, 0.1), 6),
            "f0": round(rng.uniform(0.55, 0.95), 6)}


def make_op(workload: str, seed: int, index: int) -> dict:
    """Inputs of operation ``index``; the same arguments give the same inputs."""
    w = WORKLOADS[workload]
    kind = w.kind(index)
    rng = random.Random(f"{workload}:{seed}:{index}")
    op = {"kind": kind, "index": index}
    if kind.startswith("sweep_stage1"):
        n1, n2, n3 = STAGE1_GRID
        op.update(variant=kind.rsplit("_", 1)[1],
                  p1=_values(rng, n1, 0.01, 0.3),
                  p2=_values(rng, n2, 0.0005, 0.05),
                  f0=_values(rng, n3, 0.55, 0.99))
    elif kind == "sweep_stage2":
        op.update(F=_values(rng, STAGE2_FIDELITIES, 0.55, 0.99), rounds=STAGE2_ROUNDS)
    elif kind == "study":
        theta, theta_prime = draw_angles(rng)
        op.update(theta=theta, theta_prime=theta_prime, F=round(rng.uniform(0.55, 0.99), 6),
                  **_source(rng))
    else:
        op["pipeline"] = kind[len("mc_"):]
        op["params"] = (_source(rng) if op["pipeline"] == "stage1"
                        else {"F": round(rng.uniform(0.55, 0.99), 6)})
        op.update(trials=MC_TRIALS, seed=rng.randrange(2**32))
    return op


def points(op: dict) -> int:
    """Units of work in one operation: grid points, studies or MC trials."""
    if op["kind"].startswith("sweep_stage1"):
        return len(op["p1"]) * len(op["p2"]) * len(op["f0"])
    if op["kind"] == "sweep_stage2":
        return len(op["F"]) * op["rounds"]
    if op["kind"] == "study":
        return 1
    return op["trials"]
