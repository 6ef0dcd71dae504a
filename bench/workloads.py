"""The benchmark's workloads: seeded streams of `figulat verify`
invocations, one route per workload.

A run is rounds that all hold the same slots, and one anchor op. The
seed orders each round and draws each slot's inputs within the slot's size
class. A run measures a fixed amount of work: the anchor and as many
rounds as fill the requested seconds at their nominal time, measured at
the seed commit on 2 CPUs. Runs with different seeds, and runs of a parent
commit and of a change, therefore see the same mix of op sizes.

The slots are sized from measurements. On a shared 2-CPU machine one op
can vary by 30-46% and interpreter start-up drifts by 15-25% between runs,
so the median op of every workload does at least ~0.35 s of work, and the
median and the tail op (ten ops below the slowest) each fall inside a
class of ops of similar cost, not on the edge between two classes.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

GOLDEN = (5 ** 0.5 - 1) / 2

DEFERRED = (
    "figulat audit is not a workload yet: it is the only caller of oracles, "
    "which are reference code that must stay naive, and with its default "
    "flags it exits 3 after about 13 s (ROADMAP item 4). Add it in its own "
    "benchmark change once that is fixed."
)


@dataclass(frozen=True)
class Op:
    """One `figulat verify` call over inclusive p and n ranges."""
    route: str
    p: tuple[int, int]
    n: tuple[int, int]

    def argv(self) -> list[str]:
        return [
            "verify", "--p", _range_text(self.p), "--n", _range_text(self.n),
            "--route", self.route, "--format", "json-lines",
        ]

    def cells(self) -> list[tuple[int, int]]:
        return [
            (p, n)
            for p in range(self.p[0], self.p[1] + 1)
            for n in range(self.n[0], self.n[1] + 1)
        ]

    def text(self) -> str:
        return " ".join(self.argv())


def _range_text(bounds: tuple[int, int]) -> str:
    lo, hi = bounds
    return str(lo) if lo == hi else f"{lo}..{hi}"


def cell(route: str, p: int, n: int) -> Op:
    return Op(route, (p, p), (n, n))


class Spread:
    """Uniform draws in [0, 1) from a golden-ratio sequence with a seeded
    start: every prefix covers [0, 1) evenly, so the share of draws in any
    interval barely depends on the seed."""

    def __init__(self, rng: random.Random):
        self.u = rng.random()

    def draw(self) -> float:
        self.u = (self.u + GOLDEN) % 1.0
        return self.u


Slot = Callable[[int], Op]   # round index -> op


@dataclass(frozen=True)
class Workload:
    why: str
    anchor: Op
    slots: Callable[[random.Random], list[Slot]]
    anchor_s: float   # nominal seconds of the anchor
    round_s: float    # nominal seconds of one round

    def rounds(self, seconds: float) -> int:
        return max(1, round((seconds - self.anchor_s) / self.round_s))

    def ops(self, seed: int, seconds: float) -> list[Op]:
        """`rounds(seconds)` rounds in seeded order, with the anchor after
        the first half of them. A run's speed drifts with the machine's
        load over tens of seconds; the anchor in the middle spreads the
        round ops, which set the median and the tail, over the whole run."""
        rng = random.Random(seed)
        slots = self.slots(rng)
        rounds = self.rounds(seconds)
        ops = []
        for index in range(rounds):
            if index == rounds // 2:
                ops.append(self.anchor)
            round_ops = [slot(index) for slot in slots]
            rng.shuffle(round_ops)
            ops += round_ops
        return ops


def geometric_slots(rng: random.Random) -> list[Slot]:
    def small(_: int) -> Op:
        return cell("geometric", 5, rng.randint(1, 5))

    def fixed(p: int, n: int) -> Slot:
        return lambda _: cell("geometric", p, n)

    def heavy(index: int) -> Op:
        return cell("geometric", *((6, 3), (5, 8))[index % 2])

    return [
        small, small, small,                    # ~0.1-0.25 s
        fixed(6, 1), fixed(5, 6), fixed(6, 2),  # ~0.35-0.45 s: the median
        fixed(6, 3), fixed(5, 8), heavy,        # ~0.7-0.75 s: the tail
    ]


def pointwise_slots(rng: random.Random) -> list[Slot]:
    def small(_: int) -> Op:
        p = rng.randint(1, 4)
        return cell("pointwise", p, max(1, round(POINTWISE_MAX_N[p] ** rng.random())))

    def fixed(p: int, n: int) -> Slot:
        return lambda _: cell("pointwise", p, n)

    def heavy(index: int) -> Op:
        return cell("pointwise", *((5, 4), (6, 2))[index % 2])

    return [
        small, small,                   # ~0.1-0.3 s
        *[fixed(5, 3)] * 4,             # ~0.5 s: the median and the tail
        heavy,                          # ~1.8 s
    ]


# Largest side with n^p <= 1024, for the cube scans of the pointwise route.
POINTWISE_MAX_N = {1: 1024, 2: 32, 3: 10, 4: 5, 5: 4, 6: 3}


def algebraic_slots(rng: random.Random) -> list[Slot]:
    sizes, sweeps = Spread(rng), Spread(rng)

    def single(_: int) -> Op:
        p = max(1, int(1024 ** sizes.draw()))
        lo = max(1, int(10 ** (6 * rng.random())))
        return Op("algebraic", (p, p), (lo, lo + rng.randint(0, 4)))

    def sweep(_: int) -> Op:
        return Op("algebraic", (1, 200 + int(31 * sweeps.draw())), (1, 3))

    # Singles take ~0.1-0.3 s and sweeps ~0.5 s; the median and the tail
    # are sweeps. The 20 singles of a 26 s run hold a P >= 500 for every
    # seed (a test checks seeds 0-299).
    return [single] * 4 + [sweep] * 6


WORKLOADS = {
    "geometric": Workload(
        why=(
            "face and lattice-point generation. Anchor p=7 n=1: enumerate_facets "
            "builds 322,560 chain expressions for 47,293 faces. Rounds of p=5 and "
            "p=6 cells up to n=8 and n=3, where enumerate_points takes over; p=7 "
            "at n>1 would repeat the same face enumeration. combinatorics is not "
            "called."
        ),
        anchor=cell("geometric", 7, 1), slots=geometric_slots,
        anchor_s=4.9, round_s=3.8,
    ),
    "pointwise": Workload(
        why=(
            "face membership. Anchor p=6 n=3 (3.4M facet_contains calls), the "
            "target cell of ROADMAP item 3; rounds of cube scans with n^p <= 1024 "
            "at p=1..6, mostly p=5 n=3. facets runs only through the cached "
            "all_facets_by_codimension; enumerate_points is never called."
        ),
        anchor=cell("pointwise", 6, 3), slots=pointwise_slots,
        anchor_s=12.2, round_s=3.9,
    ),
    "algebraic": Workload(
        why=(
            "closed forms only. Anchor: the ascending sweep --p 1..500 --n 1..3, "
            "whose Stirling cache sets the memory peak, and which passes P~495 "
            "where cold single cells crash. Rounds of 4 single cells, P "
            "log-uniform up to 1024 and n up to 10^6, that fill the cache cold "
            "(their crashes are counted, not trimmed), and 6 sweeps 1..P with P "
            "in 200..230. facets and lattice are bypassed."
        ),
        anchor=Op("algebraic", (1, 500), (1, 3)), slots=algebraic_slots,
        anchor_s=7.3, round_s=4.1,
    ),
}
