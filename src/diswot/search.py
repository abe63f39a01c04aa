"""Constrained evolutionary search and a random-search baseline.

The loop keeps a fixed-size population of scored candidates. Each iteration
samples a pool, mutates a parent drawn from the pool's top-k, and, if the
child satisfies the space's constraints, scores it, inserts it, and evicts
the globally worst member. Constraint-violating children consume the
iteration without insertion.

The initial population is a random search at budget population_size, so
evolve and random search at equal seed share their first draws.

Determinism: loop decisions draw from one stream keyed by the master seed;
every candidate gets its own stream keyed by (master_seed, serial): random
draw i by serial i, and the child of iteration i by population_size + i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .arch import ArchDescriptor, SearchSpace, arch_id, mutate
from .network import sample_random, satisfies_constraints
from .rng import stream

# Loop-decision stream id, far above any candidate serial.
_LOOP_STREAM = 1 << 63

# Maps a descriptor to a score; higher is better.
Fitness = Callable[[ArchDescriptor], float]


@dataclass(frozen=True)
class EvoConfig:
    population_size: int
    max_iterations: int
    sample_ratio: float
    topk: int
    master_seed: int = 0

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.sample_ratio <= 1:
            raise ValueError(f"sample_ratio must be in (0, 1], got {self.sample_ratio}")
        if not 1 <= self.topk <= self.pool_size:
            raise ValueError(
                f"topk must be in [1, ceil(sample_ratio * population_size)] = [1, {self.pool_size}],"
                f" got {self.topk}"
            )

    @property
    def pool_size(self) -> int:
        return math.ceil(self.sample_ratio * self.population_size)


@dataclass
class SearchState:
    population: list[tuple[ArchDescriptor, float]]
    best: tuple[ArchDescriptor, float]
    evaluations: int
    log: list[dict] = field(default_factory=list)


def get_topk(pool: list[tuple[ArchDescriptor, float]], k: int) -> list[tuple[ArchDescriptor, float]]:
    """The k highest-scoring members; ties keep earlier pool order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted(pool, key=lambda member: -member[1])
    return ranked[:k]


def _log_record(iteration: int, best: tuple[ArchDescriptor, float], evaluations: int) -> dict:
    return {
        "iter": iteration,
        "best_score": best[1],
        "best_arch": arch_id(best[0]),
        "evals": evaluations,
    }


def evolve(space: SearchSpace, fitness: Fitness, cfg: EvoConfig) -> SearchState:
    """Run exactly cfg.max_iterations evolution steps; fully seeded."""
    loop_rng = stream(cfg.master_seed, _LOOP_STREAM)
    seeded = random_search(space, fitness, cfg.population_size, cfg.master_seed)
    population, best, evaluations = seeded.population, seeded.best, seeded.evaluations
    log: list[dict] = []

    for iteration in range(cfg.max_iterations):
        picks = loop_rng.choice(len(population), size=cfg.pool_size, replace=False)
        picks.sort()
        pool = [population[int(i)] for i in picks]
        top = get_topk(pool, cfg.topk)
        parent = top[int(loop_rng.integers(len(top)))]

        child = mutate(parent[0], space, stream(cfg.master_seed, cfg.population_size + iteration))

        if satisfies_constraints(child, space):
            score = fitness(child)
            evaluations += 1
            population.append((child, score))
            worst = min(range(len(population)), key=lambda i: population[i][1])
            population.pop(worst)
            if score > best[1]:
                best = (child, score)

        log.append(_log_record(iteration, best, evaluations))

    return SearchState(population, best, evaluations, log)


def random_search(space: SearchSpace, fitness: Fitness, budget: int, seed: int = 0) -> SearchState:
    """budget independent constraint-satisfying draws; keep the first argmax."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    population: list[tuple[ArchDescriptor, float]] = []
    log: list[dict] = []
    best: tuple[ArchDescriptor, float] | None = None
    for serial in range(budget):
        desc = sample_random(space, stream(seed, serial))
        score = fitness(desc)
        population.append((desc, score))
        if best is None or score > best[1]:
            best = (desc, score)
        log.append(_log_record(serial, best, serial + 1))
    return SearchState(population, best, budget, log)
