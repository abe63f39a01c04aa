"""Evolutionary loop and random-search baseline tests."""

from dataclasses import replace

import numpy as np
import pytest

from diswot.arch import Constraints, S0Depths, enumerate_s0, s0_space
from diswot.network import count_params, satisfies_constraints
from diswot.search import EvoConfig, evolve, get_topk, random_search


def neg_params_fitness(space):
    def fitness(desc):
        return -float(count_params(desc, space))

    return fitness


def exhaustive_optimum(space, fitness):
    best = None
    for desc in enumerate_s0():
        if not satisfies_constraints(desc, space):
            continue
        score = fitness(desc)
        if best is None or score > best[1]:
            best = (desc, score)
    return best


# ---------------------------------------------------------------------------
# get_topk


def test_topk_stable_tie_break():
    pool = [("a", 3.0), ("b", 1.0), ("c", 3.0), ("d", 2.0)]
    top = get_topk(pool, 2)
    assert [t[0] for t in top] == ["a", "c"]


def test_topk_whole_pool_sorted():
    pool = list(enumerate([1.0, 5.0, 3.0]))
    top = get_topk(pool, 3)
    assert [t[1] for t in top] == [5.0, 3.0, 1.0]


def test_topk_k1_is_argmax():
    pool = list(enumerate([1.0, 5.0, 3.0]))
    assert get_topk(pool, 1)[0][0] == 1


def test_topk_small_pool_returns_all():
    pool = [(0, 1.0)]
    assert len(get_topk(pool, 10)) == 1


# ---------------------------------------------------------------------------
# EvoConfig


def test_evo_config_invariants():
    EvoConfig(population_size=16, max_iterations=10, sample_ratio=0.5, topk=5)
    with pytest.raises(ValueError):
        EvoConfig(population_size=16, max_iterations=10, sample_ratio=0.5, topk=9)
    with pytest.raises(ValueError):
        EvoConfig(population_size=16, max_iterations=0, sample_ratio=0.5, topk=2)
    with pytest.raises(ValueError):
        EvoConfig(population_size=16, max_iterations=5, sample_ratio=1.5, topk=2)
    with pytest.raises(ValueError):
        EvoConfig(population_size=0, max_iterations=5, sample_ratio=0.5, topk=1)


def test_evo_config_pool_size_ceil():
    cfg = EvoConfig(population_size=10, max_iterations=1, sample_ratio=0.45, topk=2)
    assert cfg.pool_size == 5


# ---------------------------------------------------------------------------
# evolve


def test_evolve_finds_exhaustive_optimum():
    space = s0_space()
    fitness = neg_params_fitness(space)
    cfg = EvoConfig(population_size=16, max_iterations=300, sample_ratio=0.5, topk=5, master_seed=0)
    state = evolve(space, fitness, cfg)
    best_desc, best_score = state.best
    want_desc, want_score = exhaustive_optimum(space, fitness)
    assert best_desc == want_desc == S0Depths(1, 1, 1)
    assert best_score == want_score


def test_evolve_history_monotone_and_sized():
    space = s0_space()
    cfg = EvoConfig(population_size=8, max_iterations=50, sample_ratio=0.5, topk=3, master_seed=11)
    state = evolve(space, neg_params_fitness(space), cfg)
    best_scores = [rec["best_score"] for rec in state.log]
    assert len(best_scores) == 50
    assert all(b >= a for a, b in zip(best_scores, best_scores[1:]))
    assert best_scores[-1] == state.best[1]


def test_evolve_determinism():
    space = s0_space()
    cfg = EvoConfig(population_size=8, max_iterations=40, sample_ratio=0.5, topk=3, master_seed=21)
    a = evolve(space, neg_params_fitness(space), cfg)
    b = evolve(space, neg_params_fitness(space), cfg)
    assert a.best[0] == b.best[0]
    assert a.log == b.log
    assert [p[0] for p in a.population] == [p[0] for p in b.population]


def test_evolve_population_size_conserved():
    space = s0_space()
    cfg = EvoConfig(population_size=12, max_iterations=30, sample_ratio=0.5, topk=4, master_seed=3)
    state = evolve(space, neg_params_fitness(space), cfg)
    assert len(state.population) == 12


def test_evolve_constraint_closure():
    space = replace(s0_space(), constraints=Constraints(max_params=400_000))
    cfg = EvoConfig(population_size=10, max_iterations=60, sample_ratio=0.5, topk=3, master_seed=7)
    state = evolve(space, neg_params_fitness(space), cfg)
    for desc, _ in state.population:
        assert count_params(desc, space) <= 400_000


def test_evolve_maximizing_fitness_respects_cap():
    # maximize params under a cap: single-locus mutation plus evict-worst can
    # stall one step short of the constrained optimum (the path there runs
    # through a worse intermediate), so require a top-3 feasible value, not
    # exact optimality
    space = replace(s0_space(), constraints=Constraints(max_params=500_000))

    def fitness(desc):
        return float(count_params(desc, space))

    cfg = EvoConfig(population_size=16, max_iterations=400, sample_ratio=0.5, topk=5, master_seed=13)
    state = evolve(space, fitness, cfg)
    feasible = sorted(
        (count_params(d, space) for d in enumerate_s0() if count_params(d, space) <= 500_000),
        reverse=True,
    )
    assert state.best[1] <= 500_000
    assert state.best[1] >= feasible[2]


def test_evolve_log_records():
    space = s0_space()
    cfg = EvoConfig(population_size=6, max_iterations=10, sample_ratio=0.5, topk=2, master_seed=1)
    state = evolve(space, neg_params_fitness(space), cfg)
    assert len(state.log) == 10
    rec = state.log[0]
    assert set(rec) == {"iter", "best_score", "best_arch", "evals"}
    assert state.log[-1]["best_score"] == state.best[1]


# ---------------------------------------------------------------------------
# random search


def test_random_search_budget_one():
    space = s0_space()
    state = random_search(space, neg_params_fitness(space), budget=1, seed=0)
    assert state.evaluations == 1
    assert len(state.log) == 1
    assert state.best[1] == state.log[0]["best_score"]


def test_random_search_large_budget_finds_optimum():
    space = s0_space()
    state = random_search(space, neg_params_fitness(space), budget=400, seed=2)
    assert state.best[0] == S0Depths(1, 1, 1)


def test_random_search_determinism():
    space = s0_space()
    a = random_search(space, neg_params_fitness(space), budget=50, seed=9)
    b = random_search(space, neg_params_fitness(space), budget=50, seed=9)
    assert a.best[0] == b.best[0]
    assert a.log == b.log


def test_random_search_budget_validation():
    space = s0_space()
    with pytest.raises(ValueError):
        random_search(space, neg_params_fitness(space), budget=0, seed=0)


def test_evolve_seeds_with_random_search():
    # The initial population is the random search at budget population_size,
    # so the paired comparison below shares its first draws.
    space = s0_space()
    score = neg_params_fitness(space)
    for seed in (0, 5):
        evolved, drawn = [], []
        cfg = EvoConfig(population_size=7, max_iterations=5, sample_ratio=0.5, topk=2, master_seed=seed)
        evolve(space, lambda desc: evolved.append(desc) or score(desc), cfg)
        random_search(space, lambda desc: drawn.append(desc) or score(desc), budget=7, seed=seed)
        assert evolved[:7] == drawn
        assert len(evolved) > 7


def test_evolve_beats_or_ties_random_at_equal_budget():
    space = s0_space()
    fitness = neg_params_fitness(space)
    evo_best, rand_best = [], []
    for seed in range(20):
        cfg = EvoConfig(population_size=16, max_iterations=84, sample_ratio=0.5, topk=5, master_seed=seed)
        state = evolve(space, fitness, cfg)
        paired = random_search(space, fitness, budget=state.evaluations, seed=seed)
        evo_best.append(state.best[1])
        rand_best.append(paired.best[1])
    assert np.median(evo_best) >= np.median(rand_best)
