"""The GP engine against the plain ``Node`` reference loop (``gp_reference``).

Both implementations run from the same seed on the same host; their
results must agree exactly: the expression, the fitness float (compared
through ``repr``) and the number of generations run.  The cases cover the
branches the engine's random draws depend on — the population size on
both sides of the threshold where ``random.Random.sample`` switches from
its pool to its set strategy, tournament sizes on both sides of 5, one to
three variables — and the options that change the fitness path.  The
reference scores every tree afresh, so the engine's fitness cache, which
is always on, is checked to change no result, fresh or already filled.
"""

import random
from dataclasses import replace
from typing import Optional

import pytest

from repro.core.gp import FUNCTION_SET, FitnessCache, GeneticProgrammer, GpConfig

from .gp_reference import reference_fit


def _dataset(seed: int, n_variables: int, n_samples: int):
    rng = random.Random(seed)
    xs = [
        tuple(round(rng.uniform(-20.0, 60.0), rng.choice((0, 1, 3))) for __ in range(n_variables))
        for __ in range(n_samples)
    ]
    coefficients = [rng.uniform(-3.0, 3.0) for __ in range(n_variables)]
    shape = rng.randrange(3)
    ys = []
    for x in xs:
        if shape == 0:
            value = sum(c * v for c, v in zip(coefficients, x))
        elif shape == 1:
            value = coefficients[0] * x[0] * x[-1] + 4.0
        else:
            value = coefficients[0] * x[0] ** 2 - x[-1]
        ys.append(value + rng.gauss(0.0, 0.5) * (rng.random() < 0.3))
    if n_variables == 1 and rng.random() < 0.5:
        xs = [x[0] for x in xs]  # the engine accepts a flat 1-D sample list too
    return xs, ys


def _random_config(seed: int) -> GpConfig:
    rng = random.Random(seed * 7919 + 1)
    names = list(FUNCTION_SET)
    rng.shuffle(names)
    return GpConfig(
        population_size=rng.choice((20, 40, 84, 85, 86, 120)),
        generations=rng.randint(1, 4),
        tournament_size=rng.choice((2, 3, 5, 6, 7, 9)),
        crossover_prob=rng.uniform(0.3, 0.8),
        subtree_mutation_prob=rng.uniform(0.0, 0.2),
        point_mutation_prob=rng.uniform(0.0, 0.2),
        constant_mutation_prob=rng.uniform(0.0, 0.2),
        max_depth=rng.randint(2, 6),
        init_depth=rng.randint(1, 4),
        const_range=rng.choice((1.0, 10.0, 100.0)),
        parsimony=rng.choice((0.0, 1e-3, 0.05)),
        fitness_threshold=rng.choice((0.0, 5e-3, 0.5)),
        function_names=tuple(names[: rng.randint(1, len(names))]),
        seed=rng.randrange(1 << 30),
        linear_scaling=rng.random() < 0.7,
    )


def _assert_matches_reference(
    xs, ys, config: GpConfig, cache: Optional[FitnessCache] = None
) -> None:
    engine = GeneticProgrammer(config, cache=cache).fit(xs, ys)
    reference = reference_fit(xs, ys, config)
    assert engine.expression == reference.expression
    assert repr(engine.fitness) == repr(reference.fitness)
    assert engine.generations_run == reference.generations_run


@pytest.mark.parametrize("population_size", [20, 84, 85, 86, 300])
@pytest.mark.parametrize("tournament_size", [3, 7])
def test_tournament_branches(population_size, tournament_size):
    """Sizes 84-86 straddle ``sample``'s pool/set switch for a tournament of
    7 (85); a tournament of 3 switches at 21, which size 20 sits under."""
    xs, ys = _dataset(population_size + tournament_size, 2, 30)
    config = GpConfig(
        population_size=population_size,
        tournament_size=tournament_size,
        generations=3,
        seed=population_size,
    )
    _assert_matches_reference(xs, ys, config)


@pytest.mark.parametrize("n_variables", [1, 2, 3])
@pytest.mark.parametrize("linear_scaling", [True, False])
@pytest.mark.parametrize("shared_cache", [True, False])
def test_options_and_variables(n_variables, linear_scaling, shared_cache):
    """With ``shared_cache`` the engine reuses a cache that a fit under
    another seed has filled, as the restart attempts of one ESV share one."""
    xs, ys = _dataset(10 * n_variables + linear_scaling, n_variables, 25)
    config = GpConfig(
        population_size=60,
        generations=4,
        linear_scaling=linear_scaling,
        seed=n_variables,
    )
    cache = None
    if shared_cache:
        cache = FitnessCache()
        GeneticProgrammer(replace(config, seed=config.seed + 7919), cache=cache).fit(xs, ys)
        assert len(cache)
    _assert_matches_reference(xs, ys, config, cache)


def test_zero_threshold_runs_every_generation():
    xs, ys = _dataset(3, 2, 40)
    config = GpConfig(population_size=50, generations=5, fitness_threshold=0.0, seed=11)
    _assert_matches_reference(xs, ys, config)
    assert GeneticProgrammer(config).fit(xs, ys).generations_run == 5


def test_default_config():
    xs, ys = _dataset(8, 2, 60)
    _assert_matches_reference(xs, ys, GpConfig(generations=4, seed=8))


def test_small_datasets_skip_trimming():
    """Fewer than ten samples take the untrimmed fitness branch."""
    for seed, n_samples in ((1, 3), (2, 9), (3, 10)):
        xs, ys = _dataset(seed, 1, n_samples)
        config = GpConfig(population_size=40, generations=3, seed=seed)
        _assert_matches_reference(xs, ys, config)


@pytest.mark.parametrize("seed", range(24))
def test_random_configs(seed):
    rng = random.Random(seed)
    xs, ys = _dataset(seed, rng.randint(1, 3), rng.choice((6, 12, 30)))
    _assert_matches_reference(xs, ys, _random_config(seed))


def test_inline_draw_matches_randbelow():
    """The engine draws ``randbelow(n)`` inline as the rejection loop
    ``getrandbits(n.bit_length())`` until below ``n``; that must be the
    running interpreter's own ``Random._randbelow``, draw for draw."""
    for n in range(1, 1025):
        library = random.Random(n)
        inline = random.Random(n)
        getrandbits = inline.getrandbits
        bits = n.bit_length()
        for __ in range(4):
            value = getrandbits(bits)
            while value >= n:
                value = getrandbits(bits)
            assert value == library._randbelow(n)
        assert inline.getstate() == library.getstate()
