import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

from crwsnsim import Position, ScenarioConfig, run_simulation

SWEEP_SEEDS = tuple(range(20))

SWEEP_VARIANTS = {
    "baseline": ("baseline", "nonuniform"),
    "proposed_uniform": ("proposed", "uniform"),
    "proposed_nonuniform": ("proposed", "nonuniform"),
}

# The README's far-fusion-centre example: every head is at least 300 m from
# the centre, beyond the ~87.7 m crossover distance, so a relay hop can pay.
FAR_FC_POSITION = Position(50.0, 400.0)


def _sweep(**overrides):
    """Run every variant over ``SWEEP_SEEDS``; other parameters at their defaults.

    The runs are independent and seeded, so they run in forked worker
    processes, one per usable CPU, and come back in submission order.
    """
    configs = {
        name: [
            ScenarioConfig(protocol=protocol, clustering=clustering, rng_seed=seed, **overrides)
            for seed in SWEEP_SEEDS
        ]
        for name, (protocol, clustering) in SWEEP_VARIANTS.items()
    }
    runs = [config for variant in configs.values() for config in variant]
    workers = min(len(os.sched_getaffinity(0)), len(runs))
    with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
        results = iter(pool.map(run_simulation, runs))
        return {name: [next(results) for _ in variant] for name, variant in configs.items()}


@pytest.fixture(scope="session")
def default_sweep():
    """All three protocol variants over 20 paired seeds at the defaults.

    Shared session-wide: the acceptance criteria and the paired-seed CLI
    checks all read from this one 60-run sweep.
    """
    return _sweep()


@pytest.fixture(scope="session")
def far_fc_sweep():
    """The same 60 paired runs with the fusion centre at ``FAR_FC_POSITION``.

    Acceptance criteria 1 and 2 read it: there the head-to-centre links are
    in the multipath regime, where the documented radio model lets a relay
    hop save energy.
    """
    return _sweep(fc_position=FAR_FC_POSITION)
