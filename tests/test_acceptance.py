"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 2 compare the energy the network consumes over 1500 rounds,
the paper's metric, as the mean of ``fsum(energy_spent)`` over the 20 paired
seeds of ``far_fc_sweep``: the default scenario with the fusion centre at
(50, 400), 300 m beyond the field. Under the first-order radio model a relay
hop can lower total spend only when head-to-centre links are longer than the
~87.7 m crossover distance. With the fusion centre at the field centre every
such link is at most 70.7 m, where ``e_fs * d**2 <= e_rx``, so relaying never
pays and the tree's k-bit tables cost more than the baseline's single bit.
Residual energy is no measure there either: the baseline spends about 0.03%
of the 50 J budget, so no protocol could reach a residual ratio above
1.0004. The PASS/FAIL lines of criteria 1 and 2 also print the
centre-fusion-centre consumption ratio, which nothing asserts on.

- Criterion 1 passes: the baseline consumes ~1.47x what proposed-uniform
  does at (50, 400) (0.544x at the centre).
- Criterion 2 fails: nonuniform consumes ~0.97x what uniform does at
  (50, 400) (1.05x at the centre), short of 1.10 in either scenario. The
  paper says the routing saves energy under both clustering strategies but
  does not rank them, so the target stays until its full text settles it.
- Criterion 3 fails: at the defaults no node can die (the most-drained node
  spends under 0.1% of its battery), so the alive ratio is 1.0 by
  construction. Where nodes do die (5 mJ batteries, fusion centre at
  (50, 400)) the model reverses the claim, because the tree's root carries
  the whole table over the long haul every round. The documents make no
  survival claim that settles whether the test or the model is at fault.

Criteria 4-8 pass.
"""

import math

import numpy as np

from crwsnsim import (
    EnergyParams,
    elect_cluster_heads,
    link_cost,
)
from crwsnsim.cli import main

from conftest import SWEEP_VARIANTS
from helpers import distance_matrix, min_spanning_weight, nodes_at, prim_edges


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _mean_consumption(runs):
    """Mean over runs of the energy the whole network spent in one run."""
    return float(np.mean([math.fsum(o.energy_spent for o in r.outcomes) for r in runs]))


def _consumption_ratio(sweep, numerator, denominator):
    return _mean_consumption(sweep[numerator]) / _mean_consumption(sweep[denominator])


def _mean_first_death(runs):
    rounds = runs[0].config.rounds
    return float(
        np.mean(
            [
                r.first_death_round if r.first_death_round is not None else rounds + 1
                for r in runs
            ]
        )
    )


def test_criterion_1_energy_ratio(default_sweep, far_fc_sweep):
    config = far_fc_sweep["baseline"][0].config
    nearest = config.fc_y - config.field_height
    assert nearest > config.energy.crossover_distance, (
        f"the field's nearest point is {nearest} m from the fusion centre, inside "
        f"the free-space regime where a relay hop cannot save energy"
    )
    assert any(
        (outcome.relay_to >= 0).any()
        for result in far_fc_sweep["proposed_uniform"]
        for outcome in result.outcomes
    ), "no proposed-uniform head ever relayed, so the tree was never exercised"

    baseline = _mean_consumption(far_fc_sweep["baseline"])
    uniform = _mean_consumption(far_fc_sweep["proposed_uniform"])
    ratio = baseline / uniform
    centre = _consumption_ratio(default_sweep, "baseline", "proposed_uniform")
    ok = ratio >= 1.15
    report(
        1,
        ok,
        f"fusion centre at (50, 400): mean 1500-round consumption baseline "
        f"{baseline:.6f} J vs proposed-uniform {uniform:.6f} J, ratio {ratio:.4f} "
        f"(target >= 1.15); at the field centre the ratio is {centre:.4f}",
    )
    assert ok, f"baseline/proposed-uniform consumption ratio {ratio:.4f} < 1.15"


def test_criterion_2_uniform_vs_nonuniform(default_sweep, far_fc_sweep):
    uniform = _mean_consumption(far_fc_sweep["proposed_uniform"])
    nonuniform = _mean_consumption(far_fc_sweep["proposed_nonuniform"])
    ratio = nonuniform / uniform
    centre = _consumption_ratio(default_sweep, "proposed_nonuniform", "proposed_uniform")
    ok = ratio >= 1.10
    report(
        2,
        ok,
        f"fusion centre at (50, 400): mean 1500-round consumption nonuniform "
        f"{nonuniform:.6f} J vs uniform {uniform:.6f} J, ratio {ratio:.4f} "
        f"(target >= 1.10); at the field centre the ratio is {centre:.4f}",
    )
    assert ok, (
        f"nonuniform/uniform consumption ratio {ratio:.4f} < 1.10 at (50, 400) "
        f"and {centre:.4f} at the field centre"
    )


def test_criterion_3_survival(default_sweep):
    baseline_alive = float(np.mean([r.final_alive for r in default_sweep["baseline"]]))
    uniform_alive = float(np.mean([r.final_alive for r in default_sweep["proposed_uniform"]]))
    alive_ratio = uniform_alive / baseline_alive
    fd_baseline = _mean_first_death(default_sweep["baseline"])
    fd_uniform = _mean_first_death(default_sweep["proposed_uniform"])
    runs = default_sweep["baseline"] + default_sweep["proposed_uniform"]
    deaths = (
        f"a node died in {sum(r.first_death_round is not None for r in runs)} "
        f"of {len(runs)} runs"
    )
    ok = alive_ratio >= 2.0 and fd_uniform > fd_baseline
    report(
        3,
        ok,
        f"mean round-1500 alive uniform {uniform_alive:.2f} vs baseline "
        f"{baseline_alive:.2f} (ratio {alive_ratio:.4f}, target >= 2); mean "
        f"first-death round uniform {fd_uniform:.1f} vs baseline {fd_baseline:.1f} "
        f"(runs with no deaths counted as 1501); {deaths}",
    )
    assert ok, (
        f"alive ratio {alive_ratio:.4f} (target >= 2), first death "
        f"{fd_uniform:.1f} vs {fd_baseline:.1f} (must be strictly later); {deaths}"
    )


def test_criterion_4_election_calibration():
    ids = np.arange(100)
    nodes = nodes_at(ids % 10, ids // 10)
    rng = np.random.default_rng(2024)
    rounds = 1000
    epochs = rounds // 10
    served = np.zeros((100, epochs), dtype=int)
    head_counts = []
    for r in range(rounds):
        heads = elect_cluster_heads(nodes, 0.1, r, "nonuniform", 10, rng)
        head_counts.append(len(heads))
        for head in heads:
            served[head, r // 10] += 1
    exact = bool(np.all(served == 1))
    mean_count = float(np.mean(head_counts))
    ok = exact and 9.0 <= mean_count <= 11.0
    report(
        4,
        ok,
        f"each of 100 nodes served exactly once per 10-round epoch over "
        f"{epochs} epochs: {exact}; mean per-round head count {mean_count:.3f} "
        f"(target 10 +/- 1)",
    )
    assert ok


def test_criterion_5_mst_oracle():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(500):
        size = int(rng.integers(3, 7))
        pts = rng.uniform(0.0, 100.0, size=(size, 2))
        greedy = sum(w for _, _, w in prim_edges(pts[:, 0], pts[:, 1]))
        oracle = min_spanning_weight(distance_matrix(pts[:, 0], pts[:, 1]))
        worst = max(worst, abs(greedy - oracle) / oracle)
    ok = worst <= 1e-9
    report(
        5,
        ok,
        f"500 random 3-6 vertex graphs: max relative gap between greedy tree "
        f"weight and exhaustive minimum {worst:.3e} (target <= 1e-9)",
    )
    assert ok


def test_criterion_6_link_cost_units():
    params = EnergyParams()
    d_o = params.crossover_distance
    checks = [
        (10 * link_cost(params, 0.0), 5.5e-7),
        (link_cost(params, 100.0), 1.85e-7),
        (link_cost(params, d_o), 55e-9 + 10e-12 * (10e-12 / 0.0013e-12)),
    ]
    unit_ok = all(
        math.isclose(got, expected, rel_tol=1e-12) for got, expected in checks
    )
    below = link_cost(params, d_o - 1e-6)
    above = link_cost(params, d_o + 1e-6)
    continuity_ok = math.isclose(below, above, rel_tol=1e-6)
    ok = unit_ok and continuity_ok
    report(
        6,
        ok,
        f"three hand-computed link costs match to 1e-12 relative: {unit_ok}; "
        f"continuity at the crossover distance within 1e-6 relative: "
        f"{continuity_ok}",
    )
    assert ok


def test_criterion_7_conservation(default_sweep):
    violations = 0
    worst_rel = 0.0
    for name in SWEEP_VARIANTS:
        for result in default_sweep[name][:5]:
            assert len(result.outcomes) == 1500  # no extinction at the defaults
            residuals = np.array([o.total_residual for o in result.outcomes])
            alive = np.array([o.alive for o in result.outcomes])
            spent = np.cumsum([o.energy_spent for o in result.outcomes])
            drained = result.initial_energy - residuals
            rel = np.abs(drained - spent) / spent
            worst_rel = max(worst_rel, float(rel.max()))
            violations += int(np.sum(rel > 1e-9))
            violations += int(np.sum(np.diff(residuals) > 0.0))
            violations += int(np.sum(np.diff(alive) > 0))
    ok = violations == 0
    report(
        7,
        ok,
        f"5 seeds x 1500 rounds x 3 variants: {violations} conservation or "
        f"monotonicity violations (worst conservation error {worst_rel:.3e} "
        f"relative, target <= 1e-9)",
    )
    assert ok


def test_criterion_8_determinism(tmp_path):
    cases = [
        ["run", "--protocol", "baseline", "--seed", "0", "--rounds", "1500"],
        [
            "run", "--protocol", "proposed", "--clustering", "uniform",
            "--k", "10", "--seed", "0", "--rounds", "300",
        ],
    ]
    ok = True
    for i, args in enumerate(cases):
        first = tmp_path / f"first_{i}.csv"
        second = tmp_path / f"second_{i}.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        ok = ok and first.read_bytes() == second.read_bytes()
    report(8, ok, "rerunning each (config, seed) produced byte-identical CSV")
    assert ok
