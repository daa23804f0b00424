"""The baseline's mean spend per round, held to LEACH's closed form.

``expected_round_spend`` derives a round's spend from the radio model alone,
so this is the one check of the energy totals that does not compute the model
a second way. It reads the session sweeps, so it costs no run of its own.

The band comes from the formula's stated approximations, each bounded here
before the test was first run:

- Circular clusters. Their mean squared member distance, A / (2 pi k), is
  about the least any k heads can give (hexagonal cells: 0.1604 A / k, against
  0.1592 A / k). Heads at random points give about A / (pi k) in the open
  plane, twice it, and the field's edges add more. The field term is taken to
  lie between 1 and 3 times the formula's.
- Member links past the ~87.7 m crossover, priced at d^2: an underestimate.
  Such links are rare in a 100 m field, and the factor 3 above covers them.
- Jensen on 1/k: evaluated at the mean head count, the field term's
  (n - k) / k is at most its mean over rounds. Head counts vary about as a
  binomial's, so the excess is about var(k) / k^2 <= 1 / k: at most 15% at
  k = 10. With the factor 3 above, the field term lies within 1 to 3.45
  times the formula's.
- Sampling. The member and reception terms are linear in k, so exact at the
  mean head count. A node heads exactly once an epoch and 1500 rounds are
  150 whole epochs, so the mean head send is k times the mean of the direct
  costs of the 20 x 100 placed nodes: three standard errors of that mean,
  from the field's own distribution of costs, either way.

A case outside the band is a finding about the model or the formula, not a
reason to move the band.
"""

import math

import pytest

from helpers import expected_round_spend, fc_link_costs


@pytest.mark.parametrize("sweep", ["default_sweep", "far_fc_sweep"])
def test_baseline_round_spend_meets_closed_form(request, sweep):
    runs = request.getfixturevalue(sweep)["baseline"]
    config = runs[0].config
    assert all(run.final_alive == config.nodes for run in runs)  # the formula has no deaths
    rounds = [o for run in runs for o in run.outcomes if o.cluster_heads.size]
    k = math.fsum(o.cluster_heads.size for o in rounds) / len(rounds)
    spend = math.fsum(o.energy_spent for o in rounds) / len(rounds)
    want = expected_round_spend(config, k)
    area = config.field_width * config.field_height
    field = (config.nodes - k) * config.energy.e_fs * area / (2 * math.pi * k)
    noise = 3 * k * float(fc_link_costs(config).std()) / math.sqrt(len(runs) * config.nodes)
    low, high = want - noise, want + 2.45 * field + noise
    print(f"EXPECTED SPEND {sweep}: {spend:.6e} J a round against {want:.6e} J "
          f"({spend / want - 1:+.2%}) at k = {k:.3f}; band {low:.6e} to {high:.6e}")
    assert low <= spend <= high
