"""Weekly additivity: networks synthesized one window at a time sum to
the whole run's network."""

from __future__ import annotations

import repro
from repro.core import synthesize_from_logs
from repro.core.adjacency import sum_partials
from repro.sim import Simulation


class TestStreaming:
    def test_total_equals_whole_synthesis(self, small_pop, two_week_logs):
        # four rank files in batches of two: every week sums two batches
        weeks = [
            synthesize_from_logs(
                two_week_logs,
                small_pop.n_persons,
                w * repro.HOURS_PER_WEEK,
                (w + 1) * repro.HOURS_PER_WEEK,
                batch_size=2,
            )[0]
            for w in range(2)
        ]
        total = sum_partials([net.adjacency for net in weeks], small_pop.n_persons)
        cfg = repro.SimulationConfig(
            scale=small_pop.scale, duration_hours=2 * repro.HOURS_PER_WEEK
        )
        serial = Simulation(small_pop, cfg).run()
        whole, _ = repro.synthesize_network(
            serial.records, small_pop.n_persons, 0, 2 * repro.HOURS_PER_WEEK
        )
        assert (total != whole.adjacency).nnz == 0
