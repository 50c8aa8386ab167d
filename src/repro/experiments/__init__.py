"""Experiment harnesses reproducing the paper's evaluation (§4).

Each scenario module builds its cluster and load, warms up, and hands the
rest to the shared run in :mod:`repro.experiments.common`
(``migrate_and_settle`` runs the migration plan and settles,
``measure`` builds the :class:`ExperimentResult`); the benchmark targets
render the results as the corresponding table or figure:

- :mod:`repro.experiments.consolidation` — cluster consolidation under
  hybrid workloads A and B (Table 2, Figures 6 and 7);
- :mod:`repro.experiments.load_balancing` — hotspot rebalancing (Figure 8);
- :mod:`repro.experiments.scale_out` — TPC-C scale-out (Figure 9);
- :mod:`repro.experiments.high_contention` — hot-shard migration with CPU
  accounting (Figure 10);
- :mod:`repro.experiments.geo` — cross-AZ migration over a contended trunk;
- every result's ``latency_increase`` — migration-induced latency
  increase (Table 3);
- :mod:`repro.experiments.capability` — classifies a measured hybrid-A run
  into its Table 1 capability row;
- :mod:`repro.experiments.chaos` and :mod:`repro.experiments.failover` —
  the supervised fault soaks, one run (:func:`~repro.experiments.chaos.run_soak`).
"""

from repro.experiments import registry
from repro.experiments.common import APPROACH_ORDER, ExperimentResult

__all__ = ["APPROACH_ORDER", "ExperimentResult", "registry"]
