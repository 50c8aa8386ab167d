"""Benchmark harness: storm benchmarks and parallel seed sweeps.

- :mod:`repro.bench.network_bench` — contended-network storms and the
  ``cross_az`` pump-share sweep (``BENCH_network.json``);
- :mod:`repro.bench.cluster_bench` — the storm-scale cluster benchmark:
  the batch arrival engine against per-client pacing
  (``BENCH_cluster.json``);
- :mod:`repro.bench.sweep` — seeds x (scenario, approach) fan-out across a
  multiprocessing pool with serial byte-identity verification;
- :mod:`repro.bench.cli` — the ``repro bench`` / ``repro sweep`` wiring.

End-to-end performance is measured by ``e2ebench/``, not here.
"""
