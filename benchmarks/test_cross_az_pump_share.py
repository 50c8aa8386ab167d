"""Cross-AZ migration: the pump share trades foreground dip for copy time.

The paper's copy-speed versus interference trade-off (§3.2, §4): capping
the migration traffic class on the contended inter-AZ trunk shrinks the
foreground throughput dip during the snapshot copy and stretches the copy.
The full-size ``cross_az`` scenario is swept over three shares at seed 0,
and every number is pinned: the scenario is deterministic, so any change
to the network model, the pump or the workload shows up here.
"""

#: pump_share -> (fg_dip txns/s, copy_duration s), seed 0, full size.
_PINNED = {
    1.0: (737.94, 3.0714),
    0.5: (392.68, 4.1452),
    0.25: (116.63, 8.2704),
}


def test_cross_az_pump_share_sweep(benchmark):
    from repro.experiments import registry

    def sweep():
        return {
            share: registry.run("cross_az", approach="remus", seed=0, pump_share=share)
            for share in _PINNED
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for share, result in results.items():
        print(
            "pump_share={:<5} fg_dip {:8.2f} txns/s  copy {:6.4f}s".format(
                share, result.extra["fg_dip"], result.extra["copy_duration"]
            )
        )

    for share, (fg_dip, copy_duration) in _PINNED.items():
        extra = results[share].extra
        assert extra["data_intact"]
        assert round(extra["fg_dip"], 2) == fg_dip
        assert round(extra["copy_duration"], 4) == copy_duration
    dips = [results[share].extra["fg_dip"] for share in _PINNED]
    copies = [results[share].extra["copy_duration"] for share in _PINNED]
    assert dips[0] > dips[1] > dips[2]
    assert copies[0] < copies[1] < copies[2]
