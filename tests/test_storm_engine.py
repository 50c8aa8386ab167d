"""Units for the storm-scale arrival machinery (``repro.workloads.batch``).

:class:`repro.workloads.batch.ArrivalSchedule` is the vectorized population
arrival generator. The properties that make the batch and per-client
execution modes byte-identical are pinned here directly: deterministic draw
order, globally unique strictly increasing arrival instants, counted (never
silent) batch-cap overflow, ramp interpolation and hot-key drift as a pure
rank rotation.
"""

import pytest

from repro.sim.events import At
from repro.sim.kernel import Simulator
from repro.workloads.batch import ArrivalSchedule, PopulationConfig
from repro.workloads.zipf import ZipfGenerator


def _stream(seed=0, label="storm-arrivals"):
    return Simulator(seed=seed).rng(label)


def _schedule(seed=0, population=1000, tick=0.05, cap=64, **config_kwargs):
    config = PopulationConfig(**config_kwargs)
    return ArrivalSchedule(_stream(seed), config, population, tick, cap)


# ----------------------------------------------------------------------
# RNG primitives
# ----------------------------------------------------------------------
def test_poisson_deterministic_and_seeded():
    a = [_stream(7).poisson(3.5) for _ in range(1)][0]
    b = _stream(7).poisson(3.5)
    assert a == b
    assert _stream(8).poisson(3.5) != a or _stream(9).poisson(3.5) != a


def test_poisson_mean_tracks_parameter():
    rng = _stream(0)
    for mean in (0.5, 4.0, 20.0, 200.0):  # crosses the normal-approx cutoff
        draws = [rng.poisson(mean) for _ in range(2000)]
        assert all(x >= 0 for x in draws)
        average = sum(draws) / len(draws)
        assert abs(average - mean) < max(0.2, mean * 0.1)
    assert rng.poisson(0.0) == 0
    assert rng.poisson(-1.0) == 0


def test_zipf_sample_many_matches_repeated_sample():
    zipf = ZipfGenerator(500, 0.99)
    many = zipf.sample_many(_stream(3), 200)
    one_by_one = []
    rng = _stream(3)
    for _ in range(200):
        one_by_one.append(zipf.sample(rng))
    assert many == one_by_one


# ----------------------------------------------------------------------
# ArrivalSchedule
# ----------------------------------------------------------------------
def test_schedule_is_deterministic_per_seed():
    first = [
        (batch.times, batch.clients, batch.keys, batch.reads, batch.values)
        for batch in _schedule(seed=5).ticks(3.0)
    ]
    second = [
        (batch.times, batch.clients, batch.keys, batch.reads, batch.values)
        for batch in _schedule(seed=5).ticks(3.0)
    ]
    assert first == second
    assert any(batch[0] for batch in first), "expected some arrivals"


def test_arrival_times_strictly_increasing_and_bounded():
    schedule = _schedule(seed=1, population=5000, cap=10_000)
    times = []
    for batch in schedule.ticks(2.0):
        times.extend(batch.times)
    assert times, "expected arrivals"
    assert all(0.0 <= t < 2.0 for t in times)
    assert all(b > a for a, b in zip(times, times[1:])), (
        "arrival instants must be globally unique and strictly increasing — "
        "this is what lets batch and per-client dispatch agree on order"
    )


def test_batch_cap_overflow_is_counted_not_silent():
    # Mean ~50 arrivals/tick against a cap of 8: heavy, counted overflow.
    schedule = _schedule(seed=2, population=5000, rate_per_client=0.2, cap=8)
    total = 0
    for batch in schedule.ticks(1.0):
        assert len(batch) <= 8
        total += len(batch)
    assert schedule.capped_arrivals > 0
    assert schedule.generated_arrivals == total


def test_rate_multiplier_piecewise_linear():
    schedule = _schedule(ramps=((1.0, 1.0), (3.0, 5.0), (4.0, 2.0)))
    assert schedule.rate_multiplier(0.0) == 1.0  # clamped before first point
    assert schedule.rate_multiplier(1.0) == 1.0
    assert schedule.rate_multiplier(2.0) == pytest.approx(3.0)  # midpoint
    assert schedule.rate_multiplier(3.5) == pytest.approx(3.5)
    assert schedule.rate_multiplier(9.0) == 2.0  # clamped after last point


def test_flash_crowd_ramp_scales_arrivals():
    flat = _schedule(seed=4, population=4000, cap=100_000)
    crowd = _schedule(
        seed=4, population=4000, cap=100_000, ramps=((0.0, 4.0), (4.0, 4.0))
    )
    flat_count = sum(len(b) for b in flat.ticks(4.0))
    crowd_count = sum(len(b) for b in crowd.ticks(4.0))
    assert crowd_count > 2 * flat_count


def test_hot_key_drift_is_a_rank_rotation():
    still = _schedule(seed=6, num_tuples=1000)
    drifting = _schedule(seed=6, num_tuples=1000, drift_keys_per_sec=40.0)
    t0 = 0.0  # accumulated exactly as ArrivalSchedule.ticks accumulates it
    for a, b in zip(still.ticks(3.0), drifting.ticks(3.0)):
        shift = int(40.0 * t0)
        assert b.keys == [(k + shift) % 1000 for k in a.keys]
        assert b.times == a.times
        assert b.clients == a.clients
        t0 += still.tick


# ----------------------------------------------------------------------
# The At waitable
# ----------------------------------------------------------------------
def test_at_wakes_process_at_exact_absolute_instant():
    sim = Simulator(seed=0)
    log = []

    def proc():
        yield At(0.5)
        log.append(sim.now)
        yield At(0.5 + 0.25)
        log.append(sim.now)

    sim.spawn(proc(), name="at")
    sim.run()
    assert log == [0.5, 0.75]
