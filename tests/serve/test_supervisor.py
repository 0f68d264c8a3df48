"""Worker-pool tests: parity, crash replay, liveness, breaker, drain.

The fault-tolerance contract under test: a supervised pool of worker
processes serves exactly the bytes the serial enforcer would produce --
through worker crashes, stalls, and restarts -- and when it cannot, it
fails loudly (typed errors, shed load) rather than silently or twice.
"""

import os
import time

import pytest

from repro.core import EnforcerConfig, JitEnforcer
from repro.data import build_dataset
from repro.errors import WorkerCrashed, WorkerPoolUnavailable
from repro.lm import NgramLM
from repro.obs import MetricsRegistry
from repro.rules import domain_bound_rules, paper_rules
from repro.serve import RequestSpec, WorkerPool, supervisor
from repro.serve.types import DONE, FAILED
from repro.testing import (
    CrashingLM,
    kill_worker,
    stall_worker,
    wait_for_sentinel_pid,
)


@pytest.fixture(scope="module")
def setting():
    dataset = build_dataset(
        num_train_racks=4, num_test_racks=1, windows_per_rack=40, seed=5
    )
    model = NgramLM(order=6).fit(dataset.train_texts())
    return dataset, model, paper_rules(dataset.config)


def _factory(dataset, model, rules, seed=13, wrap=None):
    def build():
        lm = wrap(model) if wrap is not None else model
        return JitEnforcer(
            lm,
            rules,
            dataset.config,
            EnforcerConfig(seed=seed),
            fallback_rules=[domain_bound_rules(dataset.config)],
        )

    return build


def _serial_records(dataset, model, rules, seed, count):
    serial = _factory(dataset, model, rules, seed=seed)()
    return [dict(serial.synthesize_record().values) for _ in range(count)]


def _hold_once(sentinel):
    """LM wrap that holds one worker mid-record until the test acts on the
    pid ``wait_for_sentinel_pid(sentinel)`` returns."""
    return lambda model: CrashingLM(
        model, crash_at={10}, hold_s=60.0, crash_once_path=sentinel
    )


def _wait_healthy(pool, target, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pool.health()["workers_healthy"] >= target:
            return True
        time.sleep(0.02)
    return False


class TestPoolParity:
    """The determinism contract survives the process boundary."""

    def test_impute_matches_serial_path(self, setting):
        dataset, model, rules = setting
        coarse = dataset.test_windows()[0].coarse()
        serial = _factory(dataset, model, rules, seed=41)()
        reference = serial.impute_record(coarse)
        with WorkerPool(
            _factory(dataset, model, rules), workers=2, lanes_per_worker=2
        ) as pool:
            result = pool.impute(coarse, seed=41, wait_timeout=120)
        assert result.status == DONE
        assert result.records == [dict(reference.values)]
        assert result.outcomes[0]["stage"] == reference.stage

    def test_multi_record_requests_match_serial_stream(self, setting):
        """Records split across workers still follow record_rng(seed, i)."""
        dataset, model, rules = setting
        reference = _serial_records(dataset, model, rules, seed=77, count=4)
        with WorkerPool(
            _factory(dataset, model, rules), workers=2, lanes_per_worker=1
        ) as pool:
            result = pool.synthesize(count=4, seed=77, wait_timeout=120)
        assert result.records == reference

    def test_concurrent_requests_do_not_perturb_each_other(self, setting):
        dataset, model, rules = setting
        with WorkerPool(
            _factory(dataset, model, rules), workers=2, lanes_per_worker=2
        ) as pool:
            handles = [
                pool.submit(RequestSpec("synthesize", count=2, seed=300 + i))
                for i in range(4)
            ]
            results = [h.result(timeout=120) for h in handles]
        for i, result in enumerate(results):
            assert result.records == _serial_records(
                dataset, model, rules, seed=300 + i, count=2
            )


class TestCrashRecovery:
    def test_sigkill_mid_run_replays_byte_identical(self, setting, tmp_path):
        """Kill a worker, lose nothing, bytes identical."""
        dataset, model, rules = setting
        sentinel = str(tmp_path / "hold-once")
        with WorkerPool(
            _factory(dataset, model, rules, wrap=_hold_once(sentinel)),
            workers=2,
            lanes_per_worker=2,
            backoff_base=0.05,
        ) as pool:
            assert _wait_healthy(pool, 2)
            handles = [
                pool.submit(RequestSpec("synthesize", count=3, seed=400 + i))
                for i in range(4)
            ]
            # Kill the worker holding a record: the work is in flight.
            kill_worker(wait_for_sentinel_pid(sentinel))
            results = [h.result(timeout=120) for h in handles]
            assert _wait_healthy(pool, 2, timeout=30)
            assert pool.worker_crashes >= 1
            assert pool.worker_restarts >= 1
            assert pool.units_lost == 0
        for i, result in enumerate(results):
            assert result.records == _serial_records(
                dataset, model, rules, seed=400 + i, count=3
            )

    def test_deterministic_mid_record_crash_replays_cleanly(
        self, setting, tmp_path
    ):
        """CrashingLM + os._exit kills a worker at an exact decode step;
        the sentinel disarms the replacement and the replay's bytes match
        the fault-free serial stream."""
        dataset, model, rules = setting
        sentinel = str(tmp_path / "crash-once")
        wrap = lambda m: CrashingLM(  # noqa: E731
            m, crash_at={10}, exit_code=17, crash_once_path=sentinel
        )
        reference = _serial_records(dataset, model, rules, seed=88, count=2)
        with WorkerPool(
            _factory(dataset, model, rules, wrap=wrap),
            workers=2,
            lanes_per_worker=1,
            backoff_base=0.05,
        ) as pool:
            result = pool.synthesize(count=2, seed=88, wait_timeout=120)
            assert pool.worker_crashes >= 1
            assert pool.units_retried >= 1
        assert os.path.exists(sentinel)  # the scheduled crash really fired
        assert result.records == reference

    def test_stalled_worker_is_killed_and_work_replayed(
        self, setting, tmp_path
    ):
        """SIGSTOP freezes heartbeats without closing the pipe: only the
        liveness timeout can catch it.  A held LM call pins a record in
        flight on the victim, so the stall lands mid-record."""
        dataset, model, rules = setting
        sentinel = str(tmp_path / "hold-once")
        with WorkerPool(
            _factory(dataset, model, rules, wrap=_hold_once(sentinel)),
            workers=2,
            lanes_per_worker=2,
            liveness_timeout=0.5,
            backoff_base=0.05,
        ) as pool:
            assert _wait_healthy(pool, 2)
            handles = [
                pool.submit(RequestSpec("synthesize", count=2, seed=500 + i))
                for i in range(3)
            ]
            stall_worker(wait_for_sentinel_pid(sentinel))
            results = [h.result(timeout=120) for h in handles]
            assert pool.worker_crashes >= 1
        for i, result in enumerate(results):
            assert result.records == _serial_records(
                dataset, model, rules, seed=500 + i, count=2
            )


class TestBreaker:
    def test_crash_loop_exhausts_retries_then_sheds(self, setting):
        """A worker that dies on every incarnation costs the request its
        bounded retry budget (WorkerCrashed), trips the breaker, and flips
        the pool to shedding -- 503s, not an infinite crash loop."""
        dataset, model, rules = setting
        wrap = lambda m: CrashingLM(m, crash_at={10}, exit_code=23)  # noqa: E731
        pool = WorkerPool(
            _factory(dataset, model, rules, wrap=wrap),
            workers=1,
            lanes_per_worker=1,
            max_unit_retries=1,
            backoff_base=0.05,
            breaker_threshold=2,
            breaker_window=60.0,
            breaker_cooldown=30.0,
        )
        pool.start()
        try:
            handle = pool.submit(RequestSpec("synthesize", count=1, seed=9))
            with pytest.raises(WorkerCrashed):
                handle.result(timeout=120)
            assert handle.status == FAILED
            assert pool.units_lost == 1
            assert pool.worker_crashes >= 2
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not pool.breaker_open:
                time.sleep(0.02)
            assert pool.breaker_open
            assert pool.health()["status"] == "shedding"
            with pytest.raises(WorkerPoolUnavailable) as excinfo:
                pool.submit(RequestSpec("synthesize", count=1, seed=10))
            assert excinfo.value.retry_after >= 1
            assert pool.shed == 1
        finally:
            pool.stop(drain=True, timeout=60)

    def test_slow_start_within_timeout_serves(self, setting):
        dataset, model, rules = setting
        with WorkerPool(
            _factory(dataset, model, rules),
            workers=1,
            lanes_per_worker=1,
            slow_start_s=0.3,
            startup_timeout=30.0,
        ) as pool:
            result = pool.synthesize(count=1, seed=12, wait_timeout=120)
        assert result.status == DONE

    def test_slow_start_past_timeout_is_reaped_as_crash(self, setting):
        """The startup timeout catches workers that never come up."""
        dataset, model, rules = setting
        pool = WorkerPool(
            _factory(dataset, model, rules),
            workers=1,
            lanes_per_worker=1,
            slow_start_s=5.0,
            startup_timeout=0.2,
            backoff_base=0.05,
            breaker_threshold=2,
            breaker_window=60.0,
            breaker_cooldown=60.0,
        )
        pool.start()
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not pool.breaker_open:
                time.sleep(0.05)
            assert pool.breaker_open
            assert pool.worker_crashes >= 2
            with pytest.raises(WorkerPoolUnavailable):
                pool.submit(RequestSpec("synthesize", count=1, seed=1))
        finally:
            pool.stop(drain=True, timeout=60)


class TestDrainAndObservability:
    def test_graceful_stop_finishes_everything_exactly_once(self, setting):
        dataset, model, rules = setting
        pool = WorkerPool(
            _factory(dataset, model, rules), workers=2, lanes_per_worker=2
        )
        pool.start()
        handles = [
            pool.submit(RequestSpec("synthesize", count=2, seed=600 + i))
            for i in range(5)
        ]
        pool.stop(drain=True, timeout=120)
        for handle in handles:
            assert handle.status == DONE
            assert len(handle.result(timeout=1).records) == 2
        assert pool.completed == 5
        assert pool.records_completed == 10  # each record exactly once

    def test_metrics_and_prometheus_surface_supervision(self, setting):
        dataset, model, rules = setting
        registry = MetricsRegistry()
        with WorkerPool(
            _factory(dataset, model, rules),
            workers=2,
            lanes_per_worker=1,
            registry=registry,
            backoff_base=0.05,
        ) as pool:
            assert _wait_healthy(pool, 2)
            pool.synthesize(count=2, seed=700, wait_timeout=120)
            pid = pool.worker_pids()[0]
            if pid is not None:
                kill_worker(pid)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and pool.worker_crashes < 1:
                time.sleep(0.02)
            assert _wait_healthy(pool, 2, timeout=30)
            metrics = pool.metrics()
            text = pool.prometheus_text()
        assert metrics["mode"] == "worker_pool"
        assert metrics["supervision"]["worker_crashes"] >= 1
        assert metrics["supervision"]["worker_restarts"] >= 1
        assert len(metrics["worker_states"]) == 2
        for series in (
            "repro_pool_worker_crashes_total",
            "repro_pool_worker_restarts_total",
            "repro_pool_workers_healthy",
            "repro_serve_requests_completed_total",
        ):
            assert series in text
        line = pool.summary_line()
        assert "worker_crashes=" in line and "units_lost=" in line

    def test_health_reports_worker_states(self, setting):
        dataset, model, rules = setting
        with WorkerPool(
            _factory(dataset, model, rules), workers=2, lanes_per_worker=1
        ) as pool:
            assert _wait_healthy(pool, 2)
            health = pool.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["workers_healthy"] == 2
        assert len(health["worker_states"]) == 2
        assert all(w["state"] == "ready" for w in health["worker_states"])


class TestEventDrivenWakeups:
    """The supervisor wakes on submit, stop and worker messages -- never
    by waiting out its housekeeping tick."""

    def test_round_trip_does_not_wait_for_the_tick(self, setting, monkeypatch):
        # With the tick and the heartbeats at 10 s, only the submit wake-up
        # and the worker's result message can move the request along.
        monkeypatch.setattr(supervisor, "_TICK_S", 10.0)
        dataset, model, rules = setting
        reference = _serial_records(dataset, model, rules, seed=61, count=2)
        pool = WorkerPool(
            _factory(dataset, model, rules),
            workers=1,
            lanes_per_worker=2,
            heartbeat_interval=10.0,
            liveness_timeout=60.0,
        )
        with pool:
            assert _wait_healthy(pool, 1)
            started = time.monotonic()
            result = pool.synthesize(count=2, seed=61, wait_timeout=30)
            round_trip = time.monotonic() - started
            started = time.monotonic()
        stop = time.monotonic() - started
        assert result.records == reference
        assert round_trip < 1.0
        assert stop < 2.0  # stop() wakes the supervisor too

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc fd listing"
    )
    def test_start_stop_cycles_leak_no_fds(self, setting):
        dataset, model, rules = setting

        def cycle():
            with WorkerPool(
                _factory(dataset, model, rules), workers=1, lanes_per_worker=1
            ) as pool:
                assert _wait_healthy(pool, 1)
                wake = os.fstat(pool._wake_r)
                pid = pool.worker_pids()[0]
                child_files = {
                    (st.st_dev, st.st_ino)
                    for st in (
                        os.stat(f"/proc/{pid}/fd/{fd}")
                        for fd in os.listdir(f"/proc/{pid}/fd")
                    )
                }
            # The forked worker dropped its inherited copy of the wake pipe.
            assert (wake.st_dev, wake.st_ino) not in child_files

        cycle()  # warm-up: first use may open long-lived fds lazily
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            cycle()
        assert len(os.listdir("/proc/self/fd")) <= before
