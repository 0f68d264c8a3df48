"""ServeRequest lifecycle tests: done callbacks fire exactly once."""

import threading

from repro.errors import ReproError
from repro.serve import RequestSpec, ServeRequest
from repro.serve.types import DONE, FAILED


def _request(count=1):
    return ServeRequest(RequestSpec("synthesize", count=count))


class TestDoneCallbacks:
    def test_registered_before_finish_fires_once_outside_the_lock(self):
        request = _request(count=2)
        seen = []
        # unit_outcomes() takes the request's lock: it would deadlock if
        # the callback ran while finish_unit still held it.
        request.add_done_callback(
            lambda r: seen.append((r.status, r.unit_outcomes()))
        )
        assert not request.finish_unit(0, "first")
        assert seen == []
        assert request.finish_unit(1, "second")
        assert seen == [(DONE, ["first", "second"])]
        assert not request.fail(ReproError("late"))
        assert len(seen) == 1

    def test_registered_after_finish_fires_immediately(self):
        request = _request()
        request.fail(ReproError("boom"))
        seen = []
        request.add_done_callback(lambda r: seen.append(r.status))
        assert seen == [FAILED]

    def test_fail_racing_finish_unit_fires_once(self):
        for _ in range(200):
            request = _request()
            calls = []
            request.add_done_callback(calls.append)
            barrier = threading.Barrier(2)
            wins = []

            def finish():
                barrier.wait()
                wins.append(request.finish_unit(0, "record"))

            def fail():
                barrier.wait()
                wins.append(request.fail(ReproError("raced")))

            threads = [threading.Thread(target=finish),
                       threading.Thread(target=fail)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert sorted(wins) == [False, True]
            assert calls == [request]
            assert request.status in (DONE, FAILED)

    def test_a_raising_callback_does_not_starve_the_rest(self):
        request = _request()
        seen = []

        def broken(_):
            raise RuntimeError("callback bug")

        request.add_done_callback(broken)
        request.add_done_callback(lambda r: seen.append(r.status))
        assert request.finish_unit(0, "record")
        assert seen == [DONE]
