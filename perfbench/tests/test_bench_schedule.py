"""Open-loop accounting on a fake clock, and the seeded schedule."""

import pytest

from benchlib.serve import Event, OpenLoop, ServeSizes, build_schedule


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start
        self.slept = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


def test_latency_runs_from_due_time_and_lateness_is_recorded():
    clock = FakeClock()
    sent = []
    costs = {0.0: 0.1, 1.0: 0.8, 1.5: 0.0}

    def send(event, due_at):
        sent.append((event.due, due_at, clock.now))
        clock.now += costs[event.due]       # a slow send stalls the loop

    loop = OpenLoop([Event(0.0, 0, 0), Event(1.0, 0, 1), Event(1.5)],
                    send, clock=clock, sleep=clock.sleep)
    loop.run()
    assert loop.started == 100.0
    # The first two events were reached on time (after sleeping); the
    # third was due at 101.5 but the second send held the loop to 101.8.
    assert loop.late == pytest.approx([0.0, 0.0, 0.3])
    assert clock.slept == pytest.approx([0.9])
    assert [due_at for _, due_at, _ in sent] == pytest.approx(
        [100.0, 101.0, 101.5])
    # An op due at 101.5 that completes at 101.9 took 400 ms, although
    # it was only sent at 101.8.
    assert OpenLoop.latency_ms(101.5, 101.9) == pytest.approx(400.0)


def test_schedule_is_seeded_sorted_and_streams_admissions_in_order():
    sizes = ServeSizes(hours=6, monitored=4, stream_rate=100.0,
                       round_period=0.25)
    schedule = build_schedule(3, 2.0, sizes)
    assert schedule == build_schedule(3, 2.0, sizes)
    assert schedule != build_schedule(4, 2.0, sizes)
    dues = [e.due for e in schedule]
    assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] < 2.0
    steps = [e for e in schedule if e.admission is not None]
    rounds = [e for e in schedule if e.admission is None]
    assert len(steps) == 200 and len(rounds) == 8
    hours = {}
    for event in steps:
        assert event.hour == hours.get(event.admission, -1) + 1
        hours[event.admission] = event.hour
    assert max(hours.values()) == sizes.hours - 1


def test_declared_serve_run_turns_its_sessions_over():
    sizes = ServeSizes()
    steps = [e for e in build_schedule(0, 30.0, sizes)
             if e.admission is not None]
    opened = [e.due for e in steps if e.hour == 0]
    finished = [e.due for e in steps if e.hour == sizes.hours - 1]
    # The first admission of every slot finishes inside the window, and
    # slots open their next admissions there too.
    assert len(finished) >= sizes.monitored
    assert len(opened) > sizes.monitored
