"""RL102 fixture: a load-driver ``send`` callback mutates shared state."""

from repro.serve import ZipfTenantSchedule, drive_schedule

__all__ = ["replay"]

answered = []


def _send(pos):
    answered.append(pos)  # RL102: runs on every client thread, no lock held
    return pos


def replay(num_requests):
    schedule = ZipfTenantSchedule.round_robin(num_requests, num_requests)
    return drive_schedule(_send, schedule, [range(num_requests)], shape="fixture")
