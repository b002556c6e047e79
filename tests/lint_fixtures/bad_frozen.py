"""Fixture: writes into a shared frozen SimulationResult."""


def corrupt(result):
    result.queue_len_at_arrival = None
    result.latency_s[0] = 0.0
    result.start_s += 1.0


def thaw(result):
    result.latency_s.setflags(write=True)
    result.start_s.flags.writeable = True
    object.__setattr__(result, "start_s", None)
