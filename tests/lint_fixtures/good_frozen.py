"""Fixture: reading frozen results and freezing (never thawing) arrays."""

import numpy as np


def summarize(result):
    return float(np.mean(result.latency_s)) + float(result.start_s[-1])


def freeze(arr):
    # The freeze direction is exactly what the caches do.
    arr.flags.writeable = False
    arr.setflags(write=False)
    return arr


def edit_copy(result):
    latencies = result.latency_s.copy()
    latencies[0] = 0.0
    return latencies
