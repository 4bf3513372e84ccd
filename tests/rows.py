"""Row layouts for the batch tests: a FunctionalBatch holds its rows one
after another, row i with ``sizes[i]`` entries."""

import itertools

import numpy as np


def row_blocks(values, sizes):
    """Views of the last axis of ``values``, whose rows have the entry
    counts ``sizes``, as (..., rows, k) arrays: one per run of neighbouring
    rows of equal size, as moments_batch reduces them."""
    lead = values.shape[:-1]
    blocks, start = [], 0
    for k, run in itertools.groupby(np.asarray(sizes).tolist()):
        count = len(list(run))
        stop = start + count * k
        blocks.append(values[..., start:stop].reshape(lead + (count, k)))
        start = stop
    return blocks
