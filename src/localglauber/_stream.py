"""The package's one source of randomness: counter-based Philox streams."""

import numpy as np


def stream(seed: int, counter: int) -> np.random.Generator:
    """Philox generator keyed on (seed mod 2^64, counter mod 2^64).

    The stream is a pure function of the pair, so a round, a trial or a
    graph draws the same numbers under any evaluation order.
    """
    key = np.array([seed % 2**64, counter % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
