"""The package's one source of randomness: counter-based Philox streams."""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# The Philox state setter reads these element by element; Python ints read
# faster than numpy scalars.
_ZEROS = (0, 0, 0, 0)


class _Key(ISeedSequence):
    """Hands Philox its key as the seed state.

    `Philox(key=...)` first builds an OS-entropy SeedSequence and discards
    it; Philox seeded with this draws its key from `generate_state` instead.
    """

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array(self.key, dtype=dtype)


def stream(seed: int, counter: int, reuse: np.random.Generator | None = None) -> np.random.Generator:
    """Philox generator keyed on (seed mod 2^64, counter mod 2^64).

    The stream is a pure function of the pair, so a round, a trial or a
    graph draws the same numbers under any evaluation order.

    `reuse`, a generator an earlier call returned to the same caller, is
    re-keyed in place (counter, buffer and the cached 32-bit half reset)
    and returned: it then draws exactly what a new generator would, without
    the cost of building one. A driver owns its generator for one call and
    never hands it to a nested driver, whose re-keying would overwrite the
    outer stream.
    """
    key = (seed % 2**64, counter % 2**64)
    if reuse is None:
        return np.random.Generator(np.random.Philox(_Key(key)))
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return reuse
