"""Named random substreams derived from a single base seed.

Every source of randomness in the package (init, shuffle, dropout, synth,
fold assignment, ...) pulls its own generator via `substream(seed, name)`,
so any component can be reproduced in isolation from the one CLI seed.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ValidationError


def substream(seed: int, name: str) -> np.random.Generator:
    """Return a Generator for the named stream under the base seed.

    The same (seed, name) pair always yields the same stream; distinct
    names yield statistically independent streams. A seed outside
    [0, 2**32) is a ValidationError, so no two seeds share streams.
    """
    if not 0 <= (seed := int(seed)) < 2 ** 32:
        raise ValidationError(f"seed must be in [0, 2**32), got {seed}")
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))
