import zlib

import numpy as np
import pytest

from omtl.errors import ValidationError
from omtl.rng import substream


@pytest.mark.parametrize("seed", [0, 1, 13, 2 ** 31, 2 ** 32 - 1, np.int64(7)])
def test_substream_of_a_32_bit_seed(seed):
    # the stream of (seed, crc32 of the name), as it has always been
    want = np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(b"init")]))
    assert substream(seed, "init").random(4).tobytes() == want.random(4).tobytes()


@pytest.mark.parametrize("seed", [-1, 2 ** 32, 2 ** 32 + 13, -(2 ** 40)])
def test_seed_outside_32_bits_rejected(seed):
    # reduced to 32 bits, it would repeat the streams of another seed
    with pytest.raises(ValidationError, match=rf"^seed must be in \[0, 2\*\*32\), got {seed}$"):
        substream(seed, "init")
