"""Counter-based random substreams.

Every stochastic routine in this package draws from a Philox generator keyed
by the user seed plus a small integer path (stream tag, period, replication,
...).  Streams for distinct paths are statistically independent and are
reproduced bit-for-bit regardless of evaluation order or worker count, so a
run is fully determined by its seed.
"""

import numpy as np

# Stream tags; keep values stable, they are part of the reproducibility
# contract between releases.
INIT = 0
PROPAGATE = 1
RESAMPLE = 2
BACKWARD = 3
PATH = 4
COUNTS = 5
FORECAST = 6
EM = 7
REPLICATE = 8


def substream(seed, *path):
    """Return a fresh Generator for the (seed, *path) substream.

    `seed` and every path element must be nonnegative integers.  SeedSequence
    pads keys shorter than four words with zeros, so (7, 3) and (7, 3, 0)
    give the same stream: keys in use must differ by more than trailing zeros.
    """
    entropy = (int(seed),) + tuple(int(x) for x in path)
    if any(x < 0 for x in entropy):
        raise ValueError(f"substream path must be nonnegative, got {entropy}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
