"""RL001 fixture: lineage-derived randomness only — must lint clean."""

import numpy as np


def honest_streams(ctx, entropy):
    root = np.random.SeedSequence(entropy)
    rng = np.random.default_rng(root.spawn(1)[0])
    explicit = np.random.default_rng(12345)
    return rng, explicit, ctx.rng
