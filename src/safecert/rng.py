"""Named, splittable random streams.

Every stochastic routine in the package derives its generator from a master
seed plus a named purpose (and optionally an index), so that independent work
units own independent streams and reruns with the same seed are bit-identical
regardless of execution order.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["stream"]


def _stream_key(part: int | str) -> int:
    """Map a stream-path component to a stable 32-bit integer."""
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    return zlib.crc32(str(part).encode("utf-8"))


def stream(seed: int, *path: int | str) -> np.random.Generator:
    """Return a generator for the named sub-stream of ``seed``.

    The same arguments always reproduce the same stream.  Two paths of the
    same length, with int parts below 2**32 and str parts of distinct CRC-32,
    name independent streams (``stream(7, "traj", 3)``, ``stream(7, "traj",
    4)``); every library caller keeps that.  Other paths may alias:
    ``stream(7, "traj")`` draws what ``stream(7, "traj", 0)`` does (see the
    ``rng.stream`` FOUND line in CHANGES.md).  Each nonnegative seed,
    however large, names its own stream; a negative seed raises numpy's
    ValueError.
    """
    entropy = [int(seed)] + [_stream_key(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))
