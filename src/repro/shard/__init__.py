"""Owner-range sharded execution (:class:`ShardedGraph`) for the GEE edge pass.

See :mod:`repro.shard.sharded` for the execution model and exactness
argument, and :mod:`repro.shard.backend` for the registered ``sharded``
backend.
"""

from .backend import ShardedGEEBackend
from .sharded import ShardedGraph, patch_sums_sharded

__all__ = [
    "ShardedGEEBackend",
    "ShardedGraph",
    "patch_sums_sharded",
]
