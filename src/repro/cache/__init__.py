"""On-chip caches: the flat-array true-LRU base, the LLC, and the
set-associative reference cache they are held to."""

from .cache import EvictedLine, SetAssocCache
from .llc import LastLevelCache

__all__ = ["SetAssocCache", "EvictedLine", "LastLevelCache"]
