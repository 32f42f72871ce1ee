"""Cross-request result memoization for the graph service.

The planner's CSE pass deduplicates identical subexpressions *within one
drain*; this package is the same idea lifted across requests, sessions,
and time.  A cacheable request is keyed on its exact text
(:mod:`.hashing`), paired with the shared-store snapshot version it was
admitted against, and looked up in an LRU byte-budgeted store
(:mod:`.cache`) that admits a text on its second sighting.  A hit replays the original request's observable
effects — response and declared session objects — without touching the
planner at all.
"""

from .cache import CacheEntry, ResultCache, build_entry, materialize
from .hashing import CACHEABLE_KINDS, CacheDecision, analyze_request

__all__ = [
    "CacheEntry",
    "ResultCache",
    "build_entry",
    "materialize",
    "CacheDecision",
    "analyze_request",
    "CACHEABLE_KINDS",
]
