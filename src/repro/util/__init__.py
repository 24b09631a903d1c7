"""Cross-cutting utilities: canonical encoding, clocks, ids, validation."""

from repro.util.clock import Clock, SimulatedClock, WallClock, SECONDS_PER_DAY, SECONDS_PER_YEAR
from repro.util.encoding import (
    canonical_dumps,
    canonical_loads,
    canonical_bytes,
    from_hex,
    to_hex,
)
from repro.util.identifiers import IdGenerator, new_id
from repro.util.rng import DeterministicRng
from repro.util.validation import (
    require,
    require_type,
    require_non_empty,
)

__all__ = [
    "Clock",
    "SimulatedClock",
    "WallClock",
    "SECONDS_PER_DAY",
    "SECONDS_PER_YEAR",
    "canonical_dumps",
    "canonical_loads",
    "canonical_bytes",
    "from_hex",
    "to_hex",
    "IdGenerator",
    "new_id",
    "DeterministicRng",
    "require",
    "require_type",
    "require_non_empty",
]
