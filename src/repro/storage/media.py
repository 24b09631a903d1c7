"""Media lifecycle: the HIPAA §164.310(d)(2) disposal and re-use rules.

HIPAA requires covered entities to (i) have final-disposition policies
for media holding EPHI and (ii) remove EPHI from media before re-use.
A :class:`Medium` wraps a block device with a state machine enforcing
those rules:

::

    ACTIVE ──retire──▶ RETIRED ──sanitize──▶ SANITIZED ──recommission──▶ ACTIVE
                          │                       │
                          └──────dispose──────────┴──▶ DISPOSED (terminal)

* Writing is only allowed in ``ACTIVE``.
* ``sanitize()`` scrubs the allocated region
  (:meth:`~repro.storage.block.BlockDevice.scrub`); re-use without
  sanitization is a :class:`MediaLifecycleError`.
* ``dispose()`` detaches the device.  A *negligent* disposal (skipping
  sanitization) is possible via ``dispose(sanitize_first=False)`` so
  experiments can measure what a dumpster-diving adversary recovers.

A :class:`MediaPool` manages a fleet of media with manufacture dates
and service-life limits, which the 30-year retention experiment (E7)
uses to force periodic migrations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import MediaLifecycleError
from repro.storage.block import SCRUB_PASSES, BlockDevice, MemoryDevice
from repro.util.clock import Clock, SECONDS_PER_YEAR, WallClock


class MediaState(enum.Enum):
    """Compliance lifecycle states for a storage medium."""

    ACTIVE = "active"
    RETIRED = "retired"
    SANITIZED = "sanitized"
    DISPOSED = "disposed"


@dataclass(frozen=True)
class MediaEvent:
    """One lifecycle transition, for the accountability log."""

    medium_id: str
    transition: str
    timestamp: float
    detail: str = ""


class Medium:
    """A block device under lifecycle control."""

    def __init__(
        self,
        device: BlockDevice,
        clock: Clock | None = None,
        manufactured_at: float | None = None,
        service_life_years: float = 5.0,
    ) -> None:
        self.device = device
        self._clock = clock or WallClock()
        self.manufactured_at = (
            manufactured_at if manufactured_at is not None else self._clock.now()
        )
        self.service_life_years = service_life_years
        self._state = MediaState.ACTIVE
        self._history: list[MediaEvent] = [
            MediaEvent(device.device_id, "commissioned", self._clock.now())
        ]

    @property
    def medium_id(self) -> str:
        return self.device.device_id

    @property
    def state(self) -> MediaState:
        return self._state

    @property
    def history(self) -> list[MediaEvent]:
        """Lifecycle transitions (HIPAA accountability record)."""
        return list(self._history)

    def _record(self, transition: str, detail: str = "") -> None:
        self._history.append(
            MediaEvent(self.medium_id, transition, self._clock.now(), detail)
        )

    # -- age / wear ------------------------------------------------------

    def age_years(self) -> float:
        """Age since manufacture, in years."""
        return (self._clock.now() - self.manufactured_at) / SECONDS_PER_YEAR

    def past_service_life(self) -> bool:
        """Whether the medium has outlived its rated service life."""
        return self.age_years() > self.service_life_years

    # -- lifecycle transitions --------------------------------------------

    def retire(self, reason: str = "") -> None:
        """Take the medium out of active service (no more writes)."""
        if self._state is not MediaState.ACTIVE:
            raise MediaLifecycleError(
                f"cannot retire medium {self.medium_id} in state {self._state.value}"
            )
        self._state = MediaState.RETIRED
        self.device.set_write_protected(True)
        self._record("retired", reason)

    def sanitize(self) -> int:
        """Scrub all allocated bytes; returns the bytes wiped.

        Only retired media can be sanitized (sanitizing active media
        would destroy live records).
        """
        if self._state is not MediaState.RETIRED:
            raise MediaLifecycleError(
                f"cannot sanitize medium {self.medium_id} in state {self._state.value}"
            )
        wiped = self.device.scrub(0, self.device.used)
        self._state = MediaState.SANITIZED
        self._record("sanitized", f"passes={SCRUB_PASSES} bytes={wiped}")
        return wiped

    def recommission(self) -> None:
        """Return sanitized media to active service (the re-use rule)."""
        if self._state is not MediaState.SANITIZED:
            raise MediaLifecycleError(
                f"media re-use requires sanitization first; "
                f"medium {self.medium_id} is {self._state.value}"
            )
        # Reset the allocator: the medium presents as empty.
        self.device.reset_allocation(0)
        self.device.set_write_protected(False)
        self._state = MediaState.ACTIVE
        self._record("recommissioned")

    def dispose(self, sanitize_first: bool = True) -> None:
        """Final disposition.  With ``sanitize_first=False`` this models
        the negligent path the regulations forbid; the threat experiments
        use it to demonstrate recoverable residue."""
        if self._state is MediaState.DISPOSED:
            raise MediaLifecycleError(f"medium {self.medium_id} already disposed")
        if sanitize_first and self._state is not MediaState.SANITIZED:
            if self._state is MediaState.ACTIVE:
                self.retire("disposal")
            if self._state is MediaState.RETIRED:
                self.sanitize()
        self._state = MediaState.DISPOSED
        self.device.detach()
        self._record("disposed", "sanitized" if sanitize_first else "NEGLIGENT")

    def forensic_scan(self) -> bytes:
        """What an adversary with the physical medium can read.

        Available in every state — physical possession beats software
        controls.  (A detached device still yields its bytes.)
        """
        return self.device.raw_dump()


class MediaPool:
    """A fleet of media with automated aging-based replacement.

    ``provision()`` mints new media; ``due_for_replacement()`` lists
    media past service life, which the lifecycle orchestrator migrates
    off and retires.  Every provisioning and disposal is recorded so the
    pool can produce the HIPAA accountability report of hardware
    movements.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        default_capacity: int = 1 << 22,
        service_life_years: float = 5.0,
    ) -> None:
        self._clock = clock or WallClock()
        self._default_capacity = default_capacity
        self._service_life_years = service_life_years
        self._media: dict[str, Medium] = {}
        # Lifecycle events of media the pool has disposed of, by id: the
        # report keeps them, the pool lets go of the media and their bytes.
        self._disposed: dict[str, list[MediaEvent]] = {}
        self._counter = 0

    def provision(self, capacity: int | None = None) -> Medium:
        """Manufacture and commission a new medium, under an id no
        medium of the pool has carried (an adopted image keeps its own)."""
        medium_id = ""
        while not medium_id or medium_id in self._media or medium_id in self._disposed:
            self._counter += 1
            medium_id = f"med-{self._counter:04d}"
        device = MemoryDevice(medium_id, capacity or self._default_capacity)
        medium = Medium(device, self._clock, service_life_years=self._service_life_years)
        self._media[medium.medium_id] = medium
        return medium

    def adopt(self, device: BlockDevice) -> Medium:
        """Commission a medium around an *existing* device (the crash-
        recovery path: the image survived, the Medium object did not).
        The adopted medium joins the pool's accountability record."""
        if device.device_id in self._media:
            raise MediaLifecycleError(
                f"medium {device.device_id} is already in the pool"
            )
        medium = Medium(device, self._clock, service_life_years=self._service_life_years)
        self._media[medium.medium_id] = medium
        return medium

    def dispose(self, medium: Medium) -> None:
        """Sanitize and dispose of *medium*, then drop it from the pool:
        its lifecycle events stay in :meth:`accountability_report`, its
        device is no longer held."""
        medium.dispose(sanitize_first=True)
        self._disposed[medium.medium_id] = self._media.pop(medium.medium_id).history

    def get(self, medium_id: str) -> Medium:
        if medium_id not in self._media:
            raise MediaLifecycleError(f"unknown medium {medium_id}")
        return self._media[medium_id]

    def active_media(self) -> list[Medium]:
        return [m for m in self._media.values() if m.state is MediaState.ACTIVE]

    def due_for_replacement(self) -> list[Medium]:
        """Active media past their rated service life."""
        return [m for m in self.active_media() if m.past_service_life()]

    def accountability_report(self) -> list[MediaEvent]:
        """All lifecycle events across the fleet, time-ordered —
        the §164.310(d)(2)(iii) record of hardware movements."""
        histories = [*self._disposed.values(), *(m.history for m in self._media.values())]
        events = [event for history in histories for event in history]
        return sorted(events, key=lambda e: (e.timestamp, e.medium_id))

    def __len__(self) -> int:
        return len(self._media)
