"""The rotating clean sample every incremental verifier shares."""


class Rotation:
    """A cursor over a list that changes between passes: each
    :meth:`take` returns the next *size* entries, wrapping around, so
    every entry of a list of ``n`` is visited within ``ceil(n / size)``
    calls.  A size of 0 takes nothing and leaves the cursor alone."""

    def __init__(self) -> None:
        self._cursor = 0

    def take(self, items: list, size: int) -> list:
        count = min(size, len(items))
        if count <= 0:
            return []
        window = [items[(self._cursor + step) % len(items)] for step in range(count)]
        self._cursor = (self._cursor + count) % len(items)
        return window

    def reset(self) -> None:
        self._cursor = 0
