"""Saturating counters — the basic state element of dynamic predictors.

The paper's PHT uses 2-bit saturating counters (as does its Pentium BTB
description).  We implement an n-bit generalisation; 2 bits is the default
everywhere.
"""

from __future__ import annotations

from repro.errors import ConfigError


class SaturatingCounter:
    """A single n-bit up/down saturating counter.

    The counter predicts *taken* when in the upper half of its range.
    A fresh counter starts weakly-not-taken (just below the midpoint),
    matching the common hardware initialisation.
    """

    __slots__ = ("bits", "max_value", "threshold", "value")

    def __init__(self, bits: int = 2, initial: int | None = None) -> None:
        if bits < 1:
            raise ConfigError(f"counter needs >= 1 bit, got {bits}")
        self.bits = bits
        self.max_value = (1 << bits) - 1
        self.threshold = 1 << (bits - 1)
        if initial is None:
            initial = self.threshold - 1
        if not 0 <= initial <= self.max_value:
            raise ConfigError(f"initial value {initial} out of range for {bits} bits")
        self.value = initial

    @property
    def prediction(self) -> bool:
        """True if the counter currently predicts taken."""
        return self.value >= self.threshold

    def update(self, taken: bool) -> None:
        """Strengthen towards the observed outcome, saturating."""
        if taken:
            if self.value < self.max_value:
                self.value += 1
        elif self.value > 0:
            self.value -= 1

    def __repr__(self) -> str:
        return f"SaturatingCounter(bits={self.bits}, value={self.value})"


class CounterTable:
    """A flat table of n-bit saturating counters.

    Stored as a plain list of ints for speed (the PHT is exercised once or
    twice per dynamic branch).  All counters start weakly-not-taken.
    ``step[taken][value]`` is a counter's next value after an outcome,
    the saturating update as two lookup tables.  ``values`` is one list
    for the table's lifetime (:meth:`reset` refills it in place), so a
    reference to it stays valid.
    """

    __slots__ = ("bits", "entries", "max_value", "threshold", "values", "step")

    def __init__(self, entries: int, bits: int = 2) -> None:
        if entries < 1 or entries & (entries - 1):
            raise ConfigError(f"table entries must be a power of two, got {entries}")
        if bits < 1:
            raise ConfigError(f"counter needs >= 1 bit, got {bits}")
        self.entries = entries
        self.bits = bits
        self.max_value = (1 << bits) - 1
        self.threshold = 1 << (bits - 1)
        self.values = [self.threshold - 1] * entries
        levels = range(self.max_value + 1)
        self.step = (
            tuple(max(value - 1, 0) for value in levels),
            tuple(min(value + 1, self.max_value) for value in levels),
        )

    def predict(self, index: int) -> bool:
        """Prediction of the counter at *index* (True = taken)."""
        return self.values[index] >= self.threshold

    def update(self, index: int, taken: bool) -> None:
        """Saturating update of the counter at *index*."""
        values = self.values
        values[index] = self.step[bool(taken)][values[index]]

    def reset(self) -> None:
        """Return every counter to weakly-not-taken."""
        self.values[:] = [self.threshold - 1] * self.entries

    def __len__(self) -> int:
        return self.entries
