"""Argument rules: what an integer or a real in a range is, and how a refusal reads.

A bool is neither an integer nor a real.  A real is never NaN, and never +-inf
unless its rule's bounds take it (only ``REAL``'s do).  A bound that belongs to
one function is a rule next to it.
"""
import math
import numbers
import sys
from typing import NamedTuple

from .errors import InvalidParameterError

_MAX = sys.float_info.max


class Rule(NamedTuple):
    integral: bool
    low: float = -_MAX
    high: float = _MAX
    exclusive: bool = False     # (low, high) rather than [low, high]

    def holds(self, value) -> bool:
        kind = type(value)      # int and float skip the ABC check, which is slower
        if kind is not int and (kind is not float or self.integral):
            if kind is bool or not isinstance(
                    value, numbers.Integral if self.integral else numbers.Real):
                return False
            try:        # NumPy scalars would compare in their own precision
                value = int(value) if self.integral else float(value)
            except OverflowError:       # a real past the float range
                return False
        # NaN fails every comparison, and a huge int every finite bound
        return self.low < value < self.high if self.exclusive else self.low <= value <= self.high

    def check(self, name: str, value):
        """``value``, or InvalidParameterError naming ``name`` if it breaks the rule."""
        if not self.holds(value):
            raise InvalidParameterError(f"{name} must be {self}")
        return value

    def __str__(self) -> str:
        kind = "an integer" if self.integral else "a real" if self.high > _MAX else "a finite real"
        if self.high < _MAX:
            ends = "()" if self.exclusive else "[]"
            return f"{kind} in {ends[0]}{self.low}, {self.high}{ends[1]}"
        return f"{kind} >= {self.low}" if self.low > -_MAX else kind


def integer(low: int, high=math.inf) -> Rule:
    return Rule(True, low, high)


SIZE = integer(1)           # lengths, matrix sizes, sample and trial counts
COUNT = integer(0)          # degrees, seeds and stream labels
ORDER = integer(2)          # a cyclic prior's order; a size that must hold a pair
NONNEGATIVE = Rule(False, 0)    # signal strengths, tolerances, exponents
PROBABILITY = Rule(False, 0, 1, exclusive=True)
REAL = Rule(False, -math.inf, math.inf)     # thresholds and series arguments
