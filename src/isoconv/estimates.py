"""Tagged numeric results.

Every measured quantity carries its uncertainty and a direction tag so
downstream comparisons know what kind of statement they are making:
`exact` (deterministic, std_error 0), `mc` (value +- std_error), `upper` /
`lower` (one-sided bounds -- e.g. a sampled sup of exact values is only ever
a lower bound).
"""

from __future__ import annotations

from dataclasses import dataclass

_DIRECTIONS = ("exact", "upper", "lower", "mc")


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    n_samples: int
    seed: int
    direction: str

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"direction must be one of {_DIRECTIONS}, got {self.direction!r}"
            )
        if self.std_error < 0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")
        if self.direction == "exact" and self.std_error != 0:
            raise ValueError(
                f"exact estimates carry std_error 0, got {self.std_error}"
            )
