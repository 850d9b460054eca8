"""Maximal-length PN sequence generation via serial and leap-forward LFSRs.

A Fibonacci LFSR with taps T = {t1, ..., tk} (1-indexed, highest tap equals
the register order) is stepped by XOR-ing the tapped stages into stage 1
while everything shifts one stage up.  The output chip is read from the
highest-index stage, so an all-ones seed emits `order` ones before feedback
shows up in the output.  Bits map to bipolar chips as 1 -> +1, 0 -> -1.

The leap-forward generator advances the same recursion several states per
call through a precomputed GF(2) transition matrix, producing a block of
chips per state update.  Output is bit-identical to serial stepping.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "LfsrSpec",
    "ChipSequence",
    "PRESETS",
    "preset",
    "generate_msequence",
    "generate_leapforward",
    "periodic_autocorrelation",
]


@dataclass(frozen=True)
class LfsrSpec:
    """Register length, feedback taps (1-indexed) and seed bits."""

    order: int
    feedback_taps: frozenset[int]
    seed: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ConfigError(f"LFSR order must be >= 2, got {self.order}")
        taps = frozenset(int(t) for t in self.feedback_taps)
        object.__setattr__(self, "feedback_taps", taps)
        if not taps or any(t < 1 or t > self.order for t in taps):
            raise ConfigError(f"taps must lie in 1..{self.order}: {sorted(taps)}")
        if self.order not in taps:
            raise ConfigError(f"tap {self.order} must be part of the feedback set")
        seed = tuple(int(b) for b in self.seed) or (1,) * self.order
        object.__setattr__(self, "seed", seed)
        if len(seed) != self.order:
            raise ConfigError(f"seed length {len(seed)} != order {self.order}")
        if any(b not in (0, 1) for b in seed):
            raise ConfigError("seed must be a bit vector")
        if not any(seed):
            raise ConfigError("seed must not be all-zero (degenerate LFSR state)")

    @property
    def period(self) -> int:
        return 2**self.order - 1


#: Shipped primitive-polynomial presets.  Order 11 matches the sounder's
#: probing code; orders 7 and 3 are small oracles for desk-scale tests.
PRESETS: dict[int, LfsrSpec] = {
    11: LfsrSpec(order=11, feedback_taps=frozenset({11, 9})),
    7: LfsrSpec(order=7, feedback_taps=frozenset({7, 6})),
    3: LfsrSpec(order=3, feedback_taps=frozenset({3, 2})),
}


def preset(order: int) -> LfsrSpec:
    try:
        return PRESETS[order]
    except KeyError:
        raise ConfigError(f"no shipped preset of order {order}; have {sorted(PRESETS)}") from None


@dataclass(frozen=True, eq=False)
class ChipSequence:
    """Bipolar (+/-1) chips (a read-only copy) plus the LFSR spec they came from."""

    chips: np.ndarray
    spec: LfsrSpec

    def __post_init__(self) -> None:
        chips = np.array(self.chips, dtype=np.int8)
        if chips.ndim != 1 or not np.isin(chips, (-1, 1)).all():
            raise ConfigError("chips must be a 1-D vector of -1/+1 values")
        chips.setflags(write=False)
        object.__setattr__(self, "chips", chips)

    def __len__(self) -> int:
        return int(self.chips.size)


def _shift(state: tuple[int, ...], taps: frozenset[int]) -> tuple[int, ...]:
    feedback = 0
    for tap in taps:
        feedback ^= state[tap - 1]
    return (feedback,) + state[:-1]


def _transition_matrix(spec: LfsrSpec) -> np.ndarray:
    """GF(2) matrix A with state' = A @ state (mod 2)."""
    a = np.zeros((spec.order, spec.order), dtype=np.uint8)
    for tap in spec.feedback_taps:
        a[0, tap - 1] = 1
    for i in range(1, spec.order):
        a[i, i - 1] = 1
    return a


@functools.lru_cache(maxsize=None)
def generate_msequence(spec: LfsrSpec) -> ChipSequence:
    """Serial generation of the full period 2^order - 1.

    Raises ConfigError when the feedback polynomial is not primitive for
    the given order (the state returns to the seed before the full period).
    The result is cached per spec and shared (chips are read-only).
    """
    n = spec.period
    seed = state = spec.seed
    bits = bytearray(n)
    for k in range(n):
        bits[k] = state[-1]
        state = _shift(state, spec.feedback_taps)
        if k < n - 1 and state == seed:
            raise ConfigError(
                f"feedback taps {sorted(spec.feedback_taps)} are not primitive for "
                f"order {spec.order}: period {k + 1} < {n}"
            )
    if state != seed:
        raise ConfigError(
            f"LFSR did not return to its seed after {n} steps; "
            "seed does not lie on the maximal cycle"
        )
    return ChipSequence(chips=np.frombuffer(bits, dtype=np.int8) * 2 - 1, spec=spec)


def generate_leapforward(spec: LfsrSpec, chips_per_cycle: int) -> ChipSequence:
    """Block generation: ``chips_per_cycle`` chips per state advance.

    Each cycle evaluates the output bits of A^0..A^(L-1) applied to the
    current state (one matrix-vector product per block via the stacked
    extraction rows) and then leaps the state forward with A^L.
    """
    if chips_per_cycle < 1:
        raise ConfigError("chips_per_cycle must be >= 1")
    n = spec.period
    a = _transition_matrix(spec)
    # Row `order - 1` of A^j reads the output bit j steps ahead.
    extract = np.empty((chips_per_cycle, spec.order), dtype=np.uint8)
    power = np.eye(spec.order, dtype=np.uint8)
    for j in range(chips_per_cycle):
        extract[j] = power[-1]
        power = (a @ power) % 2
    leap = power  # A^chips_per_cycle

    state = np.asarray(spec.seed, dtype=np.uint8)
    cycles = -(-n // chips_per_cycle)
    bits = np.empty(cycles * chips_per_cycle, dtype=np.uint8)
    for c in range(cycles):
        bits[c * chips_per_cycle : (c + 1) * chips_per_cycle] = (extract @ state) % 2
        state = (leap @ state) % 2
    return ChipSequence(chips=bits[:n].astype(np.int8) * 2 - 1, spec=spec)


def periodic_autocorrelation(seq: ChipSequence, lag: int) -> int:
    """Circular autocorrelation sum_k c[k] * c[(k + lag) mod N]."""
    n = len(seq)
    if not 0 <= lag < n:
        raise ConfigError(f"lag must lie in [0, {n}), got {lag}")
    c = seq.chips.astype(np.int64)
    return int(np.dot(c, np.roll(c, -lag)))
