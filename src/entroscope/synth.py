"""Seedable synthetic market: geometric Brownian motion with injected shocks.

Provides ground truth for detector validation. Log-price increments are
mu + sigma * z with z drawn from numpy's PCG64 generator (ziggurat
standard normals), so identical specs reproduce byte-identical paths on
any platform. A SINGLE_BAR shock adds magnitude * sigma to one bar's
increment; a DISPERSED_DAY shock multiplies every increment of one day by
the magnitude, widening that day's intraday return distribution. The
injection log records exactly what was planted and where.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ingest import Frequency, PriceSeries

BAR_MINUTES = 5
OPEN_MINUTES = 9 * 60 + 30  # 09:30 session open


class ShockShape(Enum):
    SINGLE_BAR = "single_bar"
    DISPERSED_DAY = "dispersed_day"


@dataclass(frozen=True)
class Shock:
    day_index: int
    magnitude_sigma: float
    shape: ShockShape


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    n_days: int
    bars_per_day: int
    drift: float = 0.0
    volatility: float = 0.001
    shocks: tuple[Shock, ...] = ()
    instrument_id: str = "synth"
    start_price: float = 100.0
    start_date: str = "2025-01-02"

    def __post_init__(self):
        if self.n_days < 1 or self.bars_per_day < 1:
            raise ValueError("n_days and bars_per_day must be positive")
        most = (24 * 60 - OPEN_MINUTES) // BAR_MINUTES  # bars from the open to midnight
        if self.bars_per_day > most:
            raise ValueError(f"bars_per_day must be at most {most}, got {self.bars_per_day}")
        bars = self.n_days * self.bars_per_day
        if bars > 2**60:  # the most float64 increments numpy can size
            raise ValueError(f"n_days * bars_per_day must be at most 2**60, got {bars}")
        for name in ("drift", "volatility", "start_price"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.volatility < 0:
            raise ValueError("volatility must be >= 0")
        if self.start_price <= 0:
            raise ValueError("start_price must be positive")
        for shock in self.shocks:
            if not np.isfinite(shock.magnitude_sigma):
                raise ValueError(f"shock magnitude_sigma must be finite, got {shock.magnitude_sigma!r}")
            if not 0 <= shock.day_index < self.n_days:
                raise ValueError(f"shock day {shock.day_index} outside [0, {self.n_days})")
            if shock.day_index == 0 and self.bars_per_day == 1:
                raise ValueError("shock day 0 of a daily series has no return to shock")


@dataclass(frozen=True)
class InjectionRecord:
    timestamp: np.datetime64
    magnitude_sigma: float
    shape: ShockShape


def _timestamps(spec: SynthSpec) -> np.ndarray:
    days = np.datetime64(spec.start_date, "D") + np.arange(spec.n_days)
    if spec.bars_per_day == 1:
        return days.astype("datetime64[s]")
    offsets = (OPEN_MINUTES + BAR_MINUTES * np.arange(spec.bars_per_day)) * np.timedelta64(
        60, "s"
    )
    return (days.astype("datetime64[s]")[:, None] + offsets[None, :]).ravel()


def generate(spec: SynthSpec) -> tuple[PriceSeries, list[InjectionRecord]]:
    """Generate a price path and the log of injected shocks.

    Bar t's increment (the log return into bar t) is mu + sigma * z_t for
    t = 1..N-1; close[0] equals the start price exactly. A SINGLE_BAR shock
    lands on the middle bar of its day, a DISPERSED_DAY shock scales the
    whole day (on day 0, every bar but the first, which has no return).
    With bars_per_day == 1 the output is a daily series, which takes no
    shock on day 0.
    """
    n = spec.n_days * spec.bars_per_day
    rng = np.random.default_rng(spec.seed)
    timestamps = _timestamps(spec)
    log: list[InjectionRecord] = []
    # Increments or closes that overflow leave an inf or nan, which
    # PriceSeries refuses in one error.
    with np.errstate(over="ignore", invalid="ignore"):
        increments = spec.drift + spec.volatility * rng.standard_normal(n - 1)
        for shock in sorted(spec.shocks, key=lambda s: s.day_index):
            day_start = shock.day_index * spec.bars_per_day
            if shock.shape is ShockShape.SINGLE_BAR:
                t = day_start + spec.bars_per_day // 2
                increments[t - 1] += shock.magnitude_sigma * spec.volatility
                log.append(InjectionRecord(timestamps[t], shock.magnitude_sigma, shock.shape))
            else:
                t0 = max(day_start, 1)
                t1 = day_start + spec.bars_per_day
                increments[t0 - 1 : t1 - 1] *= shock.magnitude_sigma
                log.append(InjectionRecord(timestamps[t0], shock.magnitude_sigma, shock.shape))
        closes = spec.start_price * np.exp(np.concatenate(([0.0], np.cumsum(increments))))
    frequency = Frequency.DAILY if spec.bars_per_day == 1 else Frequency.FIVE_MINUTE
    series = PriceSeries(spec.instrument_id, frequency, timestamps, closes)
    return series, log
