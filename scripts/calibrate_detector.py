#!/usr/bin/env python3
"""Detector calibration sweep on synthetic ground truth.

For a grid of thresholds and persistence settings, measures the false-flag
rate on pure GBM paths and the recall (onset window covering the injected
shock) on paths with one 10-sigma dispersed-day shock. This is the
experiment behind the shipped defaults (theta=3, persistence=2).

Usage: python scripts/calibrate_detector.py [--seeds 100]
"""
import argparse
import time

from entroscope import (
    BinningSpec,
    Shock,
    ShockShape,
    SynthSpec,
    WindowSequenceSpec,
    detect_events,
    generate,
    log_returns,
    spectra_for_series,
    velleman_bins,
)

SEQ = WindowSequenceSpec(base_length=78, increment=26, steps=3, stride=26)


def spectra_of(seed, shock_day=None):
    shocks = ()
    if shock_day is not None:
        shocks = (Shock(shock_day, 10.0, ShockShape.DISPERSED_DAY),)
    series, log = generate(
        SynthSpec(seed=seed, n_days=20, bars_per_day=78, volatility=0.001, shocks=shocks)
    )
    returns = log_returns(series)
    binning = BinningSpec.spanning(returns.values, velleman_bins(78))
    return returns, spectra_for_series(returns, SEQ, binning), log


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--shock-day", type=int, default=12)
    args = ap.parse_args()

    quiet = [spectra_of(seed) for seed in range(args.seeds)]
    shocked = [spectra_of(seed, args.shock_day) for seed in range(args.seeds)]

    print(f"{'theta':>6} {'persist':>8} {'false/100':>10} {'recall/100':>11}")
    for theta in (2.0, 2.5, 3.0, 4.0, 5.0):
        for persistence in (1, 2, 3):
            false = 0
            for _, spectra, _ in quiet:
                if detect_events(spectra, threshold=theta, min_persistence=persistence):
                    false += 1
            recall = 0
            for returns, spectra, log in shocked:
                shock_ts = log[0].timestamp
                for ev in detect_events(spectra, threshold=theta, min_persistence=persistence):
                    onset = spectra[ev.onset_index]
                    lo = returns.timestamps[onset.span_start]
                    hi = returns.timestamps[onset.span_end - 1]
                    if lo <= shock_ts <= hi:
                        recall += 1
                        break
            scale = 100 / args.seeds
            print(f"{theta:6.1f} {persistence:8d} {false * scale:10.0f} {recall * scale:11.0f}")


if __name__ == "__main__":
    t0 = time.perf_counter()
    main()
    print(f"({time.perf_counter() - t0:.1f}s)")
