#!/usr/bin/env python3
"""End-to-end demo on synthetic ground truth.

Generates a quiet market and a market with one dispersed-day shock, runs
the expanding-window entropy pipeline on both, and prints the detected
events next to the injection log.

Usage: python scripts/shock_demo.py [--seed 7] [--days 20] [--shock-day 12]
"""
import argparse

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


def run(tag, spec):
    series, injections = generate(spec)
    returns = log_returns(series)
    binning = BinningSpec.spanning(returns.values, velleman_bins(spec.bars_per_day))
    seq_spec = WindowSequenceSpec(
        base_length=spec.bars_per_day,
        increment=spec.bars_per_day // 3,
        steps=3,
        stride=spec.bars_per_day // 3,
    )
    spectra = spectra_for_series(returns, seq_spec, binning)
    events = detect_events(spectra)

    print(f"--- {tag}: {len(series)} bars, {len(spectra)} sequences ---")
    for rec in injections:
        print(f"  injected: {rec.timestamp}  {rec.magnitude_sigma:g} sigma ({rec.shape.value})")
    if not events:
        print("  detected: none")
    for ev in events:
        onset = spectra[ev.onset_index]
        span = (
            returns.timestamps[onset.span_start],
            returns.timestamps[onset.span_end - 1],
        )
        print(
            f"  detected: onset {ev.onset_timestamp}  peak H {ev.peak_value:.3f}  "
            f"slope {ev.ramp_slope:.3f}  persisted {ev.persistence}  "
            f"window {span[0]} .. {span[1]}"
        )
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--days", type=int, default=20)
    ap.add_argument("--bars-per-day", type=int, default=78)
    ap.add_argument("--sigma", type=float, default=0.001)
    ap.add_argument("--shock-day", type=int, default=12)
    ap.add_argument("--magnitude", type=float, default=10.0)
    args = ap.parse_args()

    quiet = SynthSpec(
        seed=args.seed, n_days=args.days, bars_per_day=args.bars_per_day,
        volatility=args.sigma,
    )
    shocked = SynthSpec(
        seed=args.seed, n_days=args.days, bars_per_day=args.bars_per_day,
        volatility=args.sigma,
        shocks=(Shock(args.shock_day, args.magnitude, ShockShape.DISPERSED_DAY),),
    )
    run("quiet baseline", quiet)
    run("with dispersed-day shock", shocked)


if __name__ == "__main__":
    main()
