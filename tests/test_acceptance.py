"""Acceptance suite: executable exit criteria for the package.

Each criterion prints one pass/fail line (visible with ``pytest -s``) and
asserts its stated tolerance. Criteria marked (a)/(b) split independent
clauses of one criterion so a failing clause does not hide a passing one.
"""
import json
import math
import time

import numpy as np

from entroscope import (
    BinnedDistribution,
    BinningSpec,
    Frequency,
    Shock,
    ShockShape,
    SynthSpec,
    WindowSequenceSpec,
    dedup_closed_market,
    detect_events,
    generate,
    log_returns,
    parse_csv,
    pct_difference,
    pmf_snapshot,
    serialize_csv,
    shannon_entropy,
    spectra_for_series,
    summarize_values,
    velleman_bins,
    window_bounds,
)
from entroscope.cli import main

from _fixtures import make_intraday, make_returns


def _criterion(label, ok, detail):
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {label}: {detail}"


# ----------------------------------------------------------------------
# 1. entropy identities
# ----------------------------------------------------------------------

def test_criterion_1_entropy_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 65):
        dist = BinnedDistribution(
            BinningSpec(n, lo=0.0, hi=1.0), 0.0, 1.0, np.full(n, 1.0 / n), n
        )
        worst = max(worst, abs(shannon_entropy(dist) - math.log(n)))

    single = BinnedDistribution(BinningSpec(1, lo=0.0, hi=1.0), 0.0, 1.0, np.array([1.0]), 1)
    single_ok = shannon_entropy(single) == 0.0

    rng = np.random.default_rng(101)
    bounds_ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 65))
        raw = rng.random(n) + 1e-12
        masses = raw / raw.sum()
        h = shannon_entropy(
            BinnedDistribution(BinningSpec(n, lo=0.0, hi=1.0), 0.0, 1.0, masses, 7)
        )
        if not (-1e-12 <= h <= math.log(n) + 1e-12):
            bounds_ok = False
            break

    elapsed = time.perf_counter() - t0
    _criterion(
        1,
        worst <= 1e-12 and single_ok and bounds_ok and elapsed < 1.0,
        f"uniform worst |H - ln n| = {worst:.2e}, single-bin H exact zero: {single_ok}, "
        f"bounds on 10^4 random distributions: {bounds_ok}, {elapsed:.2f}s",
    )


# ----------------------------------------------------------------------
# 2. published reference-table arithmetic
#    (before, after, printed unsigned percentage difference; inputs are
#    3-decimal roundings)
# ----------------------------------------------------------------------

REFERENCE_ENTROPY_ROWS = [
    ("SPX", 1.465, 1.099, 28.57),
    ("DJI", 1.177, 1.161, 1.36),
    ("NDQ", 1.565, 1.107, 34.32),
    ("BVP", 1.534, 1.660, 7.92),
    ("TSX", 1.482, 1.200, 21.02),
    ("EUS", 1.655, 1.058, 44.05),
    ("GBR", 1.758, 0.893, 65.20),
    ("DAX", 1.693, 1.573, 7.33),
    ("WIG20", 1.654, 1.574, 4.96),
    ("NKX", 1.666, 1.044, 45.94),
    ("SHC", 1.583, 0.852, 60.02),
    ("HSI", 1.640, 1.048, 44.03),
    ("NSEI", 1.672, 1.556, 7.18),
    ("AUS", 1.400, 1.037, 29.81),
    ("NZ50", 1.690, 1.303, 25.89),
]

REFERENCE_STDDEV_ROWS = [
    ("SPX", 0.008, 0.008, 3.68),
    ("DJI", 0.008, 0.009, 3.51),
    ("NDQ", 0.009, 0.008, 12.20),
    ("BVP", 0.009, 0.011, 20.29),
    ("TSX", 0.011, 0.007, 39.57),
    ("EUS", 0.009, 0.009, 4.49),
    ("GBR", 0.009, 0.009, 3.43),
    ("DAX", 0.009, 0.009, 1.12),
    ("WIG20", 0.008, 0.008, 2.50),
    ("NKX", 0.009, 0.009, 7.82),
    ("SHC", 0.009, 0.007, 17.28),
    ("HSI", 0.009, 0.007, 20.00),
    ("NSEI", 0.009, 0.012, 25.49),
    ("AUS", 0.009, 0.008, 8.38),
    ("NZ50", 0.012, 0.012, 0.85),
]


def _worst_row_deviation(rows):
    worst_name, worst_dev = "", -1.0
    for name, before, after, printed in rows:
        computed = abs(pct_difference(before, after)) * 100.0
        dev = abs(computed - printed)
        if dev > worst_dev:
            worst_name, worst_dev = name, dev
    return worst_name, worst_dev


def test_criterion_2a_reference_entropy_percentages():
    t0 = time.perf_counter()
    name, dev = _worst_row_deviation(REFERENCE_ENTROPY_ROWS)
    elapsed = time.perf_counter() - t0
    _criterion(
        "2a",
        dev <= 0.15 and elapsed < 1.0,
        f"entropy columns: worst row {name} deviates {dev:.3f}pp (limit 0.15pp), {elapsed:.2f}s",
    )


def test_criterion_2b_reference_stddev_percentages():
    # 3-decimal roundings of values near 0.009 carry ~6% relative rounding
    # error, so the printed percentages cannot be reproduced to 0.15pp from
    # the printed inputs. Kept at the stated tolerance; see decisions ledger.
    name, dev = _worst_row_deviation(REFERENCE_STDDEV_ROWS)
    _criterion(
        "2b",
        dev <= 0.15,
        f"std-dev columns: worst row {name} deviates {dev:.3f}pp (limit 0.15pp)",
    )


# ----------------------------------------------------------------------
# 3. spectrum oracle equivalence
# ----------------------------------------------------------------------

def _naive_spectrum(values, windows, n_bins, lo, hi):
    out = []
    for start, end in windows:
        vals = values[start:end]
        if lo is None:
            wlo, whi = min(vals), max(vals)
            if wlo == whi:
                out.append(0.0)
                continue
        else:
            wlo, whi = lo, hi
        counts = [0] * n_bins
        for v in vals:
            i = int(math.floor((v - wlo) / (whi - wlo) * n_bins))
            counts[min(max(i, 0), n_bins - 1)] += 1
        total = len(vals)
        out.append(-sum(c / total * math.log(c / total) for c in counts if c))
    return np.array(out)


def test_criterion_3_oracle_equivalence_on_random_triples():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst = 0.0
    windows_checked = 0
    for _ in range(1000):
        n = int(rng.integers(30, 160))
        vals = rng.normal(0.0, float(rng.uniform(0.002, 2.0)), n)

        base = int(rng.integers(2, 16))
        inc = int(rng.integers(1, 8))
        max_steps = (n - base) // inc
        steps = int(rng.integers(0, min(3, max_steps) + 1)) if max_steps > 0 else 0
        stride = int(rng.integers(1, 10))
        span = base + steps * inc
        count = int(rng.integers(1, min(6, (n - span) // stride + 1) + 1))
        seq_spec = WindowSequenceSpec(
            base, inc, steps, stride,
            anchor_mode="grow-left" if rng.random() < 0.3 else "grow-right",
        )

        n_bins = int(rng.integers(1, 25))
        if rng.random() < 0.5:
            lo, hi = float(vals.min()), float(vals.max())
            if rng.random() < 0.5:
                mid, half = (lo + hi) / 2, (hi - lo) / 2
                lo, hi = mid - 0.6 * half, mid + 0.6 * half  # force clamping
            binning = BinningSpec(n_bins, lo=lo, hi=hi) if hi > lo else BinningSpec(n_bins)
        else:
            binning = BinningSpec(n_bins)

        # The series holds exactly ``count`` sequences; the fixed range
        # above comes from the whole draw.
        r = make_returns(vals[: span + (count - 1) * stride], frequency=Frequency.FIVE_MINUTE,
                         bars_per_day=40)
        spectra = spectra_for_series(r, seq_spec, binning)
        starts, ends = window_bounds(len(r), seq_spec)
        for sp, row_starts, row_ends in zip(spectra, starts.tolist(), ends.tolist()):
            windows = list(zip(row_starts, row_ends))
            want = _naive_spectrum(vals.tolist(), windows, n_bins, binning.lo, binning.hi)
            worst = max(worst, float(np.max(np.abs(sp.values - want))))
            windows_checked += len(windows)

    elapsed = time.perf_counter() - t0
    _criterion(
        3,
        worst <= 1e-12 and elapsed < 30.0,
        f"1000 random triples, {windows_checked} windows, worst |diff| = {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# 4. detector recall and false-flag rate on synthetic ground truth
# ----------------------------------------------------------------------

def _run_detector(seed, shocks=()):
    series, log = generate(
        SynthSpec(seed=seed, n_days=20, bars_per_day=78, volatility=0.001, shocks=shocks)
    )
    r = log_returns(series)
    binning = BinningSpec(
        velleman_bins(78), lo=float(r.values.min()), hi=float(r.values.max())
    )
    seq_spec = WindowSequenceSpec(base_length=78, increment=26, steps=3, stride=26)
    spectra = spectra_for_series(r, seq_spec, binning)
    return r, spectra, detect_events(spectra, threshold=3.0, min_persistence=2), log


def test_criterion_4_detector_false_flags_and_recall():
    t0 = time.perf_counter()
    false_runs = sum(1 for seed in range(100) if _run_detector(seed)[2])

    covered = 0
    for seed in range(100):
        shocks = (Shock(day_index=12, magnitude_sigma=10.0, shape=ShockShape.DISPERSED_DAY),)
        r, spectra, events, log = _run_detector(seed, shocks)
        shock_ts = log[0].timestamp
        # An onset covers the shock when its widest window holds it.
        starts, ends = window_bounds(len(r), spectra.spec)
        for ev in events:
            j = ev.onset_index
            if r.timestamps[starts[j, -1]] <= shock_ts <= r.timestamps[ends[j, -1] - 1]:
                covered += 1
                break

    elapsed = time.perf_counter() - t0
    _criterion(
        4,
        false_runs <= 5 and covered >= 95 and elapsed < 60.0,
        f"theta=3 persistence=2: false-flag runs {false_runs}/100 (limit 5), "
        f"onset covers shock {covered}/100 (need 95), {elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# 5. single shocked day flatter than the pooled span
# ----------------------------------------------------------------------

def test_criterion_5_shock_day_entropy_exceeds_span_entropy():
    t0 = time.perf_counter()
    wins = 0
    for seed in range(100):
        spec = SynthSpec(
            seed=seed, n_days=20, bars_per_day=78, volatility=0.001,
            shocks=(Shock(day_index=16, magnitude_sigma=10.0, shape=ShockShape.DISPERSED_DAY),),
        )
        series, log = generate(spec)
        r = log_returns(series)
        day = log[0].timestamp.astype("datetime64[D]")
        snap = pmf_snapshot(r, day, preceding_days=14)
        if snap.day_entropy > snap.span_entropy:
            wins += 1
    elapsed = time.perf_counter() - t0
    _criterion(
        5,
        wins >= 95 and elapsed < 30.0,
        f"H(shock day) > H(day + preceding 14) in {wins}/100 seeds (need 95), {elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# 6. moment sanity on seeded normals
# ----------------------------------------------------------------------

def test_criterion_6a_seeded_normal_moments():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    s = summarize_values(rng.standard_normal(100_000))
    elapsed = time.perf_counter() - t0
    _criterion(
        "6a",
        abs(s.skewness) < 0.05 and abs(s.kurtosis) < 0.1 and elapsed < 5.0,
        f"N=1e5: |skewness| = {abs(s.skewness):.4f} (< 0.05), "
        f"|excess kurtosis| = {abs(s.kurtosis):.4f} (< 0.1), {elapsed:.2f}s",
    )


def test_criterion_6b_single_outlier_kurtosis():
    # One 10-sigma point contributes 10^4 / 10^5 = 0.1 to the fourth moment
    # of a 1e5-point sample, so the stated bound of 1.0 is not reachable at
    # this sample size. Kept as stated; see decisions ledger.
    rng = np.random.default_rng(606)
    sample = np.append(rng.standard_normal(100_000), 10.0)
    s = summarize_values(sample)
    _criterion(
        "6b",
        s.kurtosis > 1.0,
        f"excess kurtosis with one 10-sigma outlier in N=1e5: {s.kurtosis:.4f} (need > 1.0)",
    )


# ----------------------------------------------------------------------
# 7. pipeline determinism and throughput
# ----------------------------------------------------------------------

def _write_cfg(path, instruments, out_dir, **extra):
    config = {
        "instruments": [
            {"id": i, "path": str(p), "frequency": "5min"} for i, p in instruments
        ],
        "out_dir": str(out_dir),
    }
    config.update(extra)
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_criterion_7_pipeline_determinism_and_speed(tmp_path):
    raw_dir = tmp_path / "raw"
    raw_dir.mkdir()
    instruments = []
    for i in range(15):
        name = f"ix{i:02d}"
        series, _ = generate(
            SynthSpec(seed=700 + i, n_days=257, bars_per_day=78, volatility=0.001,
                      instrument_id=name)
        )
        assert len(series) > 20_000
        path = raw_dir / f"{name}.csv"
        path.write_text(serialize_csv(series), encoding="utf-8")
        instruments.append((name, path))

    def run(tag):
        norm_dir = tmp_path / f"norm_{tag}"
        rep_dir = tmp_path / f"rep_{tag}"
        ingest_cfg = _write_cfg(tmp_path / f"ingest_{tag}.json", instruments, norm_dir)
        assert main(["ingest", "--config", str(ingest_cfg)]) == 0
        normalized = [(name, norm_dir / f"{name}.csv") for name, _ in instruments]
        report_cfg = _write_cfg(
            tmp_path / f"report_{tag}.json",
            normalized,
            rep_dir,
            anchor_date="2025-05-15",
            window_days=100,
        )
        assert main(["compare", "--config", str(report_cfg)]) == 0
        assert main(["spectrum", "--config", str(report_cfg)]) == 0
        files = {}
        for d in (norm_dir, rep_dir):
            for p in sorted(d.iterdir()):
                files[f"{d.name[-1]}:{p.name}".split(":", 1)[1]] = p.read_bytes()
        return files

    t0 = time.perf_counter()
    first = run("a")
    elapsed = time.perf_counter() - t0
    second = run("b")

    identical = first == second
    _criterion(
        7,
        identical and elapsed < 10.0,
        f"15 instruments x 20k bars: ingest+compare+spectrum in {elapsed:.1f}s (< 10s), "
        f"byte-identical rerun: {identical} ({len(first)} files)",
    )


# ----------------------------------------------------------------------
# 8. ingestion hygiene
# ----------------------------------------------------------------------

def test_criterion_8_dedup_exact_and_lossless_roundtrip():
    rng = np.random.default_rng(808)
    n = 3 * 78
    steps = rng.uniform(1e-4, 1e-3, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    closes = np.round(100.0 + np.concatenate([[0.0], np.cumsum(steps)]), 6)
    # plant two removable runs and one short run that must survive
    closes[50:62] = closes[50]
    closes[100:106] = closes[100]
    closes[150:160] = closes[150]
    series = make_intraday(closes, bars_per_day=78, instrument="planted")

    out, diag = dedup_closed_market(series, run_length=6)
    expected_keep = [
        i for i in range(n) if not (51 <= i < 62) and not (151 <= i < 160)
    ]
    dedup_exact = (
        diag.removed == 11 + 9
        and np.array_equal(out.timestamps, series.timestamps[expected_keep])
        and np.array_equal(out.closes, series.closes[expected_keep])
    )

    parsed, parse_diag = parse_csv(serialize_csv(out), Frequency.FIVE_MINUTE, "planted")
    roundtrip = (
        parse_diag.dropped == 0
        and np.array_equal(parsed.timestamps, out.timestamps)
        and np.array_equal(parsed.closes, out.closes)
    )
    _criterion(
        8,
        dedup_exact and roundtrip,
        f"planted runs removed exactly: {dedup_exact}, lossless CSV roundtrip: {roundtrip}",
    )
