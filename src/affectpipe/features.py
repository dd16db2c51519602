"""Sliding-window segmentation and per-modality feature computation.

Feature fusion is by column concatenation: each catalog entry contributes a
fixed set of named columns, and rows are keyed by (subject, phase, window).
"""

from __future__ import annotations

import functools
import warnings
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sps
from scipy.linalg import solve_banded

from .checks import AT_LEAST_ZERO, is_finite
from .errors import (
    AffectPipeError,
    CatalogError,
    DegenerateSpectrum,
    NoBeatsDetected,
    NoBreathsDetected,
    SampleRateTooLow,
    SeriesTooShort,
    TooFewBeats,
    TooFewSamples,
)
from .preprocessing import apply_zero_phase, design_butterworth
from .types import ABSENT, FeatureMatrix, SubjectBundle, TimeSeries, row_medians

#: Conventional wearable-HRV band edges in Hz (config-overridable).
DEFAULT_HRV_BANDS = {
    "ulf": (0.01, 0.04),
    "lf": (0.04, 0.15),
    "hf": (0.15, 0.40),
    "uhf": (0.40, 1.00),
}

#: Uniform tachogram rate for spectral HRV analysis.
TACHOGRAM_FS_HZ = 4.0


@dataclass(frozen=True)
class WindowingPolicy:
    window_s: float
    step_s: float
    drop_incomplete: bool = True

    def __post_init__(self):
        if not self.window_s > 0 or not self.step_s > 0:  # NaN fails too
            raise ValueError("window_s and step_s must be positive")
        if self.step_s > self.window_s:
            raise ValueError("step_s may not exceed window_s (windows must tile)")


@dataclass(frozen=True)
class RRSeries:
    """R-peak times and their intervals ``rr_s = np.diff(beat_times_s)``, both read-only."""

    beat_times_s: np.ndarray
    rr_s: np.ndarray = field(init=False)

    def __post_init__(self):
        beats = np.array(self.beat_times_s, dtype=float)  # the caller's stays writable
        rr = np.diff(beats)
        if np.any(rr <= 0):
            raise ValueError("beat times must increase")
        beats.setflags(write=False)
        rr.setflags(write=False)
        object.__setattr__(self, "beat_times_s", beats)
        object.__setattr__(self, "rr_s", rr)


@dataclass(frozen=True)
class EDADecomposition:
    tonic: TimeSeries   # skin conductance level
    phasic: TimeSeries  # skin conductance response


def segment(series: TimeSeries, policy: WindowingPolicy) -> list[TimeSeries]:
    """Cut a series into sliding windows of ``window_s`` every ``step_s``.

    Window k spans [k*step, k*step + window) relative to the series start;
    with ``drop_incomplete`` the count is floor((T - window)/step) + 1.
    Without it, a short last window runs to the series end, and a series
    shorter than one window is one window.
    """
    return [series.window(start, stop) for start, stop in _window_bounds(series, policy)]


def _window_bounds(series: TimeSeries, policy: WindowingPolicy) -> list[tuple[int, int]]:
    """Sample bounds ``(start, stop)`` of each window :func:`segment` cuts."""
    win, step, count, tail = _window_grid(series, policy)
    return [(k * step, k * step + win) for k in range(count)] + ([tail] if tail else [])


def _window_grid(series: TimeSeries, policy: WindowingPolicy):
    """``(win, step, count, tail)``: the :func:`segment` windows are ``count``
    windows of ``win`` samples every ``step`` samples from the first sample,
    then the bounds ``tail`` of a short last window, or None."""
    fs = series.sample_rate_hz
    n = len(series)
    win = int(round(policy.window_s * fs))
    step = int(round(policy.step_s * fs))
    if win < 2 or step < 1:
        raise SeriesTooShort("window or step shorter than the sampling interval")
    if n < win:
        if policy.drop_incomplete:
            raise SeriesTooShort(
                f"series of {n / fs:.1f} s shorter than {policy.window_s} s window"
            )
        return n, step, 1, None  # the whole series is the one window
    count = (n - win) // step + 1
    start = count * step
    tail = (start, n) if not policy.drop_incomplete and n - start >= 2 else None
    return win, step, count, tail


# ---------------------------------------------------------------------------
# ECG
# ---------------------------------------------------------------------------

REFRACTORY_S = 0.25


def detect_r_peaks(ecg: TimeSeries) -> np.ndarray:
    """QRS detection: bandpass -> derivative -> square -> integrate -> threshold.

    Returns sample indices of R peaks, at least 0.25 s apart.  Requires a
    preprocessed ECG sampled at >= 100 Hz.
    """
    fs = ecg.sample_rate_hz
    if fs < 100:
        raise SampleRateTooLow(f"R-peak detection needs fs >= 100 Hz, got {fs}")
    bp = design_butterworth("bandpass", 2, (5.0, 15.0), fs)
    filtered = apply_zero_phase(bp, ecg).values
    # squared in place, so the padded copy the refinement makes below does
    # not add to the most signal-length arrays held at once
    squared = np.gradient(filtered)
    squared *= squared
    win = max(1, int(round(0.150 * fs)))
    integrated = np.convolve(squared, np.ones(win) / win, mode="same")

    refractory = int(round(REFRACTORY_S * fs))
    candidates, _ = sps.find_peaks(integrated, distance=refractory)
    if candidates.size == 0:
        raise NoBeatsDetected("no QRS energy above the noise floor")

    # adaptive signal/noise running estimates in the classic style
    spki = float(np.max(integrated[: int(2 * fs)])) * 0.25 if integrated.size else 0.0
    npki = float(np.mean(integrated[: int(2 * fs)])) * 0.5
    peaks = []
    for idx, level in zip(candidates.tolist(), integrated[candidates].tolist()):
        threshold = npki + 0.25 * (spki - npki)
        if level > threshold:
            peaks.append(idx)
            spki = 0.125 * level + 0.875 * spki
        else:
            npki = 0.125 * level + 0.875 * npki
    if len(peaks) < 2:
        raise NoBeatsDetected("fewer than 2 beats detected")

    # refine each peak to the first maximum of the bandpassed ECG within
    # 0.1 s: one argmax over windows gathered from the ECG padded with
    # -inf, which the finite ECG always beats, so a window that runs past
    # an end takes the same index as the clipped window
    half = int(round(0.10 * fs))
    padded = np.pad(filtered, half, constant_values=-np.inf)
    windows = sliding_window_view(padded, 2 * half + 1)[peaks]
    refined = np.asarray(peaks) - half + np.argmax(windows, axis=1)
    # enforce the refractory constraint after refinement
    refined = np.unique(refined).tolist()
    keep = [refined[0]]
    for idx in refined[1:]:
        if idx - keep[-1] >= refractory:
            keep.append(idx)
    if len(keep) < 2:
        raise NoBeatsDetected("fewer than 2 beats after refinement")
    return np.asarray(keep, dtype=int)


def hrv_time_features(rr: RRSeries) -> dict[str, float]:
    """Time-domain HRV: RMSSD, SDNN, and HR / RR statistics.

    rmssd = sqrt(mean of squared successive RR differences); sdnn is the
    population standard deviation of RR; hr_mean is the mean of 60/RR.
    """
    rr_s = rr.rr_s
    if rr_s.size < 3:
        raise TooFewBeats(f"need at least 3 RR intervals, got {rr_s.size}")
    diffs = np.diff(rr_s)
    hr = 60.0 / rr_s
    rr_var = np.var(rr_s)
    rr_std = float(np.sqrt(rr_var))  # np.std's own sqrt of np.var
    return {
        "hr_mean_bpm": float(np.mean(hr)),
        "hr_std_bpm": float(np.std(hr)),
        "rmssd_s": float(np.sqrt(np.mean(diffs * diffs))),
        "sdnn_s": rr_std,
        "rr_mean_s": float(np.mean(rr_s)),
        "rr_median_s": float(np.median(rr_s)),
        "rr_std_s": rr_std,
        "rr_var_s2": float(rr_var),
    }


def tachogram(rr: RRSeries, fs_hz: float = TACHOGRAM_FS_HZ) -> tuple[np.ndarray, np.ndarray]:
    """Not-a-knot cubic-spline interpolation of RR onto a uniform grid.

    The spline's knots are the beat times that end each interval; it needs
    at least 4 of them (``TooFewBeats`` otherwise).
    """
    if rr.rr_s.size < 4:
        raise TooFewBeats(f"a tachogram needs at least 4 RR intervals, got {rr.rr_s.size}")
    t = rr.beat_times_s[1:]
    grid = np.arange(t[0], t[-1], 1.0 / fs_hz)
    return grid, _spline(t, rr.rr_s, grid)


def _spline(x: np.ndarray, y: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``scipy.interpolate.CubicSpline(x, y)(grid)`` for 1-D ``y`` and at
    least 4 strictly increasing knots ``x``, with SciPy's operations in
    SciPy's order, so every value is bit for bit the same."""
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # knot slopes s from a tridiagonal system, in banded (1, 1) form
    ab = np.zeros((3, n))
    b = np.empty(n)
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    # not-a-knot ends: the third derivative is continuous at x[1] and x[-2]
    ab[1, 0] = dx[1]
    ab[0, 1] = d = x[2] - x[0]
    b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    ab[1, -1] = dx[-2]
    ab[-1, -2] = d = x[-1] - x[-3]
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True,
                     check_finite=False)
    # Hermite coefficients of each interval, highest power first
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0, c1, c2, c3 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]
    # evaluated as PPoly does: the interval is closed on the left (the last
    # one on both sides), and the power sum runs up from the constant term
    i = np.clip(np.searchsorted(x, grid, side="right") - 1, 0, n - 2)
    z = grid - x[i]
    z2 = z * z
    return 0.0 + c3[i] + c2[i] * z + c1[i] * z2 + c0[i] * (z2 * z)


@functools.lru_cache(maxsize=16)
def _psd_window(n: int, fs_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Periodic Hann window of ``n`` samples scaled to PSD units, and the
    one-sided frequencies of an ``n``-point FFT; both read-only, as they
    are shared between calls."""
    win = sps.get_window("hann", n)
    # the builtin sum adds left to right, as SciPy's ShortTimeFFT does
    win = win * (1 / np.sqrt(sum(win ** 2) / (1 / fs_hz)))
    freqs = scipy.fft.rfftfreq(n, 1 / fs_hz)
    win.setflags(write=False)
    freqs.setflags(write=False)
    return win, freqs


def _welch(x: np.ndarray, fs_hz: float, nperseg: int) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.signal.welch(x, fs_hz, window="hann", nperseg=nperseg,
    noverlap=nperseg // 2)`` with SciPy 1.17's operations in its order, so
    the frequencies and PSD are bit for bit the same."""
    win, freqs = _psd_window(nperseg, fs_hz)
    segments = sliding_window_view(x, nperseg)[::nperseg - nperseg // 2]
    segments = segments - np.mean(segments, axis=-1, keepdims=True)
    spectra = scipy.fft.rfft(segments * win, axis=-1)
    power = spectra.real ** 2 + spectra.imag ** 2
    power[:, 1:-1 if nperseg % 2 == 0 else None] *= 2  # one-sided: fold negatives
    # SciPy averages a (frequencies, segments) array along its rows
    return freqs, np.ascontiguousarray(power.T).mean(axis=-1)


def hrv_freq_features(rr: RRSeries,
                      bands: dict[str, tuple[float, float]] | None = None,
                      min_span_s: float = 60.0) -> dict[str, float]:
    """Band powers of the RR tachogram plus the LF/HF ratio.

    The RR series is interpolated by a not-a-knot cubic spline to a
    uniform 4 Hz tachogram, whose mean is removed.  Its PSD is Welch's
    estimate: segments of min(256, n) samples at 50% overlap, a constant
    detrend of each segment, a periodic Hann window, PSD scaling (one-sided,
    the inner bins doubled) and the mean over segments.  affectpipe computes
    the spline and the PSD in its own kernels, bit for bit equal to SciPy
    1.17's ``CubicSpline`` and ``welch``.  Band power is the trapezoid
    integral of the PSD over the closed [lo, hi], both edges interpolated
    (:func:`band_power`).
    """
    bands = bands or DEFAULT_HRV_BANDS
    span = rr.beat_times_s[-1] - rr.beat_times_s[0]
    if span < min_span_s:
        raise TooFewBeats(
            f"beat span {span:.1f} s below the {min_span_s:.0f} s minimum"
        )
    _, tach = tachogram(rr)
    tach = tach - np.mean(tach)
    nperseg = min(int(64 * TACHOGRAM_FS_HZ), tach.size)
    freqs, psd = _welch(tach, TACHOGRAM_FS_HZ, nperseg)
    out = {}
    for name, (lo, hi) in bands.items():
        out[f"{name}_power"] = band_power(freqs, psd, lo, hi)
    if "lf" in bands and "hf" in bands:
        lf, hf = out["lf_power"], out["hf_power"]
        if hf <= 0:
            if lf > 0:
                raise DegenerateSpectrum("HF power is zero; LF/HF would be infinite")
            out["lf_hf_ratio"] = 0.0  # zero-variance spectrum: no power anywhere
        else:
            out["lf_hf_ratio"] = lf / hf
    return out


def band_power(freqs: np.ndarray, psd: np.ndarray, lo: float, hi: float) -> float:
    """Trapezoid integral of a PSD over [lo, hi], with interpolated edges."""
    grid = np.unique(np.concatenate([freqs[(freqs >= lo) & (freqs <= hi)], [lo, hi]]))
    grid = grid[(grid >= freqs[0]) & (grid <= freqs[-1])]
    if grid.size < 2:
        return 0.0
    return float(np.trapezoid(np.interp(grid, freqs, psd), grid))


# ---------------------------------------------------------------------------
# EDA
# ---------------------------------------------------------------------------

TONIC_CUTOFF_HZ = 0.05


def decompose_eda(eda: TimeSeries) -> EDADecomposition:
    """Split EDA into tonic (SCL) and phasic (SCR) components.

    Tonic is a 0.05 Hz zero-phase lowpass of the signal; phasic is the
    residual, so tonic + phasic reconstructs the input exactly.
    """
    lp = design_butterworth("lowpass", 2, TONIC_CUTOFF_HZ, eda.sample_rate_hz)
    tonic = apply_zero_phase(lp, eda)
    phasic = eda.with_values(np.asarray(eda.values) - np.asarray(tonic.values))
    return EDADecomposition(tonic=tonic, phasic=phasic)


SCR_SMOOTH_CUTOFF_HZ = 1.0


def scr_events(phasic: TimeSeries, min_amplitude_us: float = 0.01,
               smooth_cutoff_hz: float = SCR_SMOOTH_CUTOFF_HZ) -> dict[str, float]:
    """Count skin conductance responses in a phasic series.

    An event is a local maximum whose rise from the preceding local minimum
    (onset) is at least ``min_amplitude_us``.  Measurement noise would turn
    every onset into the nearest noise dip, so the series is smoothed with a
    zero-phase lowpass (default 1 Hz, well above SCR bandwidth) first; pass
    ``smooth_cutoff_hz=0`` to disable.
    """
    phasic = _smooth(phasic, smooth_cutoff_hz)
    x = np.asarray(phasic.values, dtype=float)
    duration_min = phasic.duration_s / 60.0
    peaks, _ = sps.find_peaks(x)
    amplitudes = []
    if peaks.size:
        # a trough (plateau) is visible to find_peaks on the prefix x[:p],
        # the onset search of peak p, only if its right edge is <= p - 2
        troughs, props = sps.find_peaks(-x, plateau_size=1)
        trough_ends = props["right_edges"]
        prefix_min = np.minimum.accumulate(x)
        for p in peaks.tolist():
            k = np.searchsorted(trough_ends, p - 2, side="right")
            onset_level = x[troughs[k - 1]] if k else prefix_min[p - 1]
            rise = x[p] - onset_level
            if rise >= min_amplitude_us:
                amplitudes.append(rise)
    count = len(amplitudes)
    return {
        "scr_count": float(count),
        "scr_rate_per_min": count / duration_min if duration_min > 0 else 0.0,
        "scr_mean_amplitude_us": float(np.mean(amplitudes)) if amplitudes else 0.0,
    }


def _smooth(phasic: TimeSeries, cutoff_hz: float) -> TimeSeries:
    """The zero-phase lowpass of :func:`scr_events`; a no-op for a cutoff of
    0 or one too close to the Nyquist rate."""
    if cutoff_hz and phasic.sample_rate_hz > 2.5 * cutoff_hz:
        lp = design_butterworth("lowpass", 2, cutoff_hz, phasic.sample_rate_hz)
        phasic = apply_zero_phase(lp, phasic)
    return phasic


# ---------------------------------------------------------------------------
# Generic statistics
# ---------------------------------------------------------------------------

#: Names :func:`statistical_features` returns.
STAT_FEATURES = ("mean", "median", "std", "var", "min", "max", "slope")
#: Byte cap on the (windows, samples) block of samples that
#: :func:`_window_statistics` reduces at once (its median partitions a copy).
STATS_BLOCK_BYTES = 256 * 1024


def statistical_features(values, timestamps=None) -> dict[str, float]:
    """mean / median / population std & var / min / max / least-squares slope.

    Slope is against time in seconds (1/s units); with no timestamps a
    1 Hz grid is assumed.  This is the one-row case of
    :func:`_window_statistics`.
    """
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        raise TooFewSamples("need at least 2 samples")
    t = np.arange(x.size, dtype=float) if timestamps is None else np.asarray(timestamps, float)
    stats = _window_statistics(x[None, :], t[None, :], STAT_FEATURES)
    return {name: float(stats[name][0]) for name in STAT_FEATURES}


def _window_statistics(X, T, names) -> dict[str, np.ndarray]:
    """The statistics ``names`` (of :data:`STAT_FEATURES`) of each row of
    the (windows, samples) arrays ``X`` of samples and ``T`` of their times.

    Each row reduces along the last axis exactly as its 1-D reductions
    would: the variance sums the squared deviations from the mean as np.var
    does, and each row's slope is one dot product.  The result may hold
    statistics beyond ``names``.
    """
    wanted = set(names)
    out = {"mean": X.mean(axis=1)}
    if wanted & {"std", "var", "slope"}:
        d = X - out["mean"][:, None]
        if wanted & {"std", "var"}:
            out["var"] = (d * d).sum(axis=1) / X.shape[1]
            out["std"] = np.sqrt(out["var"])
        if "slope" in wanted:
            out["slope"] = _slopes(d, T)
    if "median" in wanted:
        out["median"] = row_medians(X)
    if "min" in wanted:
        out["min"] = X.min(axis=1)
    if "max" in wanted:
        out["max"] = X.max(axis=1)
    return out


def _slopes(d, t) -> np.ndarray:
    """Least-squares slope of each row of ``d`` (samples minus their row
    mean) against the same row of ``t``."""
    tc = t - t.mean(axis=1)[:, None]
    # vecdot takes each row's dot product with np.dot's float64 kernel
    denom = np.vecdot(tc, tc)
    return np.divide(np.vecdot(tc, d), denom, out=np.zeros(d.shape[0]), where=denom > 0)


# ---------------------------------------------------------------------------
# RESP
# ---------------------------------------------------------------------------

def resp_features(resp: TimeSeries) -> dict[str, float]:
    """Breath timing from alternating zero crossings of the filtered signal.

    Rising segments (negative-to-positive crossing until the next crossing)
    count as inhalation, falling segments as exhalation.
    """
    x = np.asarray(resp.values, dtype=float)
    t = np.asarray(resp.timestamps, dtype=float)
    sign = np.sign(x)
    sign[sign == 0] = 1
    crossings = np.flatnonzero(np.diff(sign) != 0) + 1
    if crossings.size < 3:
        raise NoBreathsDetected("fewer than one full breath cycle")
    rising = crossings[x[crossings] > x[crossings - 1]]
    if rising.size < 2:
        raise NoBreathsDetected("no complete breath cycles")

    inhales, exhales = [], []
    for a, b in zip(crossings[:-1], crossings[1:]):
        duration = t[b] - t[a]
        if x[a] > x[a - 1]:
            inhales.append(duration)
        else:
            exhales.append(duration)
    cycle_span = t[rising[-1]] - t[rising[0]]
    breath_rate = 60.0 * (rising.size - 1) / cycle_span if cycle_span > 0 else 0.0

    maxima, _ = sps.find_peaks(x)
    minima, _ = sps.find_peaks(-x)
    out = {
        "inhale_mean_s": float(np.mean(inhales)) if inhales else 0.0,
        "exhale_mean_s": float(np.mean(exhales)) if exhales else 0.0,
        "breath_rate_per_min": breath_rate,
        "maxima_mean": float(np.mean(x[maxima])) if maxima.size else 0.0,
        "maxima_std": float(np.std(x[maxima])) if maxima.size else 0.0,
        "minima_mean": float(np.mean(x[minima])) if minima.size else 0.0,
        "minima_std": float(np.std(x[minima])) if minima.size else 0.0,
    }
    out["inhale_exhale_ratio"] = (
        out["inhale_mean_s"] / out["exhale_mean_s"] if out["exhale_mean_s"] > 0 else 0.0
    )
    return out


# ---------------------------------------------------------------------------
# EMG
# ---------------------------------------------------------------------------

EMG_BAND_TOP_HZ = 350.0
EMG_N_BANDS = 10
EMG_SUBWINDOW_S = 5.0


def emg_features(emg: TimeSeries) -> dict[str, float]:
    """Two feature groups from a raw EMG window.

    Group A (10 Hz highpass): statistical features plus spectral energy in
    ten equal bands spanning 0-350 Hz, computed over 5 s subwindows and
    averaged.  Group B (50 Hz lowpass): peak count and peak-amplitude
    statistics over the full window.
    """
    fs = emg.sample_rate_hz
    if fs < 2 * EMG_BAND_TOP_HZ:
        raise SampleRateTooLow(
            f"EMG spectral bands reach {EMG_BAND_TOP_HZ} Hz; need fs >= "
            f"{2 * EMG_BAND_TOP_HZ}, got {fs}"
        )
    hp = design_butterworth("highpass", 4, 10.0, fs)
    high = apply_zero_phase(hp, emg)
    out = {f"a_{k}": v for k, v in
           statistical_features(high.values, high.timestamps).items()}

    edges = np.linspace(0.0, EMG_BAND_TOP_HZ, EMG_N_BANDS + 1)
    sub = int(round(EMG_SUBWINDOW_S * fs))
    xs = np.asarray(high.values, dtype=float)
    n_sub = max(1, xs.size // sub)
    energies = np.zeros(EMG_N_BANDS)
    for i in range(n_sub):
        chunk = xs[i * sub:(i + 1) * sub]
        freqs, psd = sps.periodogram(chunk, fs=fs)
        for j in range(EMG_N_BANDS):
            energies[j] += band_power(freqs, psd, edges[j], edges[j + 1])
    energies /= n_sub
    for j in range(EMG_N_BANDS):
        out[f"a_band_{j}_energy"] = float(energies[j])

    lp = design_butterworth("lowpass", 4, 50.0, fs)
    low = apply_zero_phase(lp, emg)
    xl = np.asarray(low.values, dtype=float)
    peaks, _ = sps.find_peaks(xl, height=np.mean(xl))
    out["b_peak_count"] = float(peaks.size)
    out["b_peak_mean"] = float(np.mean(xl[peaks])) if peaks.size else 0.0
    out["b_peak_std"] = float(np.std(xl[peaks])) if peaks.size else 0.0
    out["b_peak_max"] = float(np.max(xl[peaks])) if peaks.size else 0.0
    for k, v in statistical_features(xl, low.timestamps).items():
        out[f"b_{k}"] = v
    return out


# ---------------------------------------------------------------------------
# Catalog and the extractor itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureCatalogEntry:
    """One extraction operation bound to a modality.

    ``computation`` names a registered extractor (see COMPUTATIONS) or is a
    callable window -> {feature name: value}.  ``features`` names and
    orders the emitted columns; it is required, since :func:`check_catalog`
    rejects an entry without it.
    """

    name: str
    modality: str
    computation: str
    parameters: dict = field(default_factory=dict)
    features: tuple[str, ...] | None = None


class _SeriesWindows:
    """One preprocessed series, the sample bounds of its windows and the
    windows themselves, for one (subject, phase, modality).

    Per series, each at most once and only when an entry needs it: R-peak
    detection, and the EDA tonic/phasic split plus the SCR smoothing of the
    phasic part.  Per window, slices of those results: the series beats
    inside the window's bounds as an :class:`RRSeries` (memoised, so
    ``hrv_time`` and ``hrv_freq`` share it), and ``TimeSeries.window``
    slices of tonic, phasic and smoothed phasic.  A result that failed with
    an :class:`~affectpipe.errors.AffectPipeError` is kept and raised again
    for every window that asks for it.
    """

    def __init__(self, series: TimeSeries, policy: WindowingPolicy):
        self.series = series
        self.grid = _window_grid(series, policy)
        self.bounds = _window_bounds(series, policy)
        self.windows = segment(series, policy)  # the same bounds, cut
        self._results = {}  # "beats", "eda" or ("rr", k) -> result or error

    def _once(self, key, compute):
        if key not in self._results:
            try:
                self._results[key] = compute()
            except AffectPipeError as exc:
                self._results[key] = exc
        result = self._results[key]
        if isinstance(result, AffectPipeError):
            raise result.with_traceback(None)  # else each raise adds frames to it
        return result

    def rr(self, k: int) -> RRSeries:
        """Window k's inter-beat series, from the series beats in its bounds."""
        return self._once(("rr", k), lambda: self._window_rr(k))

    def _window_rr(self, k: int) -> RRSeries:
        peaks = self._once("beats", lambda: detect_r_peaks(self.series))
        start, stop = self.bounds[k]
        inside = peaks[np.searchsorted(peaks, start):np.searchsorted(peaks, stop)]
        if inside.size < 2:
            raise NoBeatsDetected(f"fewer than 2 beats in window {k}")
        return RRSeries(self.series.timestamps[inside])

    def eda(self, k: int) -> tuple[TimeSeries, TimeSeries, TimeSeries]:
        """Window k's slices of tonic, phasic and smoothed phasic."""
        parts = self._once("eda", self._decompose)
        start, stop = self.bounds[k]
        return tuple(part.window(start, stop) for part in parts)

    def _decompose(self):
        decomp = decompose_eda(self.series)
        return decomp.tonic, decomp.phasic, _smooth(decomp.phasic, SCR_SMOOTH_CUTOFF_HZ)


def _series_stats(cut: _SeriesWindows, names) -> list[list]:
    """Every window's statistics ``names``, one list per name, as
    :func:`statistical_features` gives them.  The full-length windows are
    rows of one strided (windows, samples) view, reduced in blocks of
    :data:`STATS_BLOCK_BYTES`; a short last window is a block of its own."""
    win, step, count, tail = cut.grid
    samples, times = cut.series.values, cut.series.timestamps
    X = sliding_window_view(samples, win)[::step]
    T = sliding_window_view(times, win)[::step]
    rows = max(1, STATS_BLOCK_BYTES // (X.itemsize * win))
    blocks = [(X[i:i + rows], T[i:i + rows]) for i in range(0, count, rows)]
    if tail:
        blocks.append((samples[None, slice(*tail)], times[None, slice(*tail)]))
    stats = [_window_statistics(x, t, names) for x, t in blocks]
    return [np.concatenate([block[name] for block in stats]).tolist() for name in names]


def _hrv_freq(cut: _SeriesWindows, k: int, params):
    # windows trim a little span off either end, so the default minimum is
    # relaxed to 3/4 of the window length
    min_span = params.get("min_span_s", 0.75 * cut.windows[k].duration_s)
    return hrv_freq_features(cut.rr(k), params.get("bands"), min_span_s=min_span)


def _hrv_freq_names(params) -> tuple[str, ...]:
    bands = params.get("bands") or DEFAULT_HRV_BANDS
    ratio = ("lf_hf_ratio",) if "lf" in bands and "hf" in bands else ()
    return tuple(f"{name}_power" for name in bands) + ratio


def _compute_eda_decomposed(cut: _SeriesWindows, k: int, params):
    tonic, phasic, smoothed = cut.eda(k)
    scl = _window_statistics(tonic.values[None], tonic.timestamps[None], ("mean", "std", "slope"))
    out = {"scl_mean_us": float(scl["mean"][0]), "scl_std_us": float(scl["std"][0]),
           "scl_slope": float(scl["slope"][0])}
    out.update(scr_events(smoothed, params.get("min_amplitude_us", 0.01),
                          smooth_cutoff_hz=0))
    stats = _window_statistics(phasic.values[None], phasic.timestamps[None], ("mean", "std", "max"))
    out.update(phasic_mean_us=float(stats["mean"][0]), phasic_std_us=float(stats["std"][0]),
               phasic_max_us=float(stats["max"][0]))
    return out


def _is_band(edges) -> bool:
    return (isinstance(edges, (list, tuple)) and len(edges) == 2
            and all(map(is_finite, edges)) and 0 <= edges[0] < edges[1])


_BANDS = (lambda v: isinstance(v, Mapping) and all(
    isinstance(name, str) and _is_band(edges) for name, edges in v.items()),
    "a mapping of band name to two finite numbers lo, hi with 0 <= lo < hi")


@dataclass(frozen=True)
class _Computation:
    """A registered computation and the feature names it returns.

    ``fn(cut, k, params)`` gives ``{name: value}`` for window k of the
    :class:`_SeriesWindows` ``cut``, from ``cut.windows[k]``, ``cut.rr(k)``
    or ``cut.eda(k)``.  ``names`` is a tuple, or a function of the entry
    parameters giving one.  ``reads`` maps each entry parameter ``fn``
    reads to its check, a (predicate, description) pair.  When set,
    ``series`` replaces the per-window calls: ``series(cut, names)`` gives
    one list per name of every window's values, equal to ``fn``'s.
    """

    fn: Callable
    names: tuple[str, ...] | Callable[[dict], tuple[str, ...]] | None
    series: Callable | None = None
    reads: dict = field(default_factory=dict)

    def declared(self, params) -> tuple[str, ...]:
        return self.names(params) if callable(self.names) else self.names


_STATS = _Computation(
    lambda cut, k, p: statistical_features(cut.windows[k].values, cut.windows[k].timestamps),
    STAT_FEATURES, series=_series_stats)

COMPUTATIONS = {
    "ecg_stats": _STATS,
    "hrv_time": _Computation(lambda cut, k, p: hrv_time_features(cut.rr(k)), (
        "hr_mean_bpm", "hr_std_bpm", "rmssd_s", "sdnn_s", "rr_mean_s",
        "rr_median_s", "rr_std_s", "rr_var_s2")),
    "hrv_freq": _Computation(_hrv_freq, _hrv_freq_names, reads={
        "bands": _BANDS, "min_span_s": AT_LEAST_ZERO}),
    "eda_stats": _STATS,
    "eda_decomposition": _Computation(_compute_eda_decomposed, (
        "scl_mean_us", "scl_std_us", "scl_slope", "scr_count",
        "scr_rate_per_min", "scr_mean_amplitude_us", "phasic_mean_us",
        "phasic_std_us", "phasic_max_us"), reads={"min_amplitude_us": AT_LEAST_ZERO}),
    "statistics": _STATS,
    "resp": _Computation(lambda cut, k, p: resp_features(cut.windows[k]), (
        "inhale_mean_s", "exhale_mean_s", "breath_rate_per_min", "maxima_mean",
        "maxima_std", "minima_mean", "minima_std", "inhale_exhale_ratio")),
    "emg": _Computation(lambda cut, k, p: emg_features(cut.windows[k]), (
        tuple(f"a_{k}" for k in STAT_FEATURES)
        + tuple(f"a_band_{j}_energy" for j in range(EMG_N_BANDS))
        + ("b_peak_count", "b_peak_mean", "b_peak_std", "b_peak_max")
        + tuple(f"b_{k}" for k in STAT_FEATURES))),
}


def _resolve(entry: FeatureCatalogEntry) -> _Computation:
    """The entry's registered computation; a custom callable ``fn(window,
    params)`` runs on window k itself and declares no names."""
    if callable(entry.computation):
        fn = entry.computation
        return _Computation(lambda cut, k, p: fn(cut.windows[k], p), None)
    try:
        return COMPUTATIONS[entry.computation]
    except KeyError:
        raise CatalogError(f"unknown computation {entry.computation!r}") from None


def _undeclared(entry: FeatureCatalogEntry, returned) -> CatalogError:
    missing = [name for name in entry.features if name not in returned]
    return CatalogError(
        f"catalog entry {entry.name!r} declares features {missing} "
        f"that computation {entry.computation!r} does not return "
        f"(it returns {sorted(returned)})"
    )


def column_entry(column: str) -> str:
    """The catalog entry of matrix column ``entry.feature`` (one-hot:
    ``entry.feature=tag``); exact, as :func:`check_catalog` keeps ``.`` out
    of entry names."""
    return column.partition(".")[0]


def check_catalog(catalog: list[FeatureCatalogEntry]) -> tuple[list[_Computation], list[str]]:
    """Reject a catalog before any window is computed; return each entry's
    computation and the matrix columns, ``entry.feature`` in catalog order.

    Raises :class:`~affectpipe.errors.CatalogError`, naming the entry, for
    an empty catalog, an entry name holding ``.``, an entry without a
    ``features`` list, a column that an entry repeats or another entry
    gives too, an unknown computation, a ``parameters`` key its registered
    computation does not read, a parameter value its check rejects (see
    ``_Computation.reads``), or a ``features`` name it does not declare.
    Names of a custom callable are checked per window instead, and its
    parameters not at all.
    """
    if not catalog:
        raise CatalogError("feature catalog is empty")
    columns, computations = [], []
    for entry in catalog:
        if "." in str(entry.name):  # so column_entry reads the entry back exactly
            raise CatalogError(f"catalog entry {entry.name!r} holds '.', which ends the "
                               "entry name in a column name 'entry.feature'")
        if entry.features is None:
            raise CatalogError(f"catalog entry {entry.name!r} must declare its feature "
                               "list so the column schema is known up front")
        for column in (f"{entry.name}.{feat}" for feat in entry.features):
            if column in columns:
                raise CatalogError(f"catalog entry {entry.name!r} repeats column {column!r}")
            columns.append(column)
        computation = _resolve(entry)
        computations.append(computation)
        if computation.names is not None:
            unread = [key for key in entry.parameters if key not in computation.reads]
            if unread:
                raise CatalogError(
                    f"catalog entry {entry.name!r} gives parameters {unread} that "
                    f"computation {entry.computation!r} does not read "
                    f"(it reads {list(computation.reads)})")
            for key, value in entry.parameters.items():
                check, must = computation.reads[key]
                if not check(value):
                    raise CatalogError(f"catalog entry {entry.name!r} parameter "
                                       f"{key!r} must be {must}, got {value!r}")
            declared = computation.declared(entry.parameters)
            if not set(entry.features) <= set(declared):
                raise _undeclared(entry, declared)
    return computations, columns


def ecg_eda_catalog() -> list[FeatureCatalogEntry]:
    """Default 14-column catalog for binary stress work on ECG + EDA."""
    return [
        FeatureCatalogEntry(
            "ecg_stats", "ECG", "ecg_stats",
            features=("mean", "median", "std", "var")),
        FeatureCatalogEntry(
            "hrv_time", "ECG", "hrv_time",
            features=("hr_mean_bpm", "rmssd_s", "sdnn_s")),
        FeatureCatalogEntry(
            "hrv_freq", "ECG", "hrv_freq",
            parameters={"bands": {"lf": (0.04, 0.15), "hf": (0.15, 0.40)}},
            features=("lf_power", "hf_power", "lf_hf_ratio")),
        FeatureCatalogEntry(
            "eda_stats", "EDA", "eda_stats", features=("mean", "std")),
        FeatureCatalogEntry(
            "eda_scr", "EDA", "eda_decomposition",
            features=("scl_mean_us", "scr_rate_per_min")),
    ]


def _entry_columns(entry: FeatureCatalogEntry, computation: _Computation,
                   cut: _SeriesWindows) -> list[list]:
    """One list of per-window values per feature name; absent cells where
    the window failed."""
    names = entry.features
    if computation.series:
        return computation.series(cut, names)
    columns = [[] for _ in names]
    for k in range(len(cut.windows)):
        try:
            computed = computation.fn(cut, k, entry.parameters)
        except AffectPipeError:
            computed = dict.fromkeys(names, ABSENT)
        if not all(name in computed for name in names):
            raise _undeclared(entry, computed)
        for column, name in zip(columns, names):
            column.append(computed[name])
    return columns


def extract_features(bundle: SubjectBundle,
                     policy: WindowingPolicy,
                     catalog: list[FeatureCatalogEntry],
                     calculate_average: bool = False) -> FeatureMatrix:
    """Segment every series, run the catalog per window, fuse by columns.

    The catalog is checked first (:func:`check_catalog`).  Each (subject,
    phase, modality) series is segmented once and its windows are shared
    by all of that modality's entries.  Signal work whose result does not
    depend on the window runs once per series: R-peak detection for
    ``hrv_time`` and ``hrv_freq``, and the EDA tonic/phasic split with the
    SCR smoothing for ``eda_decomposition``.  Each window then takes its
    slice: the series beats inside its bounds, or its samples of tonic,
    phasic and smoothed phasic.  Everything else (statistics, RESP, EMG,
    custom callables) runs on the window itself.  An entry's modality
    matches the series' whatever its case.

    With ``calculate_average`` the per-window feature time series collapses
    to one mean row per (subject, phase) with window_index 0.  A window
    whose computation raises an :class:`~affectpipe.errors.AffectPipeError`
    (the signal-quality errors such as NoBeatsDetected, TooFewBeats or
    SampleRateTooLow) contributes absent cells; so does every window of a
    series whose R-peak detection or EDA split failed.  Such rows are
    dropped later, before classification.  Any other error propagates, and
    so does a CatalogError (a ValueError) when a custom computation returns
    no value for a declared ``features`` name.

    A computation may return text tags instead of numbers: such a column
    is one-hot encoded into ``name=tag`` indicator columns that follow the
    numeric columns (averaged, they become the share of windows with the
    tag).  A column mixing numbers and text raises a ValueError.
    """
    computations, columns = check_catalog(catalog)

    keys = []  # one (subject, phase, window) key per row
    cells = [[] for _ in columns]  # one list of raw cells per column
    for subject in bundle.subjects():
        for phase in bundle.phases_for(subject):
            cuts = {}  # the bundle's modality name -> _SeriesWindows
            per_entry = []  # this (subject, phase)'s cells, one list per column
            for entry, computation in zip(catalog, computations):
                series = bundle.find(subject, phase, entry.modality)
                if series is None:
                    raise ValueError(f"modality {entry.modality!r} missing for {subject}/{phase}")
                cut = cuts.get(series.modality.name)
                if cut is None:
                    cut = cuts[series.modality.name] = _SeriesWindows(series, policy)
                per_entry += _entry_columns(entry, computation, cut)
            n_windows = min(len(cut.windows) for cut in cuts.values())
            keys += [(subject, phase, k) for k in range(n_windows)]
            for column, entry_column in zip(cells, per_entry):
                column += entry_column[:n_windows]
    columns, values = _encode(columns, cells, len(keys))
    if calculate_average:
        starts = [i for i, key in enumerate(keys) if key[2] == 0]
        with warnings.catch_warnings():
            # a column absent in every window of a (subject, phase) has no mean
            warnings.filterwarnings("ignore", "Mean of empty slice", RuntimeWarning)
            means = [np.nanmean(values[a:b], axis=0)
                     for a, b in zip(starts, starts[1:] + [len(keys)])]
        values = np.array(means).reshape(len(starts), len(columns))
        # not a no-op: the mean of an all-absent column is a NaN with its
        # sign bit set; absent cells keep the one bit pattern of ABSENT
        values[np.isnan(values)] = ABSENT
        keys = [keys[i] for i in starts]
    return FeatureMatrix(columns, [key[0] for key in keys], [key[1] for key in keys],
                         [key[2] for key in keys], values)


def _encode(names: list[str], cells: list[list],
            n_rows: int) -> tuple[list[str], np.ndarray]:
    """Columns and float array of ``n_rows`` raw per-window cells, given as
    one list per column.

    Numeric columns keep their order and come first.  Each text column then
    expands into ``name=tag`` indicator columns, in column order with its
    tags sorted; an absent cell gives absent indicators.
    """
    numeric, encoded = [], []  # (column name, cells)
    for name, column in zip(names, cells):
        tags = sorted({v for v in column if isinstance(v, str)})
        if not tags:
            numeric.append((name, column))
            continue
        if any(not isinstance(v, str) and v == v for v in column):
            raise ValueError(f"column {name!r} mixes numbers and text")
        encoded += [(f"{name}={tag}", [ABSENT if v != v else float(v == tag)
                                       for v in column])
                    for tag in tags]
    layout = numeric + encoded
    values = np.empty((n_rows, len(layout)))
    for j, (_, column) in enumerate(layout):
        values[:, j] = column
    return [name for name, _ in layout], values
