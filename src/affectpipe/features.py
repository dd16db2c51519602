"""Sliding-window segmentation and per-modality feature computation.

Feature fusion is by column concatenation: each catalog entry contributes a
fixed set of named columns, and rows are keyed by (subject, phase, window).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sps
from scipy.interpolate import CubicSpline

from .errors import (
    AffectPipeError,
    DegenerateSpectrum,
    NoBeatsDetected,
    NoBreathsDetected,
    SampleRateTooLow,
    SeriesTooShort,
    TooFewBeats,
    TooFewSamples,
)
from .preprocessing import apply_zero_phase, design_butterworth
from .types import ABSENT, FeatureMatrix, SubjectBundle, TimeSeries

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
        if self.window_s <= 0 or self.step_s <= 0:
            raise ValueError("window_s and step_s must be positive")
        if self.step_s > self.window_s:
            raise ValueError("step_s may not exceed window_s (windows must tile)")


@dataclass(frozen=True)
class RRSeries:
    """Inter-beat intervals plus the R-peak times they were derived from."""

    rr_s: np.ndarray
    beat_times_s: np.ndarray

    def __post_init__(self):
        rr = np.asarray(self.rr_s, dtype=float)
        beats = np.asarray(self.beat_times_s, dtype=float)
        if rr.size != beats.size - 1:
            raise ValueError("len(rr_s) must equal len(beat_times_s) - 1")
        if np.any(rr <= 0):
            raise ValueError("RR intervals must be positive")
        if not np.allclose(rr, np.diff(beats), rtol=0, atol=1e-9):
            raise ValueError("rr_s inconsistent with beat_times_s")
        rr.setflags(write=False)
        beats.setflags(write=False)
        object.__setattr__(self, "rr_s", rr)
        object.__setattr__(self, "beat_times_s", beats)

    @classmethod
    def from_beat_times(cls, beat_times_s) -> "RRSeries":
        beats = np.asarray(beat_times_s, dtype=float)
        return cls(np.diff(beats), beats)


@dataclass(frozen=True)
class EDADecomposition:
    tonic: TimeSeries   # skin conductance level
    phasic: TimeSeries  # skin conductance response


def segment(series: TimeSeries, policy: WindowingPolicy) -> list[TimeSeries]:
    """Cut a series into sliding windows of ``window_s`` every ``step_s``.

    Window k spans [k*step, k*step + window) relative to the series start;
    with ``drop_incomplete`` the count is floor((T - window)/step) + 1.
    """
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
        win = n
    windows = []
    start = 0
    while start + win <= n:
        windows.append(_slice_series(series, start, start + win))
        start += step
    if not policy.drop_incomplete and start < n and n - start >= 2:
        windows.append(_slice_series(series, start, n))
    return windows


def _slice_series(series: TimeSeries, a: int, b: int) -> TimeSeries:
    return TimeSeries(
        subject_id=series.subject_id,
        phase=series.phase,
        modality=series.modality,
        timestamps=series.timestamps[a:b],
        values=series.values[a:b],
        sample_rate_hz=series.sample_rate_hz,
    )


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
    x = np.asarray(ecg.values, dtype=float)
    bp = design_butterworth("bandpass", 2, (5.0, 15.0), fs)
    filtered = apply_zero_phase(bp, ecg).values
    deriv = np.gradient(filtered)
    squared = deriv * deriv
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
    for idx in candidates:
        level = integrated[idx]
        threshold = npki + 0.25 * (spki - npki)
        if level > threshold:
            peaks.append(idx)
            spki = 0.125 * level + 0.875 * spki
        else:
            npki = 0.125 * level + 0.875 * npki
    if len(peaks) < 2:
        raise NoBeatsDetected("fewer than 2 beats detected")

    # refine each peak to the local maximum of the bandpassed ECG
    half = int(round(0.10 * fs))
    refined = []
    for idx in peaks:
        a, b = max(0, idx - half), min(x.size, idx + half + 1)
        refined.append(a + int(np.argmax(filtered[a:b])))
    refined = np.asarray(sorted(set(refined)), dtype=int)
    # enforce the refractory constraint after refinement
    keep = [refined[0]]
    for idx in refined[1:]:
        if idx - keep[-1] >= refractory:
            keep.append(idx)
    if len(keep) < 2:
        raise NoBeatsDetected("fewer than 2 beats after refinement")
    return np.asarray(keep, dtype=int)


def rr_from_ecg(ecg: TimeSeries) -> RRSeries:
    peaks = detect_r_peaks(ecg)
    return RRSeries.from_beat_times(ecg.timestamps[peaks])


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
    return {
        "hr_mean_bpm": float(np.mean(hr)),
        "hr_std_bpm": float(np.std(hr)),
        "rmssd_s": float(np.sqrt(np.mean(diffs * diffs))),
        "sdnn_s": float(np.std(rr_s)),
        "rr_mean_s": float(np.mean(rr_s)),
        "rr_median_s": float(np.median(rr_s)),
        "rr_std_s": float(np.std(rr_s)),
        "rr_var_s2": float(np.var(rr_s)),
    }


def tachogram(rr: RRSeries, fs_hz: float = TACHOGRAM_FS_HZ) -> tuple[np.ndarray, np.ndarray]:
    """Cubic-spline interpolation of RR onto a uniform grid."""
    t = rr.beat_times_s[1:]
    spline = CubicSpline(t, rr.rr_s)
    grid = np.arange(t[0], t[-1], 1.0 / fs_hz)
    return grid, spline(grid)


def hrv_freq_features(rr: RRSeries,
                      bands: dict[str, tuple[float, float]] | None = None,
                      min_span_s: float = 60.0) -> dict[str, float]:
    """Band powers of the RR tachogram plus the LF/HF ratio.

    The RR series is interpolated to a uniform 4 Hz tachogram and the PSD
    estimated by Welch's method (64 s segments or the full length if
    shorter, 50% overlap, Hann taper).  Band power is the trapezoid
    integral of the PSD over [lo, hi).
    """
    bands = dict(bands or DEFAULT_HRV_BANDS)
    span = rr.beat_times_s[-1] - rr.beat_times_s[0]
    if rr.rr_s.size < 4 or span < min_span_s:
        raise TooFewBeats(
            f"beat span {span:.1f} s below the {min_span_s:.0f} s minimum"
        )
    _, tach = tachogram(rr)
    tach = tach - np.mean(tach)
    nperseg = min(int(64 * TACHOGRAM_FS_HZ), tach.size)
    freqs, psd = sps.welch(tach, fs=TACHOGRAM_FS_HZ, window="hann",
                           nperseg=nperseg, noverlap=nperseg // 2)
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
    if smooth_cutoff_hz and phasic.sample_rate_hz > 2.5 * smooth_cutoff_hz:
        lp = design_butterworth("lowpass", 2, smooth_cutoff_hz,
                                phasic.sample_rate_hz)
        phasic = apply_zero_phase(lp, phasic)
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


# ---------------------------------------------------------------------------
# Generic statistics
# ---------------------------------------------------------------------------

def statistical_features(values, timestamps=None) -> dict[str, float]:
    """mean / median / population std & var / min / max / least-squares slope.

    Slope is against time in seconds (1/s units); with no timestamps a
    1 Hz grid is assumed.
    """
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        raise TooFewSamples("need at least 2 samples")
    t = np.arange(x.size, dtype=float) if timestamps is None else np.asarray(timestamps, float)
    tc = t - t.mean()
    denom = np.dot(tc, tc)
    slope = float(np.dot(tc, x - x.mean()) / denom) if denom > 0 else 0.0
    return {
        "mean": float(np.mean(x)),
        "median": float(np.median(x)),
        "std": float(np.std(x)),
        "var": float(np.var(x)),
        "min": float(np.min(x)),
        "max": float(np.max(x)),
        "slope": slope,
    }


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
    callable window -> {feature name: value}.  ``features`` optionally
    restricts and orders the emitted columns.
    """

    name: str
    modality: str
    computation: str
    parameters: dict = field(default_factory=dict)
    features: tuple[str, ...] | None = None


def _compute_stats(window: TimeSeries, params):
    return statistical_features(window.values, window.timestamps)


def _hrv_time(rr: RRSeries, window: TimeSeries, params):
    return hrv_time_features(rr)


def _hrv_freq(rr: RRSeries, window: TimeSeries, params):
    bands = params.get("bands")
    if bands is not None:
        bands = {k: tuple(v) for k, v in bands.items()}
    # windows trim a little span off either end, so the default minimum is
    # relaxed to 3/4 of the window length
    min_span = params.get("min_span_s", 0.75 * window.duration_s)
    return hrv_freq_features(rr, bands, min_span_s=min_span)


#: Computations of a window's inter-beat series, as ``fn(rr, window,
#: params)``.  :func:`extract_features` detects each window's R-peaks once
#: and hands the result to every entry naming one of these.
_RR_COMPUTATIONS = {"hrv_time": _hrv_time, "hrv_freq": _hrv_freq}


def _compute_hrv_time(window: TimeSeries, params):
    return _hrv_time(rr_from_ecg(window), window, params)


def _compute_hrv_freq(window: TimeSeries, params):
    return _hrv_freq(rr_from_ecg(window), window, params)


def _compute_eda_decomposed(window: TimeSeries, params):
    decomp = decompose_eda(window)
    out = {"scl_mean_us": float(np.mean(decomp.tonic.values)),
           "scl_std_us": float(np.std(decomp.tonic.values)),
           "scl_slope": statistical_features(decomp.tonic.values,
                                             decomp.tonic.timestamps)["slope"]}
    out.update(scr_events(decomp.phasic, params.get("min_amplitude_us", 0.01)))
    out["phasic_mean_us"] = float(np.mean(decomp.phasic.values))
    out["phasic_std_us"] = float(np.std(decomp.phasic.values))
    out["phasic_max_us"] = float(np.max(decomp.phasic.values))
    return out


def _compute_resp(window: TimeSeries, params):
    return resp_features(window)


def _compute_emg(window: TimeSeries, params):
    return emg_features(window)


COMPUTATIONS = {
    "ecg_stats": _compute_stats,
    "hrv_time": _compute_hrv_time,
    "hrv_freq": _compute_hrv_freq,
    "eda_stats": _compute_stats,
    "eda_decomposition": _compute_eda_decomposed,
    "statistics": _compute_stats,
    "resp": _compute_resp,
    "emg": _compute_emg,
}


def _entry_feature_names(entry: FeatureCatalogEntry) -> list[str]:
    if entry.features is not None:
        return list(entry.features)
    raise ValueError(
        f"catalog entry {entry.name!r} must declare its feature list "
        "so the column schema is known up front"
    )


def _resolve(entry: FeatureCatalogEntry):
    if callable(entry.computation):
        return entry.computation
    try:
        return COMPUTATIONS[entry.computation]
    except KeyError:
        raise ValueError(f"unknown computation {entry.computation!r}") from None


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


class _SeriesWindows:
    """One series cut into windows once, with R-peaks found at most once
    per window.  :func:`extract_features` keeps these for one
    (subject, phase) and then drops them."""

    def __init__(self, series: TimeSeries, policy: WindowingPolicy):
        self.windows = segment(series, policy)
        self._rr = [None] * len(self.windows)  # RRSeries or the error raised

    def rr(self, k: int) -> RRSeries:
        if self._rr[k] is None:
            try:
                self._rr[k] = rr_from_ecg(self.windows[k])
            except AffectPipeError as exc:
                self._rr[k] = exc
        if isinstance(self._rr[k], AffectPipeError):
            raise self._rr[k]
        return self._rr[k]


def _entry_values(entry: FeatureCatalogEntry, cut: _SeriesWindows) -> list[tuple]:
    """One value tuple per window; absent cells where the window failed."""
    names = _entry_feature_names(entry)
    from_rr = (_RR_COMPUTATIONS.get(entry.computation)
               if isinstance(entry.computation, str) else None)
    fn = _resolve(entry)
    values = []
    for k, w in enumerate(cut.windows):
        try:
            computed = (from_rr(cut.rr(k), w, entry.parameters) if from_rr
                        else fn(w, entry.parameters))
        except AffectPipeError:
            values.append((ABSENT,) * len(names))
            continue
        missing = [name for name in names if name not in computed]
        if missing:
            raise ValueError(
                f"catalog entry {entry.name!r} declares features {missing} "
                f"that computation {entry.computation!r} does not return "
                f"(it returns {sorted(computed)})"
            )
        values.append(tuple(computed[name] for name in names))
    return values


def extract_features(bundle: SubjectBundle,
                     policies: dict[str, WindowingPolicy] | WindowingPolicy,
                     catalog: list[FeatureCatalogEntry],
                     calculate_average: bool = False) -> FeatureMatrix:
    """Segment every series, run the catalog per window, fuse by columns.

    Each (subject, phase, modality) series is segmented once and its
    windows are shared by all of that modality's entries; the HRV entries
    also share one R-peak detection per window.

    With ``calculate_average`` the per-window feature time series collapses
    to one mean row per (subject, phase) with window_index 0.  A window
    whose computation raises an :class:`~affectpipe.errors.AffectPipeError`
    (the signal-quality errors such as NoBeatsDetected, TooFewBeats or
    SampleRateTooLow) contributes absent cells; such rows are dropped
    later, before classification.  Any other error propagates, and so does
    a ValueError when a computation returns no value for a declared
    ``features`` name.

    A computation may return text tags instead of numbers: such a column
    is one-hot encoded into ``name=tag`` indicator columns that follow the
    numeric columns (averaged, they become the share of windows with the
    tag).  A column mixing numbers and text raises a ValueError.
    """
    if not catalog:
        raise ValueError("feature catalog is empty")
    columns = []
    for entry in catalog:
        for feat in _entry_feature_names(entry):
            columns.append(f"{entry.name}.{feat}")

    keys, cells = [], []  # one (subject, phase, window) key and raw row per window
    for subject in bundle.subjects():
        for phase in bundle.phases_for(subject):
            cuts = {}  # modality name -> _SeriesWindows
            per_entry = []  # list of per-window value tuples, one per entry
            n_windows = None
            for entry in catalog:
                if entry.modality not in cuts:
                    series = bundle.find(subject, phase, entry.modality)
                    if series is None:
                        raise ValueError(
                            f"modality {entry.modality!r} missing for "
                            f"{subject}/{phase}"
                        )
                    policy = (policies if isinstance(policies, WindowingPolicy)
                              else policies[entry.modality])
                    cuts[entry.modality] = _SeriesWindows(series, policy)
                values = _entry_values(entry, cuts[entry.modality])
                per_entry.append(values)
                count = len(values)
                n_windows = count if n_windows is None else min(n_windows, count)
            for k in range(n_windows):
                keys.append((subject, phase, k))
                cells.append(tuple(v for values in per_entry for v in values[k]))
    columns, values = _encode(columns, cells)
    if calculate_average:
        starts = [i for i, key in enumerate(keys) if key[2] == 0]
        with warnings.catch_warnings():
            # a column absent in every window of a (subject, phase) has no mean
            warnings.filterwarnings("ignore", "Mean of empty slice", RuntimeWarning)
            means = [np.nanmean(values[a:b], axis=0)
                     for a, b in zip(starts, starts[1:] + [len(keys)])]
        values = np.array(means).reshape(len(starts), len(columns))
        values[np.isnan(values)] = ABSENT
        keys = [keys[i] for i in starts]
    return FeatureMatrix(columns, [key[0] for key in keys], [key[1] for key in keys],
                         [key[2] for key in keys], values)


def _encode(names: list[str], cells: list[tuple]) -> tuple[list[str], np.ndarray]:
    """Columns and float array of raw per-window cells.

    Numeric columns keep their order and come first.  Each text column then
    expands into ``name=tag`` indicator columns, in column order with its
    tags sorted; an absent cell gives absent indicators.
    """
    numeric, encoded = [], []  # (column name, cells)
    for j, name in enumerate(names):
        column = [row[j] for row in cells]
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
    values = np.empty((len(cells), len(layout)))
    for j, (_, column) in enumerate(layout):
        values[:, j] = column
    return [name for name, _ in layout], values
