import functools
import traceback
import warnings

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy import signal as sps
from scipy.interpolate import CubicSpline

from affectpipe import (
    RRSeries,
    SubjectBundle,
    WindowingPolicy,
    band_power,
    decompose_eda,
    detect_r_peaks,
    ecg_eda_catalog,
    emg_features,
    extract_features,
    hrv_freq_features,
    hrv_time_features,
    resp_features,
    scr_events,
    segment,
    statistical_features,
)
from affectpipe import features
from affectpipe.features import FeatureCatalogEntry
from affectpipe.errors import (
    CatalogError,
    DegenerateSpectrum,
    NoBeatsDetected,
    NoBreathsDetected,
    SampleRateTooLow,
    SeriesTooShort,
    TooFewBeats,
    TooFewSamples,
)
from affectpipe.synth import (
    EcgSpec,
    EdaSpec,
    EmgSpec,
    RespSpec,
    scr_shape,
    synth_ecg,
    synth_eda,
    synth_emg,
    synth_resp,
)
from affectpipe.types import ABSENT, FeatureMatrix, row_medians

from conftest import make_series, sine_series


# --- segmentation ---

def test_segment_180s_60_30_gives_5():
    s = sine_series(1.0, 10.0, 180.0)
    assert len(segment(s, WindowingPolicy(60.0, 30.0))) == 5


def test_segment_exact_fit_gives_1():
    s = sine_series(1.0, 10.0, 60.0)
    assert len(segment(s, WindowingPolicy(60.0, 30.0))) == 1


def test_segment_too_short_raises():
    s = sine_series(1.0, 10.0, 59.0)
    with pytest.raises(SeriesTooShort):
        segment(s, WindowingPolicy(60.0, 30.0))


def test_segment_short_series_kept_whole_is_one_window():
    # 50 s at 4 Hz, shorter than one 60 s window
    s = make_series(np.arange(200.0), 4.0)
    windows = segment(s, WindowingPolicy(60.0, 30.0, drop_incomplete=False))
    assert len(windows) == 1
    np.testing.assert_array_equal(windows[0].values, s.values)


def test_extract_short_series_kept_whole_is_one_row():
    s = make_series(np.sin(np.arange(200.0)), 4.0, modality_name="EDA")
    entry = FeatureCatalogEntry("eda", "EDA", "eda_stats", features=("mean", "std"))
    m = extract_features(SubjectBundle({"S1": [s]}),
                         WindowingPolicy(60.0, 30.0, drop_incomplete=False), [entry])
    stats = statistical_features(s.values, s.timestamps)
    assert m.window_indices.tolist() == [0]
    assert m.values.tolist() == [[stats["mean"], stats["std"]]]


def test_extract_an_entry_on_a_modality_the_bundle_lacks_names_it():
    s = make_series(np.sin(np.arange(400.0)), 4.0, modality_name="ECG")
    entries = [FeatureCatalogEntry("ecg", "ECG", "ecg_stats", features=("mean",)),
               FeatureCatalogEntry("eda", "eda", "eda_stats", features=("mean",))]
    with pytest.raises(ValueError, match=r"^modality 'eda' missing for S1/rest$"):
        extract_features(SubjectBundle({"S1": [s]}), WindowingPolicy(60.0, 30.0), entries)


def test_policy_rejects_step_above_window():
    with pytest.raises(ValueError):
        WindowingPolicy(30.0, 60.0)


@pytest.mark.parametrize("window_s, step_s", [(float("nan"), 30.0), (60.0, float("nan"))])
def test_policy_rejects_nan_durations(window_s, step_s):
    with pytest.raises(ValueError, match="positive"):
        WindowingPolicy(window_s, step_s)


@given(st.integers(600, 2500), st.integers(10, 600))
@settings(max_examples=40, deadline=None)
def test_segment_count_law(n, step_samples):
    fs = 10.0
    s = make_series(np.zeros(n), fs)
    windows = segment(s, WindowingPolicy(60.0, step_samples / fs))
    assert len(windows) == (n - 600) // step_samples + 1
    assert all(len(w) == 600 for w in windows)


# --- R-peak detection ---

def test_r_peaks_60bpm_count():
    ecg, truth = synth_ecg(EcgSpec(hr_bpm=60.0, noise_snr_db=40.0), 60.0, seed=1)
    peaks = detect_r_peaks(ecg)
    assert abs(peaks.size - len(truth.beat_times_s)) <= 1


def test_r_peaks_90bpm_snr10():
    ecg, truth = synth_ecg(EcgSpec(hr_bpm=90.0, noise_snr_db=10.0), 60.0, seed=2)
    peaks = detect_r_peaks(ecg)
    assert abs(peaks.size - len(truth.beat_times_s)) <= 2


def test_r_peaks_flatline_raises():
    s = make_series(np.zeros(250 * 30), 250.0)
    with pytest.raises(NoBeatsDetected):
        detect_r_peaks(s)


def test_r_peaks_respect_refractory():
    ecg, _ = synth_ecg(EcgSpec(hr_bpm=120.0, hrv_rmssd_target_s=0.05,
                               noise_snr_db=20.0), 60.0, seed=3)
    peaks = detect_r_peaks(ecg)
    assert np.min(np.diff(ecg.timestamps[peaks])) >= 0.25


def test_r_peak_times_match_truth():
    ecg, truth = synth_ecg(EcgSpec(hr_bpm=72.0, hrv_rmssd_target_s=0.04,
                                   noise_snr_db=30.0), 60.0, seed=4)
    detected = np.asarray(ecg.timestamps)[detect_r_peaks(ecg)]
    true = np.asarray(truth.beat_times_s)
    # every true beat has a detection within 50 ms
    for bt in true[1:-1]:
        assert np.min(np.abs(detected - bt)) < 0.05


def _per_peak_r_peaks(ecg):
    """detect_r_peaks with its per-peak refinement, kept as the reference:
    one argmax over each peak's clipped 0.1 s window.  Also returns the
    unrefined peaks and the half window, so a test can see which peaks
    sat within 0.1 s of an end."""
    fs = ecg.sample_rate_hz
    x = np.asarray(ecg.values, dtype=float)
    bp = features.design_butterworth("bandpass", 2, (5.0, 15.0), fs)
    filtered = features.apply_zero_phase(bp, ecg).values
    deriv = np.gradient(filtered)
    squared = deriv * deriv
    win = max(1, int(round(0.150 * fs)))
    integrated = np.convolve(squared, np.ones(win) / win, mode="same")
    refractory = int(round(features.REFRACTORY_S * fs))
    candidates, _ = sps.find_peaks(integrated, distance=refractory)
    spki = float(np.max(integrated[: int(2 * fs)])) * 0.25
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
    half = int(round(0.10 * fs))
    refined = []
    for idx in peaks:
        a, b = max(0, idx - half), min(x.size, idx + half + 1)
        refined.append(a + int(np.argmax(filtered[a:b])))
    refined = np.asarray(sorted(set(refined)), dtype=int)
    keep = [refined[0]]
    for idx in refined[1:]:
        if idx - keep[-1] >= refractory:
            keep.append(idx)
    return np.asarray(keep, dtype=int), peaks, half


def _assert_r_peaks_match_per_peak_refinement(ecg):
    """Windows of ``ecg`` at 50 offsets, so beats land at every distance
    from both ends; returns how many windows had a peak within 0.1 s of
    the start and of the end."""
    fs = ecg.sample_rate_hz
    near_start = near_end = 0
    for offset in range(0, 200, 4):
        w = ecg.window(offset, offset + int(10 * fs) + offset // 2)
        expected, peaks, half = _per_peak_r_peaks(w)
        got = detect_r_peaks(w)
        assert got.dtype == expected.dtype and got.tolist() == expected.tolist()
        near_start += peaks[0] < half
        near_end += peaks[-1] >= len(w) - half
    return near_start, near_end


def test_r_peaks_equal_per_peak_refinement_near_both_ends():
    ecg, _ = synth_ecg(EcgSpec(hr_bpm=75.0, hrv_rmssd_target_s=0.04,
                               noise_snr_db=20.0), 30.0, seed=5)
    near_start, near_end = _assert_r_peaks_match_per_peak_refinement(ecg)
    assert near_start > 0 and near_end > 0


def test_r_peaks_on_plateaus_take_the_first_maximum(monkeypatch):
    # the bandpassed ECG clipped below its R waves: every refinement window
    # holds a run of equal maxima, and both refinements take its first index
    apply = features.apply_zero_phase

    def clipped(coeffs, series):
        out = apply(coeffs, series)
        return out.with_values(np.minimum(out.values, 0.3 * out.values.max()))

    monkeypatch.setattr(features, "apply_zero_phase", clipped)
    ecg, _ = synth_ecg(EcgSpec(hr_bpm=75.0, hrv_rmssd_target_s=0.04,
                               noise_snr_db=20.0), 30.0, seed=6)
    near_start, near_end = _assert_r_peaks_match_per_peak_refinement(ecg)
    assert near_start > 0 and near_end > 0
    # the plateaus are real: a refined peak is the first sample at the cap
    w = ecg.window(0, len(ecg))
    bp = features.design_butterworth("bandpass", 2, (5.0, 15.0), w.sample_rate_hz)
    filtered = clipped(bp, w).values
    peaks = detect_r_peaks(w)
    assert np.all(filtered[peaks] == filtered.max())
    assert np.all(filtered[peaks - 1] < filtered.max())
    assert np.all(filtered[peaks + 1] == filtered.max())


# --- time-domain HRV ---

def _rr(intervals):
    beats = 0.5 + np.concatenate([[0.0], np.cumsum(intervals)])
    return RRSeries(beats)


def test_rr_series_derives_read_only_intervals_from_beat_times():
    beats = np.array([0.5, 1.3, 2.3, 3.1])
    rr = RRSeries(beats)
    assert rr.rr_s.tobytes() == np.diff(beats).tobytes()
    for arr in (rr.beat_times_s, rr.rr_s):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    beats[0] = 0.0  # the caller's array stays writable, the series unchanged
    assert rr.beat_times_s[0] == 0.5
    for bad in ([0.5, 1.3, 1.3], [0.5, 1.3, 1.0]):
        with pytest.raises(ValueError, match="beat times must increase"):
            RRSeries(bad)


def test_hrv_time_constant_rr():
    out = hrv_time_features(_rr([1.0, 1.0, 1.0, 1.0]))
    assert out["rmssd_s"] == 0.0
    assert out["sdnn_s"] == 0.0
    assert out["hr_mean_bpm"] == pytest.approx(60.0)


def test_hrv_time_hand_example():
    out = hrv_time_features(_rr([0.8, 1.0, 0.8]))
    assert out["rmssd_s"] == pytest.approx(0.2, rel=1e-12)
    assert out["hr_mean_bpm"] == pytest.approx(70.0, rel=1e-12)


def test_hrv_time_too_few_beats():
    with pytest.raises(TooFewBeats):
        hrv_time_features(_rr([0.8, 0.9]))


def test_hrv_time_std_is_numpy_std():
    rr = _rr(np.random.default_rng(31).uniform(0.5, 1.5, 97))
    out = hrv_time_features(rr)
    assert out["sdnn_s"] == out["rr_std_s"] == float(np.std(rr.rr_s))
    assert out["rr_var_s2"] == float(np.var(rr.rr_s))


@given(st.lists(st.floats(0.4, 1.8), min_size=3, max_size=40))
@settings(max_examples=50, deadline=None)
def test_hrv_time_brute_force_oracle(intervals):
    out = hrv_time_features(_rr(intervals))
    rr = np.asarray(intervals)
    rmssd = np.sqrt(sum((rr[i + 1] - rr[i]) ** 2 for i in range(rr.size - 1))
                    / (rr.size - 1))
    sdnn = np.sqrt(sum((v - rr.mean()) ** 2 for v in rr) / rr.size)
    assert out["rmssd_s"] == pytest.approx(rmssd, rel=1e-9, abs=1e-12)
    assert out["sdnn_s"] == pytest.approx(sdnn, rel=1e-9, abs=1e-12)


# --- frequency-domain HRV ---

def _modulated_rr(f_mod, depth=0.05, mean_rr=1.0, n_beats=180):
    beats = [0.0]
    for _ in range(n_beats):
        t = beats[-1]
        beats.append(t + mean_rr + depth * np.sin(2 * np.pi * f_mod * t))
    return RRSeries(np.asarray(beats))


def test_hrv_freq_lf_modulation_localized():
    out = hrv_freq_features(
        _modulated_rr(0.10),
        bands={"lf": (0.04, 0.15), "total": (0.01, 0.50)})
    assert out["lf_power"] >= 0.80 * out["total_power"]


def test_hrv_freq_hf_modulation_ratio():
    out = hrv_freq_features(_modulated_rr(0.30))
    assert out["lf_hf_ratio"] < 0.25


def test_hrv_freq_constant_rr_zero_power():
    out = hrv_freq_features(_rr([1.0] * 120))
    for name in ("ulf_power", "lf_power", "hf_power", "uhf_power"):
        assert out[name] < 1e-10
    assert out["lf_hf_ratio"] == 0.0


def test_hrv_freq_short_span_raises():
    with pytest.raises(TooFewBeats):
        hrv_freq_features(_rr([1.0] * 20))


def test_hrv_freq_degenerate_spectrum():
    # an HF band beyond the tachogram Nyquist has exactly zero power
    with pytest.raises(DegenerateSpectrum):
        hrv_freq_features(_modulated_rr(0.10),
                          bands={"lf": (0.04, 0.15), "hf": (2.5, 3.0)})


def test_band_powers_partition_to_total():
    rr = _modulated_rr(0.10, depth=0.03)
    edges = [0.0, 0.5, 1.0, 1.5, 2.0]
    bands = {f"b{i}": (edges[i], edges[i + 1]) for i in range(4)}
    out = hrv_freq_features(rr, bands=bands)
    # independent total: trapezoid of scipy's Welch PSD over the full range
    from affectpipe.features import TACHOGRAM_FS_HZ, tachogram
    _, tach = tachogram(rr)
    tach = tach - tach.mean()
    nperseg = min(int(64 * TACHOGRAM_FS_HZ), tach.size)
    freqs, psd = sps.welch(tach, fs=TACHOGRAM_FS_HZ, window="hann",
                           nperseg=nperseg, noverlap=nperseg // 2)
    total = np.trapezoid(psd, freqs)
    assert sum(out[f"b{i}_power"] for i in range(4)) == pytest.approx(total, rel=0.02)


def test_band_powers_nonnegative():
    out = hrv_freq_features(_modulated_rr(0.15))
    assert all(v >= 0.0 for k, v in out.items() if k.endswith("_power"))


# --- HRV spectrum kernels against SciPy ---

#: The Welch kernel repeats SciPy 1.17's arithmetic; another SciPy minor
#: version may order it differently, so there the PSD is compared within a
#: tolerance.
WELCH_EXACT = tuple(int(p) for p in scipy.__version__.split(".")[:2]) == (1, 17)


def _assert_psd_matches(freqs, psd, ref_freqs, ref_psd):
    if WELCH_EXACT:
        assert freqs.tobytes() == ref_freqs.tobytes()
        assert psd.tobytes() == ref_psd.tobytes()
    else:
        np.testing.assert_allclose(freqs, ref_freqs, rtol=1e-15, atol=0)
        np.testing.assert_allclose(psd, ref_psd, rtol=0,
                                   atol=1e-12 * np.abs(ref_psd).max())


@pytest.mark.parametrize("seed", range(6))
def test_spline_kernel_is_cubic_spline(seed):
    rng = np.random.default_rng(seed)
    for n in [4, 5, 6, 400, *rng.integers(4, 401, 60)]:
        x = np.cumsum(rng.uniform(0.05, 2.0, n)) + rng.uniform(-50, 50)
        y = rng.normal(0.9, 0.2, n)
        # the tachogram grid, every knot, and points beyond both ends
        grid = np.concatenate([np.arange(x[0], x[-1], 0.25), x,
                               [x[0] - 1.0, x[-1] + 1.0]])
        got = features._spline(x, y, grid)
        assert got.tobytes() == CubicSpline(x, y)(grid).tobytes(), n


def test_tachogram_is_cubic_spline_of_rr():
    rr = _modulated_rr(0.2, depth=0.1)
    grid, tach = features.tachogram(rr)
    t = rr.beat_times_s[1:]
    assert grid.tobytes() == np.arange(t[0], t[-1], 0.25).tobytes()
    assert tach.tobytes() == CubicSpline(t, rr.rr_s)(grid).tobytes()


def test_tachogram_needs_four_intervals():
    with pytest.raises(TooFewBeats):
        features.tachogram(_rr([0.8, 0.9, 1.0]))
    grid, tach = features.tachogram(_rr([0.8, 0.9, 1.0, 0.9]))
    assert grid.size == tach.size > 0


def _scipy_welch(x, nperseg):
    return sps.welch(x, fs=features.TACHOGRAM_FS_HZ, window="hann",
                     nperseg=nperseg, noverlap=nperseg // 2)


@pytest.mark.parametrize("n", [20, 21, 128, 255, 256, 257, 383, 384, 385,
                               511, 512, 1001, 2048, 3999, 4000])
def test_welch_kernel_is_scipy_welch(n):
    rng = np.random.default_rng(n)
    for x in (rng.normal(0.0, 0.05, n),
              0.9 + 0.1 * np.sin(0.3 * np.arange(n)) + rng.normal(0.0, 0.01, n)):
        nperseg = min(256, n)
        got = features._welch(x, features.TACHOGRAM_FS_HZ, nperseg)
        _assert_psd_matches(*got, *_scipy_welch(x, nperseg))


@pytest.mark.parametrize("n", [40, 256, 1000])
def test_welch_kernel_constant_input_has_no_power(n):
    x = np.full(n, 0.75)
    nperseg = min(256, n)
    freqs, psd = features._welch(x, features.TACHOGRAM_FS_HZ, nperseg)
    assert not psd.any()
    _assert_psd_matches(freqs, psd, *_scipy_welch(x, nperseg))


@pytest.mark.parametrize("f_mod", [0.03, 0.1, 0.3])
def test_hrv_freq_features_equal_the_scipy_reference(f_mod):
    rr = _modulated_rr(f_mod, depth=0.04, n_beats=300)
    t = rr.beat_times_s[1:]
    grid = np.arange(t[0], t[-1], 1.0 / features.TACHOGRAM_FS_HZ)
    tach = CubicSpline(t, rr.rr_s)(grid)
    tach = tach - np.mean(tach)
    freqs, psd = _scipy_welch(tach, min(256, tach.size))
    out = hrv_freq_features(rr)
    for name, (lo, hi) in features.DEFAULT_HRV_BANDS.items():
        ref = band_power(freqs, psd, lo, hi)
        if WELCH_EXACT:
            assert out[f"{name}_power"] == ref
        else:
            assert out[f"{name}_power"] == pytest.approx(
                ref, rel=1e-9, abs=1e-12 * psd.max() * (hi - lo))


# --- EDA ---

def test_eda_ramp_is_tonic():
    t = np.arange(32 * 120) / 32.0
    ramp = 2.0 + 0.5 * t / t[-1]
    s = make_series(ramp, 32.0, modality_name="EDA")
    decomp = decompose_eda(s)
    assert np.max(np.abs(decomp.phasic.values)) < 0.02 * 0.5


def test_eda_scr_survives_in_phasic():
    t = np.arange(32 * 120) / 32.0
    ramp = 2.0 + 0.5 * t / t[-1]
    transient = 0.6 * scr_shape(t - 60.0, rise_s=0.7, decay_s=3.0)
    s = make_series(ramp + transient, 32.0, modality_name="EDA")
    phasic = np.asarray(decompose_eda(s).phasic.values)
    # amplitude in the scr_events sense: rise from the preceding trough
    p = int(np.argmax(phasic))
    troughs, _ = sps.find_peaks(-phasic[:p])
    onset = phasic[troughs[-1]] if troughs.size else phasic[:p].min()
    assert phasic[p] - onset >= 0.90 * 0.6


def test_eda_reconstruction_exact():
    eda, _ = synth_eda(EdaSpec(scr_times_s=(10.0, 40.0),
                               scr_amplitudes_us=(0.5, 0.4)), 90.0, seed=5)
    decomp = decompose_eda(eda)
    recon = np.asarray(decomp.tonic.values) + np.asarray(decomp.phasic.values)
    np.testing.assert_allclose(recon, eda.values, atol=1e-6)


def test_scr_three_events_counted():
    eda, _ = synth_eda(EdaSpec(scr_times_s=(10.0, 30.0, 48.0),
                               scr_amplitudes_us=(0.5, 0.5, 0.5),
                               noise_std_us=0.0), 60.0)
    out = scr_events(decompose_eda(eda).phasic, 0.01)
    assert out["scr_count"] == 3.0
    assert out["scr_rate_per_min"] == pytest.approx(3.0, abs=0.05)


def test_scr_flat_phasic_zero():
    s = make_series(np.zeros(32 * 60), 32.0, modality_name="EDA")
    assert scr_events(s, 0.01)["scr_count"] == 0.0


def test_scr_below_threshold_ignored():
    eda, _ = synth_eda(EdaSpec(scr_times_s=(20.0, 40.0),
                               scr_amplitudes_us=(0.005, 0.005),
                               noise_std_us=0.0, drift_amplitude_us=0.0), 60.0)
    out = scr_events(decompose_eda(eda).phasic, 0.01)
    assert out["scr_count"] == 0.0


def _scr_events_rowwise(phasic, min_amplitude_us=0.01,
                        smooth_cutoff_hz=features.SCR_SMOOTH_CUTOFF_HZ):
    """Reference: the per-peak onset search, one find_peaks per peak."""
    if smooth_cutoff_hz and phasic.sample_rate_hz > 2.5 * smooth_cutoff_hz:
        lp = features.design_butterworth("lowpass", 2, smooth_cutoff_hz,
                                         phasic.sample_rate_hz)
        phasic = features.apply_zero_phase(lp, phasic)
    x = np.asarray(phasic.values, dtype=float)
    duration_min = phasic.duration_s / 60.0
    peaks, _ = sps.find_peaks(x)
    amplitudes = []
    for p in peaks:
        before = x[:p]
        troughs, _ = sps.find_peaks(-before)
        onset_level = x[troughs[-1]] if troughs.size else before.min() if before.size else x[p]
        rise = x[p] - onset_level
        if rise >= min_amplitude_us:
            amplitudes.append(rise)
    count = len(amplitudes)
    return {
        "scr_count": float(count),
        "scr_rate_per_min": count / duration_min if duration_min > 0 else 0.0,
        "scr_mean_amplitude_us": float(np.mean(amplitudes)) if amplitudes else 0.0,
    }


def _scr_cases():
    rng = np.random.default_rng(4)
    eda, _ = synth_eda(EdaSpec(scr_times_s=(6.0, 15.0, 21.0, 33.0, 47.0),
                               scr_amplitudes_us=(0.5, 0.2, 0.05, 0.8, 0.3)),
                       60.0, seed=2)
    phasic = decompose_eda(eda).phasic
    noisy = phasic.with_values(np.asarray(phasic.values)
                               + rng.normal(0.0, 0.02, len(phasic)))
    quantised = noisy.with_values(np.round(np.asarray(noisy.values) * 40) / 40)
    steps = make_series(rng.integers(0, 4, 3000).astype(float), 32.0,
                        modality_name="EDA")
    return {"smooth": phasic, "noisy": noisy, "quantised": quantised,
            "integer-steps": steps}


@pytest.mark.parametrize("case", ["smooth", "noisy", "quantised", "integer-steps"])
@pytest.mark.parametrize("smooth_cutoff_hz", [features.SCR_SMOOTH_CUTOFF_HZ, 0])
@pytest.mark.parametrize("min_amplitude_us", [0.0, 0.01, 0.1])
def test_scr_events_match_per_peak_search(case, smooth_cutoff_hz, min_amplitude_us):
    phasic = _scr_cases()[case]
    got = scr_events(phasic, min_amplitude_us, smooth_cutoff_hz)
    want = _scr_events_rowwise(phasic, min_amplitude_us, smooth_cutoff_hz)
    assert got == want


def test_scr_onset_ignores_trough_plateau_ending_before_peak():
    # the plateau at samples 3-4 ends at p - 1 for the peak at p = 5, so
    # find_peaks on the prefix x[:5] cannot see it: the onset is the
    # trough at sample 1 (level 2), a rise of 1, not 2
    x = np.array([5.0, 2.0, 4.0, 1.0, 1.0, 3.0, 0.0, 0.5, 0.2])
    s = make_series(x, 1.0, modality_name="EDA")
    got = scr_events(s, 0.0, smooth_cutoff_hz=0)
    assert got == _scr_events_rowwise(s, 0.0, smooth_cutoff_hz=0)
    # peaks at 2 (rise 4 - 2) and 5 (rise 3 - 2); for the peak at 7 the dip
    # at sample 6 ends at p - 1 too, so its onset is the plateau (level 1)
    # and the rise of -0.5 does not count
    assert got["scr_count"] == 2.0
    assert got["scr_mean_amplitude_us"] == 1.5


# --- statistics ---

def test_stats_hand_example():
    out = statistical_features([1.0, 2.0, 3.0])
    assert out["mean"] == 2.0
    assert out["median"] == 2.0
    assert out["var"] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert out["slope"] == pytest.approx(1.0, rel=1e-12)


def test_stats_constant_series():
    out = statistical_features([4.2] * 10)
    assert out["std"] == pytest.approx(0.0, abs=1e-12)
    assert out["slope"] == pytest.approx(0.0, abs=1e-12)


def test_stats_too_few_samples():
    with pytest.raises(TooFewSamples):
        statistical_features([1.0])


def test_stats_slope_normal_equation_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(0, 1, 200)
    t = np.arange(200) / 4.0
    out = statistical_features(x, t)
    a = np.vstack([t, np.ones_like(t)]).T
    slope_oracle = np.linalg.lstsq(a, x, rcond=None)[0][0]
    assert out["slope"] == pytest.approx(slope_oracle, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n_samples", [2, 7, 64, 1000])
def test_window_slopes_equal_the_per_row_dot_loop_bit_for_bit(n_samples):
    # rows of several lengths and scales, two of them over a constant time
    # row, whose slope is 0 whatever the samples
    rng = np.random.default_rng(n_samples)
    X = rng.normal(0, 1, (9, n_samples)) * rng.uniform(1e-3, 1e3, (9, 1))
    T = np.sort(rng.uniform(0, 600, (9, n_samples)), axis=1)
    T[[2, 6]] = 41.5
    d = X - X.mean(axis=1)[:, None]
    tc = T - T.mean(axis=1)[:, None]
    want = np.array([np.dot(t, x) / np.dot(t, t) if np.dot(t, t) > 0 else 0.0
                     for t, x in zip(tc, d)])
    got = features._slopes(d, T)
    assert got.tobytes() == want.tobytes()
    assert got[2] == got[6] == 0.0


def _statistical_features_reference(values, timestamps=None):
    """Reference: one numpy reduction per statistic."""
    x = np.asarray(values, dtype=float)
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


def _stats_cases():
    rng = np.random.default_rng(11)
    t = np.arange(3000) / 32.0
    return {
        "random": (rng.normal(3.0, 0.7, 3000), t),
        "constant": (np.full(500, 4.2), t[:500]),
        "integer-valued": (rng.integers(-5, 6, 1001).astype(float), t[:1001]),
        "two-sample": (np.array([0.1, 0.3]), np.array([0.0, 0.5])),
        "no-timestamps": (rng.normal(0.0, 1e-3, 777) + 1e3, None),
    }


@pytest.mark.parametrize("case", list(_stats_cases()))
def test_stats_bit_identical_to_one_reduction_per_statistic(case):
    values, timestamps = _stats_cases()[case]
    got = statistical_features(values, timestamps)
    want = _statistical_features_reference(values, timestamps)
    assert list(got) == list(want)
    assert np.array(list(got.values())).tobytes() == \
        np.array(list(want.values())).tobytes()


def _nan(payload):
    """A quiet NaN carrying ``payload`` in its low mantissa bits."""
    return np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(float)[0]


def _median_blocks():
    """(windows, samples) blocks of every shape the window medians meet."""
    rng = np.random.default_rng(17)
    blocks = {}
    for n in (2, 3, 7, 7500):
        blocks[f"normal-{n}"] = rng.normal(0.0, 1.0, (5, n))
        # few distinct values, so both middle values tie with their neighbours
        blocks[f"ties-{n}"] = rng.integers(-2, 3, (5, n)).astype(float)
        blocks[f"equal-{n}"] = np.full((3, n), 4.2)
        nan = rng.integers(-2, 3, (4, n)).astype(float)
        nan[0, 0] = _nan(0x123)              # at the start
        nan[1, n // 2] = -_nan(0x45)         # in the middle, negative
        nan[2, -1] = np.nan                  # at the end
        nan[3, :] = np.where(np.arange(n) % 2, nan[3], _nan(0x6))  # every other
        blocks[f"nan-{n}"] = nan
    return blocks


@pytest.mark.parametrize("case", list(_median_blocks()))
def test_window_medians_bit_identical_to_np_median(case):
    X = _median_blocks()[case]
    got = row_medians(X)
    assert got.tobytes() == np.median(X, axis=1).tobytes()
    # a strided view of overlapping windows, as the extractor passes them
    windows = np.lib.stride_tricks.sliding_window_view(X[0], max(1, X.shape[1] // 2))[::3]
    assert row_medians(windows).tobytes() == np.median(windows, axis=1).tobytes()


def test_window_medians_of_signed_zeros_equal_np_median():
    # when the middle values are zeros of both signs, each median takes the
    # sign of whichever zero its own partition leaves in the middle, so the
    # results compare equal but may differ in their sign bit
    for row in ([0.0, -0.0, -0.0, 1.0], [-0.0, 0.0, 2.0, -1.0], [0.0, -0.0, 0.0]):
        X = np.array([row])
        assert row_medians(X) == np.median(X, axis=1)


def _stats_bundle():
    """Two 25 Hz series (inexact timestamps) with drift and noise; the
    first holds NaN samples in a middle window and in its short last one."""
    rng = np.random.default_rng(5)
    series = []
    for phase, nan_at in (("rest", (1000, 3150)), ("stress", ())):
        values = rng.normal(2.0, 0.3, 3200) + np.linspace(0.0, 1.5, 3200)
        values[list(nan_at)] = np.nan
        series.append(make_series(values, 25.0, modality_name="EDA", phase=phase))
    return SubjectBundle({"S1": series})


@pytest.mark.parametrize("block_windows", [1, 2, 1000])
def test_extract_stats_in_blocks_equal_per_window_statistics(block_windows, monkeypatch):
    # 10 s windows every 3 s with the short last window kept: 40 windows of
    # 250 samples, then one of 200
    policy = WindowingPolicy(10.0, 3.0, drop_incomplete=False)
    monkeypatch.setattr(features, "STATS_BLOCK_BYTES", 8 * 250 * block_windows)
    catalog = [
        FeatureCatalogEntry("all", "EDA", "statistics", features=features.STAT_FEATURES),
        FeatureCatalogEntry("some", "EDA", "eda_stats", features=("std", "mean")),
    ]
    bundle = _stats_bundle()
    got = extract_features(bundle, policy, catalog)
    windows = [w for series in bundle.series_for("S1") for w in segment(series, policy)]
    assert [len(w) for w in windows] == ([250] * 40 + [200]) * 2
    for reference in (statistical_features, _statistical_features_reference):
        want = []
        for w in windows:
            stats = reference(w.values, w.timestamps)
            want.append([stats[name] for entry in catalog for name in entry.features])
        assert got.values.tobytes() == np.array(want).tobytes()
    assert np.isnan(got.values).any() and not np.isnan(got.values).all()


# --- RESP ---

def test_resp_rate_matches_truth():
    resp, _ = synth_resp(RespSpec(breaths_per_min=15.0, noise_std=0.0), 120.0)
    out = resp_features(resp)
    assert out["breath_rate_per_min"] == pytest.approx(15.0, abs=0.5)


def test_resp_symmetric_ratio():
    resp, _ = synth_resp(RespSpec(breaths_per_min=12.0, noise_std=0.0), 120.0)
    out = resp_features(resp)
    assert out["inhale_exhale_ratio"] == pytest.approx(1.0, abs=0.05)


def test_resp_flatline_raises():
    s = make_series(np.zeros(32 * 60), 32.0, modality_name="RESP")
    with pytest.raises(NoBreathsDetected):
        resp_features(s)


# --- EMG ---

def test_emg_white_noise_bands_equal():
    emg, _ = synth_emg(EmgSpec(noise_std_mv=0.05), 60.0, seed=11)
    out = emg_features(emg)
    energies = [out[f"a_band_{j}_energy"] for j in range(10)]
    assert max(energies) / min(energies) < 2.0


def test_emg_tone_localized():
    emg, _ = synth_emg(EmgSpec(noise_std_mv=0.005, tone_hz=100.0,
                               tone_amplitude_mv=1.0), 60.0, seed=12)
    out = emg_features(emg)
    energies = [out[f"a_band_{j}_energy"] for j in range(10)]
    # 100 Hz falls in band 2 (70-105 Hz)
    assert energies[2] >= 0.80 * sum(energies)


def test_emg_low_fs_rejected():
    s = make_series(np.zeros(250 * 10), 250.0, modality_name="EMG")
    with pytest.raises(SampleRateTooLow):
        emg_features(s)


# --- extract_features ---

def _stress_bundle(subjects=("S1", "S2"), duration=180.0):
    entries = {}
    for i, subject in enumerate(subjects):
        series = []
        for j, phase in enumerate(("rest", "stress")):
            hr = 65.0 if phase == "rest" else 90.0
            ecg, _ = synth_ecg(EcgSpec(hr_bpm=hr, hrv_rmssd_target_s=0.04,
                                       noise_snr_db=30.0), duration,
                               seed=10 * i + j, subject=subject, phase=phase)
            n_scr = 3 if phase == "rest" else 12
            times = tuple(np.linspace(8.0, duration - 20.0, n_scr))
            eda, _ = synth_eda(EdaSpec(scr_times_s=times,
                                       scr_amplitudes_us=(0.5,) * n_scr),
                               duration, seed=10 * i + j,
                               subject=subject, phase=phase)
            series += [ecg, eda]
        entries[subject] = series
    return SubjectBundle(entries)


def test_extract_average_row_count():
    m = extract_features(_stress_bundle(), WindowingPolicy(60.0, 30.0),
                         ecg_eda_catalog(), calculate_average=True)
    assert len(m) == 4
    assert m.window_indices.tolist() == [0] * 4


def test_extract_windowed_row_count():
    m = extract_features(_stress_bundle(subjects=("S1",)),
                         WindowingPolicy(60.0, 30.0),
                         ecg_eda_catalog(), calculate_average=False)
    # 5 windows per phase, 2 phases
    assert len(m) == 10


def test_extract_catalog_14_columns_in_order():
    m = extract_features(_stress_bundle(subjects=("S1",)),
                         WindowingPolicy(60.0, 30.0), ecg_eda_catalog(),
                         calculate_average=True)
    assert m.columns == (
        "ecg_stats.mean", "ecg_stats.median", "ecg_stats.std", "ecg_stats.var",
        "hrv_time.hr_mean_bpm", "hrv_time.rmssd_s", "hrv_time.sdnn_s",
        "hrv_freq.lf_power", "hrv_freq.hf_power", "hrv_freq.lf_hf_ratio",
        "eda_stats.mean", "eda_stats.std",
        "eda_scr.scl_mean_us", "eda_scr.scr_rate_per_min",
    )
    assert len(m.columns) == 14


def test_extract_invariant_to_subject_order():
    bundle = _stress_bundle(("S1", "S2"))
    swapped = SubjectBundle({s: bundle.series_for(s)
                             for s in reversed(bundle.subjects())})
    a = extract_features(bundle, WindowingPolicy(60.0, 30.0),
                         ecg_eda_catalog(), calculate_average=True)
    b = extract_features(swapped, WindowingPolicy(60.0, 30.0),
                         ecg_eda_catalog(), calculate_average=True)
    assert a.columns == b.columns
    for i in range(len(a)):
        j = next(j for j in range(len(b)) if (b.subject_ids[j], b.phases[j]) ==
                 (a.subject_ids[i], a.phases[i]))
        np.testing.assert_allclose(a.values[i], b.values[j])


def test_extract_failed_window_yields_absent_cells():
    flat = make_series(np.zeros(250 * 180), 250.0, subject="S1", phase="rest")
    bundle = SubjectBundle({"S1": [flat]})
    catalog = [FeatureCatalogEntry("hrv_time", "ECG", "hrv_time",
                                   features=("hr_mean_bpm", "rmssd_s"))]
    m = extract_features(bundle, WindowingPolicy(60.0, 30.0), catalog)
    assert len(m) == 5
    assert np.isnan(m.values).all()


def test_extract_unknown_computation_rejected():
    entry = FeatureCatalogEntry("x", "ECG", "hrv_spectrum", features=("a",))
    with pytest.raises(ValueError, match="unknown computation 'hrv_spectrum'"):
        extract_features(_stress_bundle(subjects=("S1",)),
                         WindowingPolicy(60.0, 30.0), [entry])


def test_extract_empty_catalog_rejected():
    with pytest.raises(ValueError):
        extract_features(_stress_bundle(subjects=("S1",)),
                         WindowingPolicy(60.0, 30.0), [])


def test_extract_catalog_modality_matches_whatever_its_case(monkeypatch):
    bundle = _stress_bundle(subjects=("S1",))
    policy = WindowingPolicy(60.0, 30.0)
    upper = extract_features(bundle, policy, ecg_eda_catalog())
    lower = extract_features(bundle, policy, [
        FeatureCatalogEntry(e.name, e.modality.lower(), e.computation, e.parameters,
                            e.features) for e in ecg_eda_catalog()])
    assert lower.columns == upper.columns
    assert lower.values.tobytes() == upper.values.tobytes()
    # an ECG and an ecg entry share one cut of the series: one R-peak
    # detection per (subject, phase)
    calls = []
    monkeypatch.setattr(features, "detect_r_peaks",
                        lambda s: calls.append(s.phase) or detect_r_peaks(s))
    extract_features(bundle, policy, [
        FeatureCatalogEntry("a", "ECG", "hrv_time", features=("rmssd_s",)),
        FeatureCatalogEntry("b", "ecg", "hrv_time", features=("sdnn_s",))])
    assert calls == ["rest", "stress"]


def test_extract_stress_features_move_as_expected():
    m = extract_features(_stress_bundle(subjects=("S1",)),
                         WindowingPolicy(60.0, 30.0), ecg_eda_catalog(),
                         calculate_average=True)
    cols = {c: i for i, c in enumerate(m.columns)}
    by_phase = dict(zip(m.phases.tolist(), m.values))
    assert (by_phase["stress"][cols["hrv_time.hr_mean_bpm"]]
            > by_phase["rest"][cols["hrv_time.hr_mean_bpm"]])
    assert (by_phase["stress"][cols["eda_scr.scr_rate_per_min"]]
            > by_phase["rest"][cols["eda_scr.scr_rate_per_min"]])


class _ReferenceCut:
    """What a computation reads of window k, made without _SeriesWindows:
    the window itself, the beats of an R-peak detection on the whole series
    inside its bounds, and its slices of the whole-series EDA decomposition
    and of its smoothed phasic part."""

    def __init__(self, series, policy):
        self.series = series
        self.windows = segment(series, policy)
        win = int(round(policy.window_s * series.sample_rate_hz))
        step = int(round(policy.step_s * series.sample_rate_hz))
        self.bounds = [(k * step, k * step + win) for k in range(len(self.windows))]

    @functools.cached_property
    def beats(self):
        return detect_r_peaks(self.series)

    @functools.cached_property
    def parts(self):
        decomp = decompose_eda(self.series)
        lp = features.design_butterworth("lowpass", 2, features.SCR_SMOOTH_CUTOFF_HZ,
                                         self.series.sample_rate_hz)
        return decomp.tonic, decomp.phasic, features.apply_zero_phase(lp, decomp.phasic)

    def rr(self, k):
        start, stop = self.bounds[k]
        beats = self.beats[(self.beats >= start) & (self.beats < stop)]
        if beats.size < 2:
            raise NoBeatsDetected("fewer than 2 beats")
        return RRSeries(self.series.timestamps[beats])

    def eda(self, k):
        start, stop = self.bounds[k]
        return tuple(s.window(start, stop) for s in self.parts)


def _extract_features_per_entry(bundle, policy, catalog, calculate_average=False):
    """Reference: segment per catalog entry and run each computation alone,
    one window at a time, on a :class:`_ReferenceCut`.

    Statistics run on each window.  An HRV entry detects R-peaks on the
    whole series and gives each window the beats inside its bounds; an EDA
    decomposition entry decomposes and smooths the whole series and gives
    each window its slices.
    """
    columns = [f"{e.name}.{f}" for e in catalog for f in e.features]
    keys, rows = [], []
    for subject in bundle.subjects():
        for phase in bundle.phases_for(subject):
            per_entry = []
            for entry in catalog:
                cut = _ReferenceCut(bundle.find(subject, phase, entry.modality), policy)
                computation = features._resolve(entry)
                values = []
                for k in range(len(cut.windows)):
                    try:
                        computed = computation.fn(cut, k, entry.parameters)
                        values.append(tuple(computed[n] for n in entry.features))
                    except Exception:
                        values.append(tuple(ABSENT for _ in entry.features))
                per_entry.append(values)
            n_windows = min(len(v) for v in per_entry)
            window_rows = [tuple(v for values in per_entry for v in values[k])
                           for k in range(n_windows)]
            if calculate_average:
                stacked = np.array(window_rows, dtype=float)
                with np.errstate(invalid="ignore"):
                    means = np.nanmean(stacked, axis=0)
                means = [ABSENT if np.isnan(m) else float(m) for m in means]
                keys.append((subject, phase, 0))
                rows.append(tuple(means))
            else:
                keys.extend((subject, phase, k) for k in range(n_windows))
                rows.extend(window_rows)
    subjects, phases, windows = zip(*keys)
    return FeatureMatrix(tuple(columns), subjects, phases, windows, rows)


def _bits(matrix):
    return [(s, p, k, matrix.values[i].tobytes()) for i, (s, p, k) in enumerate(
        zip(matrix.subject_ids, matrix.phases, matrix.window_indices))]


def _bundle_with_flat_ecg():
    """The stress bundle plus S3, whose flat ECG fails R-peak detection."""
    bundle = _stress_bundle()
    flat = make_series(np.zeros(250 * 180), 250.0, subject="S3", phase="rest")
    eda = make_series(np.linspace(1.0, 2.0, 32 * 180), 32.0,
                      modality_name="EDA", subject="S3", phase="rest")
    return SubjectBundle({**{s: bundle.series_for(s) for s in bundle.subjects()},
                          "S3": [flat, eda]})


@pytest.mark.parametrize("calculate_average", [False, True])
# the reference averages S3's all-absent HRV columns, an empty mean
@pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning")
def test_extract_bit_identical_to_per_entry_loop(calculate_average):
    bundle = _bundle_with_flat_ecg()
    policy = WindowingPolicy(60.0, 30.0)
    got = extract_features(bundle, policy, ecg_eda_catalog(), calculate_average)
    want = _extract_features_per_entry(bundle, policy, ecg_eda_catalog(),
                                       calculate_average)
    assert got.columns == want.columns
    assert _bits(got) == _bits(want)
    # the flat ECG fails R-peak detection: both HRV entries are absent there
    s3 = got.subject_ids == "S3"
    hrv = [j for j, c in enumerate(got.columns) if c.startswith("hrv_")]
    assert s3.any() and np.isnan(got.values[np.ix_(s3, hrv)]).all()


def test_extract_average_of_all_absent_column_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = extract_features(_bundle_with_flat_ecg(), WindowingPolicy(60.0, 30.0),
                             ecg_eda_catalog(), calculate_average=True)
    hrv = [j for j, c in enumerate(m.columns) if c.startswith("hrv_")]
    assert np.isnan(m.values[m.subject_ids == "S3"][:, hrv]).all()


def test_extract_detects_r_peaks_once_per_ecg_series(monkeypatch):
    calls = []
    original = features.detect_r_peaks

    def counting(ecg):
        calls.append(ecg)
        return original(ecg)

    monkeypatch.setattr(features, "detect_r_peaks", counting)
    bundle = _stress_bundle()
    m = extract_features(bundle, WindowingPolicy(60.0, 30.0), ecg_eda_catalog())
    # 2 subjects x 2 phases x 5 windows, one detection per whole ECG series,
    # shared by hrv_time and hrv_freq
    assert len(m) == 20
    assert len(calls) == 4
    assert all(len(ecg) == len(bundle.find(ecg.subject_id, ecg.phase, "ECG"))
               for ecg in calls)


def _ecg_with_flat_tail():
    """A 180 s ECG whose last 80 s are flat: its last window holds no beat."""
    ecg, _ = synth_ecg(EcgSpec(hr_bpm=72.0, hrv_rmssd_target_s=0.04,
                               noise_snr_db=30.0), 180.0, seed=6)
    values = np.array(ecg.values)
    values[int(100 * ecg.sample_rate_hz):] = 0.0
    return ecg.with_values(values)


@pytest.mark.parametrize("flat_tail", [False, True])
def test_window_beats_are_the_series_beats_inside_its_bounds(flat_tail):
    ecg = _ecg_with_flat_tail() if flat_tail else _stress_bundle().find("S1", "rest", "ECG")
    cut = features._SeriesWindows(ecg, WindowingPolicy(60.0, 30.0))
    beat_times = ecg.timestamps[detect_r_peaks(ecg)]
    for k, w in enumerate(cut.windows):
        inside = beat_times[(beat_times >= w.timestamps[0])
                            & (beat_times <= w.timestamps[-1])]
        if inside.size < 2:
            with pytest.raises(NoBeatsDetected):
                cut.rr(k)
            continue
        rr = cut.rr(k)
        assert rr.beat_times_s.tobytes() == inside.tobytes()
        assert cut.rr(k) is rr  # one RRSeries per window, shared by the entries
    assert [len(w) for w in cut.windows] == [b - a for a, b in cut.bounds]
    if flat_tail:  # windows from 120 s on are flat
        with pytest.raises(NoBeatsDetected):
            cut.rr(4)


def test_extract_window_without_beats_yields_absent_hrv_cells():
    ecg = _ecg_with_flat_tail()
    catalog = [FeatureCatalogEntry("hrv", "ECG", "hrv_time",
                                   features=("hr_mean_bpm",)),
               FeatureCatalogEntry("ecg", "ECG", "ecg_stats", features=("std",))]
    m = extract_features(SubjectBundle({ecg.subject_id: [ecg]}),
                         WindowingPolicy(60.0, 30.0), catalog)
    absent = np.isnan(m.values)
    # the window from 90 s holds the beats of 90-100 s; the one from 120 s none
    assert absent[:, 0].tolist() == [False, False, False, False, True]
    assert not absent[:, 1].any()


def test_series_level_failure_is_computed_once(monkeypatch):
    calls = []

    def failing(ecg):
        calls.append(ecg)
        raise NoBeatsDetected("no QRS energy above the noise floor")

    monkeypatch.setattr(features, "detect_r_peaks", failing)
    m = extract_features(_stress_bundle(subjects=("S1",)),
                         WindowingPolicy(60.0, 30.0), ecg_eda_catalog())
    hrv = [j for j, c in enumerate(m.columns) if c.startswith("hrv_")]
    assert np.isnan(m.values[:, hrv]).all()
    assert not np.isnan(np.delete(m.values, hrv, axis=1)).any()
    assert len(calls) == 2  # one per ECG series, not one per window


def test_kept_series_failure_traceback_does_not_grow_with_windows():
    # a flat 300 s ECG in 30 s windows every 2 s: 136 windows share one
    # NoBeatsDetected, raised again for each
    cut = features._SeriesWindows(make_series(np.zeros(250 * 300), 250.0),
                                  WindowingPolicy(30.0, 2.0))
    assert len(cut.windows) == 136
    depths = []
    for k in range(len(cut.windows)):
        with pytest.raises(NoBeatsDetected) as e:
            cut.rr(k)
        depths.append(len(traceback.extract_tb(e.value.__traceback__)))
    assert depths[-1] == depths[0]


def test_eda_windows_slice_the_series_decomposition():
    eda = _stress_bundle(subjects=("S1",)).find("S1", "stress", "EDA")
    cut = features._SeriesWindows(eda, WindowingPolicy(60.0, 30.0))
    decomp = decompose_eda(eda)
    for k, (start, stop) in enumerate(cut.bounds):
        tonic, phasic, smoothed = cut.eda(k)
        assert tonic.values.tobytes() == decomp.tonic.values[start:stop].tobytes()
        assert phasic.values.tobytes() == decomp.phasic.values[start:stop].tobytes()
        assert len(smoothed) == stop - start
        np.testing.assert_array_equal(smoothed.timestamps, eda.timestamps[start:stop])


def test_scl_slope_matches_statistical_features_slope():
    eda = _stress_bundle(subjects=("S1",)).find("S1", "stress", "EDA")
    cut = features._SeriesWindows(eda, WindowingPolicy(60.0, 30.0))
    assert cut.bounds
    for k in range(len(cut.bounds)):
        tonic = cut.eda(k)[0]
        out = features.COMPUTATIONS["eda_decomposition"].fn(cut, k, {})
        expected = statistical_features(tonic.values, tonic.timestamps)
        assert out["scl_slope"] == expected["slope"]
        assert out["scl_mean_us"] == expected["mean"]
        assert out["scl_std_us"] == expected["std"]


def test_extract_undeclared_feature_name_names_the_entry():
    catalog = [FeatureCatalogEntry("hrv", "ECG", "hrv_time",
                                   features=("hr_mean_bpm", "rmsdd_s"))]
    with pytest.raises(ValueError, match=r"'hrv'.*rmsdd_s"):
        extract_features(_stress_bundle(subjects=("S1",)),
                         WindowingPolicy(60.0, 30.0), catalog)


def _registered_outputs():
    """Each registered computation run on one window of a fitting series."""
    ecg, _ = synth_ecg(EcgSpec(hr_bpm=70.0, noise_snr_db=30.0), 90.0, seed=1)
    eda, _ = synth_eda(EdaSpec(scr_times_s=(20.0, 50.0),
                               scr_amplitudes_us=(0.5, 0.5)), 90.0, seed=1)
    resp, _ = synth_resp(RespSpec(breaths_per_min=15.0), 90.0)
    emg, _ = synth_emg(EmgSpec(), 90.0, seed=1)
    inputs = {"ecg_stats": ecg, "hrv_time": ecg, "hrv_freq": ecg,
              "eda_stats": eda, "eda_decomposition": eda, "statistics": eda,
              "resp": resp, "emg": emg}
    for name, computation in features.COMPUTATIONS.items():
        cut = features._SeriesWindows(inputs[name], WindowingPolicy(80.0, 10.0))
        yield name, computation, computation.fn(cut, 0, {})


def test_registered_computations_declare_what_they_return():
    names = set()
    for name, computation, returned in _registered_outputs():
        assert tuple(returned) == computation.declared({}), name
        names.add(name)
    assert names == set(features.COMPUTATIONS)


def test_hrv_freq_declares_the_names_of_its_bands():
    declared = features.COMPUTATIONS["hrv_freq"].declared
    assert declared({}) == ("ulf_power", "lf_power", "hf_power", "uhf_power",
                            "lf_hf_ratio")
    assert declared({"bands": {"lf": [0.04, 0.15], "vlf": [0.0, 0.04]}}) == \
        ("lf_power", "vlf_power")
    entry = FeatureCatalogEntry(
        "hrv", "ECG", "hrv_freq",
        parameters={"bands": {"lf": (0.04, 0.15), "hf": (0.15, 0.4),
                              "vlf": (0.0, 0.04)}},
        features=("vlf_power", "lf_hf_ratio"))
    features.check_catalog([entry])
    with pytest.raises(CatalogError, match=r"'hrv'.*uhf_power"):
        features.check_catalog([FeatureCatalogEntry(
            "hrv", "ECG", "hrv_freq", entry.parameters, features=("uhf_power",))])


@pytest.mark.parametrize("entry, message", [
    (FeatureCatalogEntry("x", "ECG", "hrv_time"), "'x' must declare"),
    (FeatureCatalogEntry("x", "ECG", "hrv_spectrum", features=("a",)),
     "unknown computation 'hrv_spectrum'"),
    (FeatureCatalogEntry("scr", "EDA", "eda_decomposition",
                         features=("scr_rate",)), r"'scr'.*\['scr_rate'\]"),
    (FeatureCatalogEntry("hrv", "ECG", "hrv_freq",
                         {"band": {"lf": (0.04, 0.15)}}, features=("lf_power",)),
     r"'hrv' gives parameters \['band'\].*reads \['bands', 'min_span_s'\]"),
    (FeatureCatalogEntry("scr", "EDA", "eda_decomposition",
                         {"min_amplitude": 5.0}, features=("scr_count",)),
     r"'scr' gives parameters \['min_amplitude'\].*reads \['min_amplitude_us'\]"),
    (FeatureCatalogEntry("ecg", "ECG", "ecg_stats", {"detrend": True},
                         features=("mean",)), r"'ecg' gives parameters \['detrend'\]"),
    # swapped band edges once ran as a two-point trapezoid over [lo, hi],
    # one edge failed at extraction, and a string minimum in numpy
    (FeatureCatalogEntry("hrv", "ECG", "hrv_freq", {"bands": {"lf": [0.15, 0.04]}},
                         features=("lf_power",)), r"'hrv' parameter 'bands' must be"),
    (FeatureCatalogEntry("hrv", "ECG", "hrv_freq", {"bands": {"lf": [0.04]}},
                         features=("lf_power",)), r"'hrv' parameter 'bands' must be"),
    (FeatureCatalogEntry("hrv", "ECG", "hrv_freq",
                         {"bands": {"lf": [-0.01, 0.15]}}, features=("lf_power",)),
     r"'hrv' parameter 'bands' must be"),
    (FeatureCatalogEntry("hrv", "ECG", "hrv_freq", {"bands": [[0.04, 0.15]]},
                         features=("lf_power",)), r"'hrv' parameter 'bands' must be"),
    (FeatureCatalogEntry("hrv", "ECG", "hrv_freq", {"min_span_s": "x"},
                         features=("lf_power",)), r"'hrv' parameter 'min_span_s' must be"),
    (FeatureCatalogEntry("hrv", "ECG", "hrv_freq", {"min_span_s": float("nan")},
                         features=("lf_power",)), r"'hrv' parameter 'min_span_s' must be"),
    (FeatureCatalogEntry("scr", "EDA", "eda_decomposition", {"min_amplitude_us": -0.5},
                         features=("scr_count",)),
     r"'scr' parameter 'min_amplitude_us' must be a finite number of at least 0"),
    # a column's entry is read back as the text before its first "."
    (FeatureCatalogEntry("hrv.v2", "ECG", "hrv_time", features=("rmssd_s",)),
     r"catalog entry 'hrv\.v2' holds '\.'"),
])
def test_check_catalog_rejects_before_any_window(entry, message, monkeypatch):
    monkeypatch.setattr(features, "_SeriesWindows",
                        lambda *a: pytest.fail("a window was cut"))
    with pytest.raises(CatalogError, match=message):
        extract_features(_stress_bundle(subjects=("S1",)),
                         WindowingPolicy(60.0, 30.0), [entry])


@pytest.mark.parametrize("catalog", [
    [FeatureCatalogEntry("ecg", "ECG", "ecg_stats", features=("mean", "std")),
     FeatureCatalogEntry("ecg", "ECG", "ecg_stats", features=("median", "mean"))],
    [FeatureCatalogEntry("ecg", "ECG", "ecg_stats", features=("mean", "std", "mean"))],
], ids=["two-entries", "one-entry"])
def test_check_catalog_rejects_a_repeated_column(catalog):
    with pytest.raises(CatalogError, match=r"catalog entry 'ecg' repeats column 'ecg\.mean'"):
        features.check_catalog(catalog)


def test_column_entry_reads_back_the_entry_of_every_column():
    catalog = ecg_eda_catalog() + [FeatureCatalogEntry(
        "quality", "EDA", lambda w, p: {"tag": "ok" if w.values[0] > 0 else "low"},
        features=("tag",))]
    _, columns = features.check_catalog(catalog)
    assert columns == [f"{e.name}.{f}" for e in catalog for f in e.features]
    matrix = extract_features(_stress_bundle(subjects=("S1",)),
                              WindowingPolicy(60.0, 30.0), catalog)
    assert any("=" in column for column in matrix.columns)  # one-hot columns too
    by_entry = {e.name: [c for c in matrix.columns if c.startswith(f"{e.name}.")]
                for e in catalog}
    assert {c: features.column_entry(c) for c in matrix.columns} == {
        c: name for name, cs in by_entry.items() for c in cs}


def test_check_catalog_accepts_checked_parameters():
    features.check_catalog([
        FeatureCatalogEntry("hrv", "ECG", "hrv_freq",
                            {"bands": {"vlf": [0, 0.04], "lf": (0.04, 0.15)},
                             "min_span_s": 0}, features=("vlf_power",)),
        FeatureCatalogEntry("scr", "EDA", "eda_decomposition",
                            {"min_amplitude_us": 0.05}, features=("scr_count",))])


def test_custom_callable_names_are_checked_per_window():
    catalog = [FeatureCatalogEntry("ptp", "EDA", lambda w, p: {"ptp": 1.0},
                                   features=("ptp", "range"))]
    features.check_catalog(catalog)  # nothing to check before it runs
    with pytest.raises(CatalogError, match=r"'ptp'.*\['range'\]"):
        extract_features(_stress_bundle(subjects=("S1",)),
                         WindowingPolicy(60.0, 30.0), catalog)


def test_extract_custom_callable_keeps_window_params_contract():
    seen = []

    def peak_to_peak(window, params):
        seen.append((len(window), params))
        return {"ptp": float(np.ptp(window.values)) * params["scale"]}

    catalog = [FeatureCatalogEntry("ptp", "EDA", peak_to_peak, {"scale": 2.0},
                                   features=("ptp",))]
    m = extract_features(_stress_bundle(subjects=("S1",)),
                         WindowingPolicy(60.0, 30.0), catalog)
    assert len(m) == 10 and len(seen) == 10
    assert all(params == {"scale": 2.0} for _, params in seen)


@pytest.mark.parametrize("drop_incomplete", [True, False])
def test_custom_callable_sees_the_window_of_the_batched_path(drop_incomplete):
    # 180 s every 50 s: three 60 s windows, and without drop_incomplete a
    # short last window from 150 s
    policy = WindowingPolicy(60.0, 50.0, drop_incomplete)
    names = ("mean", "median", "std", "var", "min", "max", "slope")
    catalog = [
        FeatureCatalogEntry("batched", "ECG", "ecg_stats", features=names),
        FeatureCatalogEntry("custom", "ECG", lambda w, p: statistical_features(
            w.values, w.timestamps), features=names)]
    m = extract_features(_stress_bundle(), policy, catalog)
    assert len(m) == 4 * (3 if drop_incomplete else 4)
    batched, custom = m.values[:, :len(names)], m.values[:, len(names):]
    assert batched.tobytes() == custom.tobytes()


def test_extract_non_signal_error_propagates():
    def broken(window, params):
        raise RuntimeError("bug in a custom computation")

    catalog = [FeatureCatalogEntry("broken", "EDA", broken, features=("x",))]
    with pytest.raises(RuntimeError, match="bug in a custom"):
        extract_features(_stress_bundle(subjects=("S1",)),
                         WindowingPolicy(60.0, 30.0), catalog)
