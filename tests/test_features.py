import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal as sps

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
from affectpipe.types import ABSENT, FeatureMatrix

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


def test_policy_rejects_step_above_window():
    with pytest.raises(ValueError):
        WindowingPolicy(30.0, 60.0)


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


# --- time-domain HRV ---

def _rr(intervals):
    beats = 0.5 + np.concatenate([[0.0], np.cumsum(intervals)])
    return RRSeries.from_beat_times(beats)


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
    return RRSeries.from_beat_times(np.asarray(beats))


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


def test_extract_empty_catalog_rejected():
    with pytest.raises(ValueError):
        extract_features(_stress_bundle(subjects=("S1",)),
                         WindowingPolicy(60.0, 30.0), [])


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


def _extract_features_per_entry(bundle, policy, catalog, calculate_average=False):
    """Reference: segment per catalog entry and run each computation alone."""
    columns = [f"{e.name}.{f}" for e in catalog for f in e.features]
    keys, rows = [], []
    for subject in bundle.subjects():
        for phase in bundle.phases_for(subject):
            per_entry = []
            for entry in catalog:
                windows = segment(bundle.find(subject, phase, entry.modality), policy)
                fn = features._resolve(entry)
                values = []
                for w in windows:
                    try:
                        computed = fn(w, entry.parameters)
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


def test_extract_detects_r_peaks_once_per_ecg_window(monkeypatch):
    calls = []
    original = features.detect_r_peaks

    def counting(ecg):
        calls.append(ecg)
        return original(ecg)

    monkeypatch.setattr(features, "detect_r_peaks", counting)
    m = extract_features(_stress_bundle(), WindowingPolicy(60.0, 30.0),
                         ecg_eda_catalog())
    # 2 subjects x 2 phases x 5 windows, shared by hrv_time and hrv_freq
    assert len(m) == 20
    assert len(calls) == 20


def test_extract_undeclared_feature_name_names_the_entry():
    catalog = [FeatureCatalogEntry("hrv", "ECG", "hrv_time",
                                   features=("hr_mean_bpm", "rmsdd_s"))]
    with pytest.raises(ValueError, match=r"'hrv'.*rmsdd_s"):
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


def test_extract_non_signal_error_propagates():
    def broken(window, params):
        raise RuntimeError("bug in a custom computation")

    catalog = [FeatureCatalogEntry("broken", "EDA", broken, features=("x",))]
    with pytest.raises(RuntimeError, match="bug in a custom"):
        extract_features(_stress_bundle(subjects=("S1",)),
                         WindowingPolicy(60.0, 30.0), catalog)
