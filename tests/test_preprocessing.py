import numpy as np
import pytest

from affectpipe import (
    PreprocessChain,
    PreprocessStep,
    SubjectBundle,
    apply_zero_phase,
    default_chain,
    design_butterworth,
    design_notch,
    notch_powerline,
    preprocess,
    resample_series,
)
from affectpipe.checks import REQUIRED
from affectpipe.preprocessing import STEP_OPS, FilterDesign
from affectpipe.errors import CutoffOutOfRange, InvalidOrder, SampleRateMismatch
from affectpipe.synth import EcgSpec, synth_ecg

from conftest import fft_gain_db, make_series, rms, sine_series


# --- design ---

def test_lowpass_cutoff_gain_is_minus_3db():
    c = design_butterworth("lowpass", 4, 5.0, 700.0)
    gain_db = 20 * np.log10(abs(c.frequency_response([5.0])[0]))
    assert gain_db == pytest.approx(-3.0103, abs=0.1)


def test_highpass_dc_rejection():
    c = design_butterworth("highpass", 2, 0.5, 250.0)
    dc = abs(c.frequency_response([1e-6])[0])
    assert 20 * np.log10(dc + 1e-300) < -60


def test_cutoff_beyond_nyquist_rejected():
    with pytest.raises(CutoffOutOfRange):
        design_butterworth("lowpass", 4, 400.0, 700.0)


def test_invalid_order_rejected():
    with pytest.raises(InvalidOrder):
        design_butterworth("lowpass", 0, 5.0, 700.0)


def test_bandpass_needs_two_ordered_cutoffs():
    with pytest.raises(CutoffOutOfRange):
        design_butterworth("bandpass", 2, (0.35, 0.1), 700.0)


@pytest.mark.parametrize("args, error", [
    (("lowpass", 0, 5.0, 700.0), InvalidOrder),
    (("lowpass", 2.0, 5.0, 700.0), InvalidOrder),
    (("lowpass", 4, 400.0, 700.0), CutoffOutOfRange),
    (("bandpass", 2, (15.0, 5.0), 700.0), CutoffOutOfRange),
    (("wobble", 2, 5.0, 700.0), CutoffOutOfRange),
    (("lowpass", True, 5.0, 700.0), InvalidOrder),
])
def test_bad_design_raises_on_every_call(args, error):
    for _ in range(3):
        with pytest.raises(error):
            design_butterworth(*args)


def test_design_memo_normalises_arguments():
    a = design_butterworth("bandpass", 2, (5, 15), 250)
    b = design_butterworth("bandpass", np.int64(2), [5.0, 15.0], 250.0)
    assert a is b
    assert a.design == FilterDesign("bandpass", 2, (5.0, 15.0), 250.0)
    assert type(a.design.order) is int and type(a.design.fs_hz) is float
    c = design_butterworth("lowpass", 2, np.float64(5.0), 250.0)
    assert c is design_butterworth("lowpass", 2, (5.0,), 250)
    assert c is not a


def test_design_sections_are_read_only():
    c = design_butterworth("lowpass", 4, 5.0, 700.0)
    with pytest.raises(ValueError):
        c.sections[0, 0] = 1.0
    assert np.array_equal(c.sections,
                          design_butterworth("lowpass", 4, 5.0, 700.0).sections)


@pytest.mark.parametrize("coeffs", [
    design_butterworth("lowpass", 4, 5.0, 700.0),
    design_butterworth("highpass", 2, 0.5, 250.0),
    design_butterworth("bandpass", 2, (0.1, 0.35), 32.0),
    design_butterworth("lowpass", 8, 100.0, 700.0),
    design_notch(50.0, 30.0, 700.0),
])
def test_settling_samples_from_pole_radii(coeffs):
    # reference: the largest pole radius over the sections' denominators
    r = max(float(np.max(np.abs(np.roots(sec[3:])))) for sec in coeffs.sections)
    want = max(3 * coeffs.design.order, int(np.ceil(np.log(1e-4) / np.log(r))))
    assert coeffs.settling_samples == want


# every design the package ships: the default chains, the feature kernels
# (R-peak bandpass, EDA tonic and SCR lowpasses, EMG groups) and the
# resampler's order-8 anti-alias lowpass
SHIPPED_DESIGNS = [
    ("highpass", 2, 0.5, 700.0), ("lowpass", 4, 5.0, 32.0),
    ("highpass", 4, 10.0, 1000.0), ("bandpass", 2, (0.1, 0.35), 32.0),
    ("bandpass", 2, (5.0, 15.0), 700.0), ("lowpass", 2, 0.05, 32.0),
    ("lowpass", 2, 1.0, 32.0), ("lowpass", 4, 50.0, 1000.0),
    ("lowpass", 8, 0.45 * 100.0, 700.0), ("notch", 50.0, 30.0, 700.0),
]


def _shipped(kind, *args):
    return design_notch(*args) if kind == "notch" else design_butterworth(kind, *args)


@pytest.mark.parametrize("design", SHIPPED_DESIGNS, ids=lambda d: f"{d[0]}-{d[1]}")
def test_zero_phase_is_bit_identical_to_sosfiltfilt(design):
    from scipy import signal as sps
    coeffs = _shipped(*design)
    rng = np.random.default_rng(3)
    settling = coeffs.settling_samples
    for n in (2, settling, settling + 1, 45_000):
        s = make_series(rng.normal(size=n), coeffs.design.fs_hz)
        want = sps.sosfiltfilt(np.array(coeffs.sections), np.array(s.values),
                               padtype="even", padlen=min(settling, n - 1))
        assert apply_zero_phase(coeffs, s).values.tobytes() == want.tobytes(), n


def test_initial_state_is_stored_read_only():
    from scipy import signal as sps
    c = design_notch(50.0, 30.0, 700.0)
    np.testing.assert_array_equal(c.zi, sps.sosfilt_zi(np.array(c.sections)))
    with pytest.raises(ValueError):
        c.zi[0, 0] = 1.0


def test_notch_memo_normalises_arguments():
    a = design_notch(50, 30, 700)
    assert a is design_notch(50.0, np.float64(30.0), 700.0)
    assert a.design == FilterDesign("notch", 2, (50.0,), 700.0)
    assert a is not design_notch(60.0, 30.0, 700.0)


def test_sections_are_stable():
    for kind, order, cut, fs in [
        ("lowpass", 4, 5.0, 700.0), ("highpass", 2, 0.5, 700.0),
        ("bandpass", 2, (0.1, 0.35), 700.0), ("lowpass", 8, 100.0, 700.0),
    ]:
        c = design_butterworth(kind, order, cut, fs)
        for b0, b1, b2, a0, a1, a2 in c.sections:
            assert abs(a2) < 1.0 and abs(a1) < 1.0 + a2


def test_impulse_response_decays():
    # stability in the time domain: |h| below 1e-8 within 10 s
    from scipy.signal import sosfilt
    for kind, order, cut in [("lowpass", 4, 5.0), ("highpass", 2, 0.5)]:
        c = design_butterworth(kind, order, cut, 700.0)
        impulse = np.zeros(7000)
        impulse[0] = 1.0
        h = sosfilt(np.array(c.sections), impulse)
        assert np.all(np.abs(h[-100:]) < 1e-8)


# --- zero-phase application ---

def test_constant_through_highpass_is_zero():
    c = design_butterworth("highpass", 2, 0.5, 250.0)
    s = make_series(np.full(2500, 3.7), 250.0)
    out = apply_zero_phase(c, s)
    assert np.max(np.abs(out.values)) < 1e-6


def test_stopband_tone_attenuated_40db():
    c = design_butterworth("lowpass", 4, 5.0, 700.0)
    s = sine_series(50.0, 700.0, 60.0)
    out = apply_zero_phase(c, s)
    assert 20 * np.log10(rms(out.values) / rms(s.values)) < -40


def test_passband_tone_within_1db():
    c = design_butterworth("lowpass", 4, 5.0, 700.0)
    s = sine_series(1.0, 700.0, 60.0)
    out = apply_zero_phase(c, s)
    assert abs(20 * np.log10(rms(out.values) / rms(s.values))) < 1.0


def test_output_length_preserved():
    c = design_butterworth("lowpass", 4, 5.0, 700.0)
    s = sine_series(1.0, 700.0, 10.0)
    assert len(apply_zero_phase(c, s)) == len(s)


def test_sample_rate_mismatch_rejected():
    c = design_butterworth("lowpass", 4, 5.0, 700.0)
    s = sine_series(1.0, 250.0, 10.0)
    with pytest.raises(SampleRateMismatch):
        apply_zero_phase(c, s)


def test_linearity():
    c = design_butterworth("bandpass", 2, (0.1, 0.35), 32.0)
    rng = np.random.default_rng(0)
    x = make_series(rng.normal(0, 1, 3200), 32.0)
    y = make_series(rng.normal(0, 1, 3200), 32.0)
    a, b = 2.5, -1.3
    combo = make_series(a * np.asarray(x.values) + b * np.asarray(y.values), 32.0)
    lhs = apply_zero_phase(c, combo).values
    rhs = a * apply_zero_phase(c, x).values + b * apply_zero_phase(c, y).values
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


# --- notch ---

def _steady_gain_db(s, out, trim_s=5.0):
    # a finite tone burst leaks broadband energy at its edges that no
    # narrow notch can remove; the attenuation contract is steady-state
    k = int(trim_s * s.sample_rate_hz)
    return 20 * np.log10(rms(np.asarray(out.values)[k:-k])
                         / rms(np.asarray(s.values)[k:-k]))


def test_notch_kills_powerline():
    s = sine_series(50.0, 700.0, 30.0)
    out = notch_powerline(s, 50.0, q=30.0)
    assert _steady_gain_db(s, out) < -30


def test_notch_leaves_passband_alone():
    s = sine_series(10.0, 700.0, 30.0)
    out = notch_powerline(s, 50.0, q=30.0)
    assert abs(_steady_gain_db(s, out)) < 0.5


def test_notch_bandwidth_contract():
    # attenuation at f0 +/- f0/(2q) stays within 3 dB after zero-phase pass
    q = 30.0
    for offset in (-50.0 / (2 * q), 50.0 / (2 * q)):
        s = sine_series(50.0 + offset, 700.0, 60.0)
        out = notch_powerline(s, 50.0, q=q)
        assert _steady_gain_db(s, out) > -3.0


def test_notch_nyquist_guard():
    s = sine_series(10.0, 100.0, 10.0)
    with pytest.raises(CutoffOutOfRange):
        notch_powerline(s, 60.0)


# --- resampling ---

def test_downsample_grid_deltas():
    s = sine_series(1.0, 700.0, 10.0)
    out = resample_series(s, 250.0)
    np.testing.assert_allclose(np.diff(out.timestamps), 0.004, rtol=1e-9)


def test_downsample_filters_through_apply_zero_phase():
    s = sine_series(1.0, 700.0, 10.0)
    out = resample_series(s, 250.0)
    aa = design_butterworth("lowpass", 8, 0.45 * 250.0, 700.0)
    want = np.interp(out.timestamps, s.timestamps, apply_zero_phase(aa, s).values)
    assert np.asarray(out.values).tobytes() == want.tobytes()


def test_resample_identity():
    s = sine_series(1.0, 250.0, 10.0)
    out = resample_series(s, 250.0)
    np.testing.assert_allclose(out.values, s.values, atol=1e-9)


def test_downsampled_sine_matches_analytic():
    s = sine_series(1.0, 700.0, 20.0)
    out = resample_series(s, 250.0)
    # ignore filter edge transients: compare the interior
    t = np.asarray(out.timestamps)[250:-250]
    vals = np.asarray(out.values)[250:-250]
    assert np.max(np.abs(vals - np.sin(2 * np.pi * t))) < 1e-3


# --- default chains ---

def test_default_chain_resp():
    chain = default_chain("RESP", 700.0)
    assert len(chain.steps) == 1
    step = chain.steps[0]
    assert step.op == "bandpass"
    assert step.params["cutoffs_hz"] == (0.1, 0.35)


def test_default_chain_temp_empty():
    assert default_chain("TEMP", 4.0).steps == ()


def test_default_chain_eda():
    chain = default_chain("EDA", 700.0)
    assert chain.steps[0].op == "lowpass"
    assert chain.steps[0].params["cutoffs_hz"] == (5.0,)


def test_default_chain_ecg_and_emg():
    ecg = default_chain("ECG", 700.0)
    assert [s.op for s in ecg.steps] == ["highpass", "notch"]
    emg = default_chain("EMG", 700.0)
    assert emg.steps[0].params["cutoffs_hz"] == (10.0,)


# --- bundle preprocessing ---

def _bundle():
    entries = {}
    for subject in ("S1", "S2"):
        series = [
            sine_series(1.0, 250.0, 10.0, subject=subject, phase="rest",
                        modality_name="ECG"),
            sine_series(0.2, 32.0, 10.0, subject=subject, phase="rest",
                        modality_name="EDA"),
            sine_series(0.25, 32.0, 10.0, subject=subject, phase="rest",
                        modality_name="RESP"),
        ]
        entries[subject] = series
    return SubjectBundle(entries)


def test_preprocess_preserves_shape():
    out = preprocess(_bundle())
    assert out.subjects() == ["S1", "S2"]
    for subject in out.subjects():
        assert len(out.series_for(subject)) == 3


def test_preprocess_custom_chain_overrides_default():
    ident = PreprocessChain(())
    defaulted = preprocess(_bundle())
    overridden = preprocess(_bundle(), {"EDA": ident})
    eda = overridden.find("S1", "rest", "EDA")
    np.testing.assert_allclose(eda.values, _bundle().find("S1", "rest", "EDA").values)
    ecg_a = defaulted.find("S1", "rest", "ECG")
    ecg_b = overridden.find("S1", "rest", "ECG")
    np.testing.assert_allclose(ecg_a.values, ecg_b.values)


def test_preprocess_step_rejects_an_unknown_op():
    with pytest.raises(ValueError, match=r"'lowpas'.*STEP_OPS"):
        PreprocessStep("lowpas", {"order": 2, "cutoffs_hz": (5.0,)})
    given = {"order": 2, "cutoffs_hz": (5.0,), "target_fs_hz": 100.0}
    for op, keys in STEP_OPS.items():  # every listed op builds from its required keys
        PreprocessStep(op, {k: given[k] for k, (_, default) in keys.items()
                            if default is REQUIRED})


def test_ecg_interference_removed_peaks_preserved():
    clean, truth = synth_ecg(EcgSpec(hr_bpm=60, noise_snr_db=None, fs_hz=700.0), 60.0)
    t = np.asarray(clean.timestamps)
    noisy = clean.with_values(np.asarray(clean.values)
                              + 0.5 * np.sin(2 * np.pi * 50.0 * t))
    chain = default_chain("ECG", 700.0)
    out = chain.apply(noisy)
    # interference gone: >= 30 dB down at 50 Hz per the FFT oracle
    gain = fft_gain_db(np.asarray(noisy.values), np.asarray(out.values), 700.0, 50.0)
    assert gain < -30
    # QRS amplitudes survive within 10%
    beat_idx = np.searchsorted(t, truth.beat_times_s[2:-2])
    peaks_out = [np.max(np.asarray(out.values)[i - 10:i + 10]) for i in beat_idx]
    peaks_in = [np.max(np.asarray(clean.values)[i - 10:i + 10]) for i in beat_idx]
    np.testing.assert_allclose(peaks_out, peaks_in, rtol=0.10)
