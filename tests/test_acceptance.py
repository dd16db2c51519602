"""Acceptance gate: one test per criterion, each at its stated tolerance.

Criterion 1 is a scoping caveat (external study datasets are not available
at desk scale; acceptance is therefore property-based) and has no test.
Criterion 9 is optional and non-gating: it runs only when a conforming
study dataset root is supplied via AFFECTPIPE_WESAD_ROOT.
"""

import os
import time

import numpy as np
import pytest

from affectpipe import (
    CVStrategy,
    Classification,
    ClassifierSpec,
    DatasetSpec,
    FeatureExtractor,
    FeatureMatrix,
    LabelGenerator,
    LabelRule,
    PipelineSpec,
    RRSeries,
    SelfReport,
    SignalAcquisition,
    SignalPreprocessor,
    WindowingPolicy,
    build_pipeline,
    decompose_eda,
    default_chain,
    detect_r_peaks,
    ecg_eda_catalog,
    hrv_freq_features,
    hrv_time_features,
    make_folds,
    scr_events,
    stai_dynamic_threshold,
    suds_fixed_threshold,
    synth_dataset,
    synth_ecg,
    synth_eda,
)
from affectpipe.cli import write_report_csv
from affectpipe.synth import EcgSpec, EdaSpec

from conftest import fft_gain_db, make_series, sine_series

KNN9 = ClassifierSpec("knn9", "KNN", {"k_neighbors": 9})
DT = ClassifierSpec("dt", "DecisionTree", {"criterion": "entropy"})


def test_criterion_2_filter_suite():
    """Default chains: stopband >= 30 dB down, passband ripple <= 1 dB,
    measured with the independent FFT gain oracle; suite under 5 s."""
    t0 = time.perf_counter()
    # (modality, fs, duration, stopband tones, passband tones)
    cases = [
        ("ECG", 700.0, 60.0, [0.05, 50.0], [10.0, 20.0]),
        ("EDA", 700.0, 60.0, [50.0, 100.0], [0.1, 1.0]),
        ("EMG", 700.0, 60.0, [0.5, 1.0], [50.0, 100.0]),
        ("RESP", 700.0, 240.0, [0.0125, 2.0], [0.1875]),
    ]
    for modality, fs, dur, stop, passband in cases:
        chain = default_chain(modality, fs)
        for f in stop:
            s = sine_series(f, fs, dur)
            out = chain.apply(s)
            gain = fft_gain_db(np.asarray(s.values), np.asarray(out.values), fs, f)
            assert gain <= -30.0, (modality, f, gain)
        for f in passband:
            s = sine_series(f, fs, dur)
            out = chain.apply(s)
            gain = fft_gain_db(np.asarray(s.values), np.asarray(out.values), fs, f)
            assert abs(gain) <= 1.0, (modality, f, gain)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_3_hrv_oracle():
    """1,000 random RR sequences: RMSSD/SDNN/HR within 1e-9 relative of the
    defining formulas; modulated tachograms localize >= 80% of power."""
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        rr = rng.uniform(0.5, 1.4, n)
        beats = np.concatenate([[0.0], np.cumsum(rr)])
        out = hrv_time_features(RRSeries(beats))
        d = np.diff(rr)
        assert out["rmssd_s"] == pytest.approx(
            float(np.sqrt(np.mean(d * d))), rel=1e-9)
        assert out["sdnn_s"] == pytest.approx(
            float(np.sqrt(np.mean((rr - rr.mean()) ** 2))), rel=1e-9)
        assert out["hr_mean_bpm"] == pytest.approx(
            float(np.mean(60.0 / rr)), rel=1e-9)

    for f_mod, band in [(0.10, (0.04, 0.15)), (0.30, (0.15, 0.40))]:
        beats = [0.0]
        for _ in range(240):
            beats.append(beats[-1] + 1.0 + 0.05 * np.sin(2 * np.pi * f_mod * beats[-1]))
        rr_series = RRSeries(np.asarray(beats))
        out = hrv_freq_features(rr_series, bands={"mod": band,
                                                  "total": (0.01, 0.5)})
        assert out["mod_power"] >= 0.80 * out["total_power"], f_mod


def test_criterion_4_r_peak_detection():
    """50-120 BPM at SNR 20 dB over 5 min: beat count error <= 1%, mean HR
    error <= 1 BPM."""
    for i, hr in enumerate([50, 64, 75, 90, 105, 120]):
        ecg, truth = synth_ecg(
            EcgSpec(hr_bpm=float(hr), hrv_rmssd_target_s=0.03,
                    noise_snr_db=20.0, fs_hz=250.0), 300.0, seed=i)
        peaks = detect_r_peaks(ecg)
        n_true = len(truth.beat_times_s)
        assert abs(peaks.size - n_true) <= 0.01 * n_true, hr
        rr_det = np.diff(np.asarray(ecg.timestamps)[peaks])
        rr_true = np.diff(truth.beat_times_s)
        hr_det = float(np.mean(60.0 / rr_det))
        hr_true = float(np.mean(60.0 / rr_true))
        assert abs(hr_det - hr_true) <= 1.0, hr


def test_criterion_5_eda_recovery():
    """Non-overlapping SCRs >= 2x threshold recovered exactly in count;
    tonic + phasic reconstructs the input within 1e-6."""
    for n_scr, amp, seed in [(3, 0.05, 0), (6, 0.5, 1), (9, 0.1, 2)]:
        times = tuple(np.linspace(10.0, 160.0, n_scr))
        eda, truth = synth_eda(
            EdaSpec(scr_times_s=times, scr_amplitudes_us=(amp,) * n_scr,
                    noise_std_us=0.001), 180.0, seed=seed)
        decomp = decompose_eda(eda)
        recon = np.asarray(decomp.tonic.values) + np.asarray(decomp.phasic.values)
        assert np.max(np.abs(recon - np.asarray(eda.values))) <= 1e-6
        out = scr_events(decomp.phasic, min_amplitude_us=amp / 2.0)
        assert out["scr_count"] == float(truth.scr_count), (n_scr, amp)


def test_criterion_6_fold_laws():
    """10,000-case property test: partitions disjoint and covering; LOSO
    never leaks a subject. Zero violations."""
    rng = np.random.default_rng(1)
    cases = 0
    while cases < 10_000:
        n = int(rng.integers(4, 24))
        n_subjects = int(rng.integers(2, min(n, 8) + 1))
        subjects = [f"P{rng.integers(n_subjects)}" for _ in range(n)]
        if len(set(subjects)) < 2:
            continue
        m = FeatureMatrix(("f",), subjects, ["a"] * n, range(n),
                          np.arange(n, dtype=float).reshape(n, 1))
        if cases % 2 == 0:
            folds = make_folds(CVStrategy("loso"), m)
            for train, test in folds:
                assert len({subjects[i] for i in test}) == 1
                assert not ({subjects[i] for i in test}
                            & {subjects[i] for i in train})
        else:
            k = int(rng.integers(2, min(n, 8) + 1))
            folds = make_folds(CVStrategy("kfold", k), m, int(rng.integers(1 << 16)))
            sizes = [len(test) for _, test in folds]
            assert max(sizes) - min(sizes) <= 1
        all_test = sorted(i for _, test in folds for i in test)
        assert all_test == list(range(n))
        for train, test in folds:
            assert not set(train) & set(test)
            assert len(train) + len(test) == n
        cases += 1


def test_criterion_7_label_rules():
    """SUDS boundary and STAI dynamic threshold match hand tables exactly;
    STAI shift invariance holds on random score sets."""
    suds = suds_fixed_threshold([
        SelfReport("S1", "a", "SUDS", 50.0),
        SelfReport("S1", "b", "SUDS", 49.999),
    ])
    assert suds == {("S1", "a"): 1, ("S1", "b"): 0}

    stai = stai_dynamic_threshold([
        SelfReport("S1", "rest", "STAI", 30.0),
        SelfReport("S1", "task", "STAI", 40.0),
        SelfReport("S1", "stress", "STAI", 50.0),
        SelfReport("S2", "rest", "STAI", 70.0),
        SelfReport("S2", "stress", "STAI", 70.0),
    ])
    # S1 theta = 40 -> {0, 1, 1}; S2 theta = 70 -> {1, 1} (>= boundary)
    assert stai == {("S1", "rest"): 0, ("S1", "task"): 1, ("S1", "stress"): 1,
                    ("S2", "rest"): 1, ("S2", "stress"): 1}

    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        scores = rng.uniform(20.0, 60.0, n)
        shift = float(rng.uniform(-15.0, 15.0))
        base = [SelfReport("S1", f"p{i}", "STAI", float(s))
                for i, s in enumerate(scores)]
        shifted = [SelfReport("S1", f"p{i}", "STAI", float(s) + shift)
                   for i, s in enumerate(scores)]
        assert stai_dynamic_threshold(base) == stai_dynamic_threshold(shifted)


def _pipeline_stages(root, phase_to_class, cv):
    return (
        SignalAcquisition(["ECG", "EDA"], root),
        SignalPreprocessor(),
        FeatureExtractor(ecg_eda_catalog(), WindowingPolicy(60.0, 30.0),
                         calculate_average=False),
        LabelGenerator(LabelRule("phase-map",
                                 {"phase_to_class": phase_to_class})),
        Classification(Classification.MODE_CROSS_VALIDATE, [KNN9, DT], cv=cv),
    )


@pytest.fixture(scope="module")
def binary_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_binary")
    synth_dataset(DatasetSpec(n_subjects=8, phases=("rest", "stress"),
                              duration_s=180.0, seed=0), root)
    return root


def test_criterion_8_end_to_end(binary_root, tmp_path_factory):
    """Binary stress, 5-fold, KNN(9) + decision tree: mean accuracy and AUC
    >= 0.90 for at least one model; <= 60 s. The same spec reruns with LOSO
    and with a 3-class phase map without code changes."""
    t0 = time.perf_counter()
    binary_map = {"rest": 0, "stress": 1}
    p = build_pipeline(PipelineSpec(_pipeline_stages(
        binary_root, binary_map, CVStrategy("kfold", 5))))
    out = p.run()
    ok = False
    for model in out.report.per_model:
        agg = out.report.aggregate(model)
        if agg["accuracy"][0] >= 0.90 and agg.get("auc", (0,))[0] >= 0.90:
            ok = True
    assert ok, out.report.format_table()

    # same spec, LOSO — no code changes, only the strategy value
    p_loso = build_pipeline(PipelineSpec(_pipeline_stages(
        binary_root, binary_map, CVStrategy("loso"))))
    out_loso = p_loso.run()
    assert len(out_loso.report.per_model["knn9"]) == 8

    # same spec, 3-class synthetic variant — only the dataset and map change
    root3 = tmp_path_factory.mktemp("accept_3class")
    synth_dataset(DatasetSpec(n_subjects=6,
                              phases=("rest", "amusement", "stress"),
                              duration_s=180.0, seed=3), root3)
    p3 = build_pipeline(PipelineSpec(_pipeline_stages(
        root3, {"rest": 0, "stress": 1, "amusement": 2},
        CVStrategy("loso"))))
    out3 = p3.run()
    assert set(out3.y_true.labels) == {0, 1, 2}
    assert time.perf_counter() - t0 <= 60.0


def test_criterion_10_determinism(binary_root, tmp_path):
    """Repeated runs with the same seed yield byte-identical machine-readable
    reports."""
    blobs = []
    for i in range(2):
        p = build_pipeline(PipelineSpec(_pipeline_stages(
            binary_root, {"rest": 0, "stress": 1},
            CVStrategy("kfold", 5)), seed=42))
        out = p.run()
        path = tmp_path / f"report_{i}.csv"
        write_report_csv(out.report, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.skipif(not os.environ.get("AFFECTPIPE_WESAD_ROOT"),
                    reason="optional: set AFFECTPIPE_WESAD_ROOT to a study "
                           "dataset in the standard layout")
def test_criterion_9_optional_study_dataset():
    """Non-gating sanity floor on a user-supplied study dataset: binary
    stress LOSO micro-F1 above 0.7727 for KNN or the decision tree."""
    root = os.environ["AFFECTPIPE_WESAD_ROOT"]
    p = build_pipeline(PipelineSpec(_pipeline_stages(
        root, {"baseline": 0, "amusement": 0, "stress": 1},
        CVStrategy("loso"))))
    out = p.run()
    best = max(out.report.aggregate(model)["f1_micro"][0]
               for model in out.report.per_model)
    assert best > 0.7727
