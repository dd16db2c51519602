import csv

import numpy as np
import pytest

from affectpipe import (
    DatasetSpec,
    EcgSpec,
    EdaSpec,
    RespSpec,
    acquire,
    decompose_eda,
    detect_r_peaks,
    scan_dataset,
    synth_dataset,
    synth_ecg,
    synth_eda,
    synth_resp,
    synth_temp,
    validate_time_series,
)
from affectpipe.synth import TempSpec, _qrs_train, synth_emg, EmgSpec
from affectpipe.errors import ConfigError, InvalidRate, SCROutOfRange


# --- ECG generator ---

def test_ecg_60bpm_no_jitter_60_beats():
    _, truth = synth_ecg(EcgSpec(hr_bpm=60.0, hrv_rmssd_target_s=0.0), 60.0)
    beats = np.asarray(truth.beat_times_s)
    assert beats.size == 60
    np.testing.assert_allclose(np.diff(beats), 1.0, atol=1e-12)


def test_ecg_rmssd_calibrated():
    _, truth = synth_ecg(EcgSpec(hr_bpm=70.0, hrv_rmssd_target_s=0.05), 120.0,
                         seed=3)
    rr = np.diff(truth.beat_times_s)
    d = np.diff(rr)
    rmssd = np.sqrt(np.mean(d * d))
    assert 0.0475 <= rmssd <= 0.0525


def test_ecg_snr0_detection_stress_test():
    ecg, truth = synth_ecg(EcgSpec(hr_bpm=60.0, noise_snr_db=0.0), 60.0, seed=4)
    peaks = detect_r_peaks(ecg)
    n_true = len(truth.beat_times_s)
    assert abs(peaks.size - n_true) <= 0.05 * n_true


def _beatwise_qrs_train(t, beat_times):
    """The original per-beat QRS loop, kept as the byte reference."""
    x = np.zeros_like(t)
    width = 0.02
    for bt in beat_times:
        lo = np.searchsorted(t, bt - 5 * width)
        hi = np.searchsorted(t, bt + 5 * width)
        x[lo:hi] += np.exp(-0.5 * ((t[lo:hi] - bt) / width) ** 2)
    return x


@pytest.mark.parametrize("fs, hr, rmssd", [
    (250.0, 65.0, 0.05), (700.0, 90.0, 0.025), (32.0, 40.0, 0.0),
    (100.0, 200.0, 0.01), (250.0, 120.0, 0.12), (700.0, 30.0, 0.3),
])
def test_ecg_values_match_beatwise_loop(fs, hr, rmssd):
    ecg, truth = synth_ecg(EcgSpec(hr_bpm=hr, hrv_rmssd_target_s=rmssd,
                                   noise_snr_db=None, fs_hz=fs), 45.0, seed=7)
    expected = _beatwise_qrs_train(ecg.timestamps, np.asarray(truth.beat_times_s))
    assert ecg.values.tobytes() == expected.tobytes()


def test_qrs_train_overlapping_windows_add_in_beat_order():
    t = np.arange(2000) / 700.0
    # windows reach 0.1 s each side: neighbours 0.013-0.15 s apart overlap,
    # the first and last windows are clipped at the grid's ends
    beats = np.array([0.0, 0.05, 0.063, 0.2, 0.35, 0.36, 0.37, 1.5,
                      2.8, 2.85, 2.857])
    x = _qrs_train(t, beats)
    assert x.tobytes() == _beatwise_qrs_train(t, beats).tobytes()
    # a sample inside three windows: an order-sensitive sum was exercised
    assert np.count_nonzero((np.abs(t[:, None] - beats) < 0.1).sum(axis=1) >= 3)


def test_ecg_invalid_rate():
    with pytest.raises(InvalidRate):
        synth_ecg(EcgSpec(hr_bpm=20.0), 60.0)


# --- EDA generator ---

def test_eda_three_scrs_in_truth():
    _, truth = synth_eda(EdaSpec(scr_times_s=(5.0, 25.0, 45.0),
                                 scr_amplitudes_us=(0.5, 0.5, 0.5)), 60.0)
    assert truth.scr_count == 3


def test_eda_no_scrs_flat_phasic():
    eda, _ = synth_eda(EdaSpec(), 120.0, seed=5)
    decomp = decompose_eda(eda)
    assert np.max(np.abs(decomp.phasic.values)) < 0.01


def test_eda_overlapping_scrs_counted_separately():
    _, truth = synth_eda(EdaSpec(scr_times_s=(30.0, 31.0),
                                 scr_amplitudes_us=(0.5, 0.5)), 60.0)
    assert truth.scr_count == 2


def test_eda_scr_out_of_range():
    with pytest.raises(SCROutOfRange):
        synth_eda(EdaSpec(scr_times_s=(90.0,), scr_amplitudes_us=(0.5,)), 60.0)


# --- other generators pass validation ---

def test_generator_outputs_validate():
    for series in [
        synth_ecg(EcgSpec(), 30.0)[0],
        synth_eda(EdaSpec(), 30.0)[0],
        synth_resp(RespSpec(), 30.0)[0],
        synth_emg(EmgSpec(), 10.0)[0],
        synth_temp(TempSpec(), 30.0)[0],
    ]:
        assert validate_time_series(series).ok


def test_resp_truth_breath_count():
    _, truth = synth_resp(RespSpec(breaths_per_min=12.0), 120.0)
    assert truth.breath_count == 24


# --- whole-dataset synthesis ---

@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthds")
    info = synth_dataset(DatasetSpec(n_subjects=4, duration_s=120.0, seed=1), root)
    return root, info


def test_dataset_file_counts(dataset):
    root, info = dataset
    assert info["n_files"] == 16
    per_subject = list(root.glob("S*/*.csv"))
    reports = [f for f in per_subject if f.name.endswith("_reports.csv")]
    assert len(reports) == 4
    assert len(per_subject) - len(reports) == 16


def test_dataset_scans_clean(dataset):
    root, _ = dataset
    index = scan_dataset(root)
    assert not index.skipped_files
    assert sorted(index.subjects) == ["S1", "S2", "S3", "S4"]
    assert all(len(files) == 4 for files in index.subjects.values())
    assert sorted(index.report_files) == ["S1", "S2", "S3", "S4"]


def test_dataset_acquires_fully(dataset):
    root, _ = dataset
    result = acquire(scan_dataset(root), ["ECG", "EDA"])
    assert result.excluded_subjects == ()
    assert len(result.bundle) == 4


def test_manifest_schema_and_consistency(dataset):
    root, info = dataset
    with info["manifest"].open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"subject", "phase", "modality", "key", "value"}
    # every subject-phase records a class label matching the recipe
    classes = {(r["subject"], r["phase"]): int(r["value"])
               for r in rows if r["key"] == "class"}
    for (_, phase), cls in classes.items():
        assert cls == (0 if phase == "rest" else 1)
    # manifest beat counts match the emitted ECG (recount via detection-free
    # ground truth: the file's own beat_count entries exist per subject-phase)
    beat_counts = [(r["subject"], r["phase"]) for r in rows
                   if r["key"] == "beat_count"]
    assert sorted(beat_counts) == sorted(
        (f"S{i}", p) for i in range(1, 5) for p in ("rest", "stress"))


def test_reports_scores_consistent_with_class(dataset):
    root, _ = dataset
    for sub in ("S1", "S2", "S3", "S4"):
        with (root / sub / f"{sub}_reports.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        suds = {r["phase"]: float(r["score"]) for r in rows
                if r["questionnaire"] == "SUDS"}
        assert suds["rest"] < 50.0 <= suds["stress"]


def test_dataset_deterministic(tmp_path):
    spec = DatasetSpec(n_subjects=2, duration_s=60.0, seed=9)
    a, b = tmp_path / "a", tmp_path / "b"
    synth_dataset(spec, a)
    synth_dataset(spec, b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
    files_b = sorted(p.relative_to(b) for p in b.rglob("*.csv"))
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


@pytest.mark.parametrize("fields, message", [
    ({"duration_s": 20.0}, "duration_s must be at least 25"),
    ({"phases": 5}, "phases must be"),
    ({"phases": ()}, "phases must be"),
    ({"n_subjects": "3"}, "n_subjects must be an integer"),
    ({"n_subjects": 0}, "n_subjects must be positive"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"ecg_fs_hz": "250"}, "ecg_fs_hz must be a number"),
    ({"phases": ("rest", "rest")}, "phases repeats"),
    ({"modalities": ("ECG", "ECG")}, "modalities repeats"),
])
def test_dataset_spec_rejects_bad_fields(fields, message):
    with pytest.raises(ConfigError, match=message):
        DatasetSpec(**fields)


def test_dataset_spec_keeps_a_list_of_names_as_a_tuple():
    # as a YAML spec gives them
    spec = DatasetSpec(phases=["rest", "stress"], modalities=["ECG"])
    assert spec.phases == ("rest", "stress") and spec.modalities == ("ECG",)
    assert spec == DatasetSpec(phases=("rest", "stress"), modalities=("ECG",))


def test_dataset_spec_shortest_duration_synthesizes_every_modality(tmp_path):
    spec = DatasetSpec(n_subjects=1, modalities=("ECG", "EDA", "RESP", "EMG", "TEMP"),
                       duration_s=25.0)
    info = synth_dataset(spec, tmp_path)
    assert info["n_files"] == len(list(tmp_path.glob("S1/S1_*_*.csv"))) == 10
