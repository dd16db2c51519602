"""Parameterized physiological signal generators with known ground truth.

These stand in for licensed study datasets: every generator records the
events it injected (beat times, SCR times, breath counts), and
:func:`synth_dataset` writes a conforming dataset tree plus a ground-truth
manifest and per-subject self-report files.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .acquisition import SignalRegistry, write_csv_signal, write_rows
from .checks import INTEGER, NAMES, NUMBER
from .errors import ConfigError, InvalidRate, IOFailure, SCROutOfRange
from .types import TimeSeries

_REGISTRY = SignalRegistry.default()


@dataclass(frozen=True)
class GroundTruth:
    beat_times_s: tuple[float, ...] = ()
    scr_count: int = 0
    breath_count: int = 0


@dataclass(frozen=True)
class EcgSpec:
    hr_bpm: float = 60.0
    hrv_rmssd_target_s: float = 0.0
    noise_snr_db: float | None = 40.0
    fs_hz: float = 250.0


@dataclass(frozen=True)
class EdaSpec:
    scl_baseline_us: float = 2.0
    scr_times_s: tuple[float, ...] = ()
    scr_amplitudes_us: tuple[float, ...] = ()
    drift_amplitude_us: float = 0.1
    noise_std_us: float = 0.002
    fs_hz: float = 32.0


@dataclass(frozen=True)
class RespSpec:
    breaths_per_min: float = 15.0
    amplitude: float = 1.0
    noise_std: float = 0.01
    fs_hz: float = 32.0


@dataclass(frozen=True)
class EmgSpec:
    noise_std_mv: float = 0.05
    tone_hz: float | None = None
    tone_amplitude_mv: float = 0.0
    fs_hz: float = 700.0


@dataclass(frozen=True)
class TempSpec:
    baseline_c: float = 33.0
    slope_c_per_min: float = 0.0
    noise_std_c: float = 0.01
    fs_hz: float = 4.0


def _series(subject, phase, modality_name, t, x, fs):
    return TimeSeries(subject, phase, _REGISTRY.lookup(modality_name), t, x, fs)


def synth_ecg(spec: EcgSpec, duration_s: float, seed: int = 0,
              subject: str = "S1", phase: str = "rest"):
    """Gaussian-template QRS train with calibrated beat-interval jitter.

    The jitter is rescaled so the RMSSD of the emitted intervals matches
    ``hrv_rmssd_target_s`` exactly (well within the 5% tolerance).
    """
    if not 30 <= spec.hr_bpm <= 220:
        raise InvalidRate(f"hr_bpm {spec.hr_bpm} outside [30, 220]")
    rng = np.random.default_rng(seed)
    base = 60.0 / spec.hr_bpm
    # beats start at 0.5 s; keep the last QRS clear of the series end
    n_beats = int(np.floor((duration_s - 0.75) / base)) + 1
    intervals = np.full(n_beats - 1, base)
    if spec.hrv_rmssd_target_s > 0 and n_beats > 3:
        jitter = rng.normal(0.0, 1.0, n_beats - 1)
        jitter -= jitter.mean()
        d = np.diff(jitter)
        achieved = np.sqrt(np.mean(d * d))
        if achieved > 0:
            jitter *= spec.hrv_rmssd_target_s / achieved
        intervals = intervals + jitter
        intervals = np.clip(intervals, 0.3, 2.0)
        # rescale once more after clipping so the target is hit exactly
        d = np.diff(intervals - base)
        achieved = np.sqrt(np.mean(d * d))
        if achieved > 0:
            intervals = base + (intervals - base) * (spec.hrv_rmssd_target_s / achieved)
    beat_times = 0.5 + np.concatenate([[0.0], np.cumsum(intervals)])

    fs = spec.fs_hz
    t = np.arange(int(duration_s * fs)) / fs
    x = _qrs_train(t, beat_times)
    if spec.noise_snr_db is not None:
        signal_rms = np.sqrt(np.mean(x * x))
        noise_rms = signal_rms / (10 ** (spec.noise_snr_db / 20.0))
        x = x + rng.normal(0.0, noise_rms, x.size)
    truth = GroundTruth(beat_times_s=tuple(float(b) for b in beat_times))
    return _series(subject, phase, "ECG", t, x, fs), truth


def _qrs_train(t: np.ndarray, beat_times: np.ndarray) -> np.ndarray:
    """Sum of unit Gaussian QRS complexes, one per beat, on grid ``t``.

    Each beat adds its Gaussian on the samples within 5 widths of it.  All
    beats' windows are located by one ``searchsorted`` and evaluated by one
    ``exp``; ``np.add.at`` adds them in beat order, so a sample in two
    overlapping windows holds ``(0 + v1) + v2``.
    """
    width = 0.02  # QRS half-width in seconds
    lo, hi = np.searchsorted(t, np.stack((beat_times - 5 * width,
                                          beat_times + 5 * width)))
    lengths = hi - lo
    # sample index of every window position, window after window
    starts = np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
    idx = np.arange(starts.size) + starts
    x = np.zeros_like(t)
    np.add.at(x, idx, np.exp(-0.5 * ((t[idx] - np.repeat(beat_times, lengths))
                                     / width) ** 2))
    return x


def scr_shape(t: np.ndarray, rise_s: float = 1.0, decay_s: float = 4.0) -> np.ndarray:
    """Bi-exponential SCR transient normalized to unit peak."""
    h = np.where(t >= 0, np.exp(-np.maximum(t, 0) / decay_s)
                 - np.exp(-np.maximum(t, 0) / rise_s), 0.0)
    return h / h.max()


def synth_eda(spec: EdaSpec, duration_s: float, seed: int = 0,
              subject: str = "S1", phase: str = "rest"):
    """Tonic baseline with slow drift plus injected SCR transients."""
    for st in spec.scr_times_s:
        if not 0 <= st < duration_s:
            raise SCROutOfRange(f"SCR time {st} outside [0, {duration_s})")
    if len(spec.scr_times_s) != len(spec.scr_amplitudes_us):
        raise SCROutOfRange("scr_times_s and scr_amplitudes_us lengths differ")
    rng = np.random.default_rng(seed)
    fs = spec.fs_hz
    t = np.arange(int(duration_s * fs)) / fs
    # drift below 0.01 Hz so the tonic/phasic split sees it as tonic
    x = spec.scl_baseline_us + spec.drift_amplitude_us * np.sin(2 * np.pi * 0.004 * t)
    for st, amp in zip(spec.scr_times_s, spec.scr_amplitudes_us):
        x = x + amp * scr_shape(t - st)
    if spec.noise_std_us > 0:
        x = x + rng.normal(0.0, spec.noise_std_us, x.size)
    truth = GroundTruth(scr_count=len(spec.scr_times_s))
    return _series(subject, phase, "EDA", t, x, fs), truth


def synth_resp(spec: RespSpec, duration_s: float, seed: int = 0,
               subject: str = "S1", phase: str = "rest"):
    rng = np.random.default_rng(seed)
    fs = spec.fs_hz
    t = np.arange(int(duration_s * fs)) / fs
    f = spec.breaths_per_min / 60.0
    x = spec.amplitude * np.sin(2 * np.pi * f * t)
    if spec.noise_std > 0:
        x = x + rng.normal(0.0, spec.noise_std, x.size)
    truth = GroundTruth(breath_count=int(np.floor(duration_s * f)))
    return _series(subject, phase, "RESP", t, x, fs), truth


def synth_emg(spec: EmgSpec, duration_s: float, seed: int = 0,
              subject: str = "S1", phase: str = "rest"):
    rng = np.random.default_rng(seed)
    fs = spec.fs_hz
    t = np.arange(int(duration_s * fs)) / fs
    x = rng.normal(0.0, spec.noise_std_mv, t.size)
    if spec.tone_hz is not None:
        x = x + spec.tone_amplitude_mv * np.sin(2 * np.pi * spec.tone_hz * t)
    return _series(subject, phase, "EMG", t, x, fs), GroundTruth()


def synth_temp(spec: TempSpec, duration_s: float, seed: int = 0,
               subject: str = "S1", phase: str = "rest"):
    rng = np.random.default_rng(seed)
    fs = spec.fs_hz
    t = np.arange(int(duration_s * fs)) / fs
    x = spec.baseline_c + spec.slope_c_per_min * t / 60.0
    if spec.noise_std_c > 0:
        x = x + rng.normal(0.0, spec.noise_std_c, x.size)
    return _series(subject, phase, "TEMP", t, x, fs), GroundTruth()


# ---------------------------------------------------------------------------
# Whole-dataset synthesis
# ---------------------------------------------------------------------------

# Phase recipes relative to rest: stress raises HR by 25 BPM, halves RMSSD,
# quadruples the SCR rate, adds 4 breaths/min, doubles the EMG noise and
# cools the skin by 0.05 C/min; amusement sits in between.
PHASE_RECIPES = {
    "rest": {"hr_delta": 0.0, "rmssd_scale": 1.0, "scr_rate_scale": 1.0,
             "resp_delta": 0.0, "emg_scale": 1.0, "temp_slope_c_per_min": 0.0,
             "class": 0, "suds": 25.0, "stai": 35.0},
    "amusement": {"hr_delta": 10.0, "rmssd_scale": 0.8, "scr_rate_scale": 2.0,
                  "resp_delta": 2.0, "emg_scale": 1.5, "temp_slope_c_per_min": -0.02,
                  "class": 2, "suds": 35.0, "stai": 40.0},
    "stress": {"hr_delta": 25.0, "rmssd_scale": 0.5, "scr_rate_scale": 4.0,
               "resp_delta": 4.0, "emg_scale": 2.0, "temp_slope_c_per_min": -0.05,
               "class": 1, "suds": 75.0, "stai": 60.0},
}

#: The rest levels the recipes are relative to.
REST_HR_BPM = 65.0
REST_RMSSD_S = 0.05
REST_SCR_PER_MIN = 1.0
REST_BREATHS_PER_MIN = 14.0


#: The shortest recording synth_dataset makes: EDA draws its SCR onsets
#: from [5, duration_s - 20) s.
MIN_DURATION_S = 25.0


@dataclass(frozen=True)
class DatasetSpec:
    """Declarative description of a synthetic dataset."""

    n_subjects: int = 8
    phases: tuple[str, ...] = ("rest", "stress")
    modalities: tuple[str, ...] = ("ECG", "EDA")
    duration_s: float = 180.0
    seed: int = 0
    ecg_fs_hz: float = 250.0
    eda_fs_hz: float = 32.0

    def __post_init__(self):
        # checked here, before synth_dataset creates any directory
        for f in fields(self):
            check = {"phases": NAMES, "modalities": NAMES,
                     "n_subjects": INTEGER, "seed": INTEGER}.get(f.name, NUMBER)
            value = getattr(self, f.name)
            if not check[0](value):
                raise ConfigError(f"{f.name} must be {check[1]}, got {value!r}")
        for name in ("phases", "modalities"):
            names = tuple(getattr(self, name))  # a list of names is kept as a tuple
            object.__setattr__(self, name, names)
            repeated = sorted({v for v in names if names.count(v) > 1})
            if repeated:
                raise ConfigError(f"{name} repeats {repeated}")
        if self.n_subjects <= 0:
            raise ConfigError("n_subjects must be positive")
        if not self.duration_s >= MIN_DURATION_S:  # NaN fails too
            raise ConfigError(f"duration_s must be at least {MIN_DURATION_S:g}, "
                              f"got {self.duration_s!r}")
        unknown = [p for p in self.phases if p not in PHASE_RECIPES]
        if unknown:
            raise ConfigError(f"unknown phases {unknown}; "
                              f"known: {sorted(PHASE_RECIPES)}")
        unknown = [m for m in self.modalities if m not in SYNTH_MODALITIES]
        if unknown:
            raise ConfigError(f"no generator for modalities {unknown}; "
                              f"known: {list(SYNTH_MODALITIES)}")


def synth_dataset(spec: DatasetSpec, root) -> dict:
    """Write a conforming dataset tree under ``root``.

    Emits one signal CSV per subject/phase/modality, a per-subject
    ``{subject}_reports.csv`` with SUDS and STAI scores consistent with
    the injected class, and a root-level ``manifest.csv`` of ground-truth
    values (``subject,phase,modality,key,value``).

    Every directory and file it cannot create or write raises
    :class:`IOFailure`.
    """
    root = Path(root)
    _mkdir(root)
    # timestamp row templates shared by the files of this call only
    grids = {}
    # deterministic per-record seeds independent of PYTHONHASHSEED
    rng = np.random.default_rng(spec.seed)
    manifest_rows = []
    for si in range(spec.n_subjects):
        subject = f"S{si + 1}"
        subject_dir = root / subject
        _mkdir(subject_dir)
        report_rows = []
        # per-subject physiological offsets so subjects are not clones
        hr_offset = float(rng.normal(0.0, 3.0))
        scl_offset = float(rng.normal(0.0, 0.3))
        for phase in spec.phases:
            recipe = PHASE_RECIPES[phase]
            for modality in spec.modalities:
                seed = int(rng.integers(2 ** 31))
                series, truth = _synth_one(spec, subject, phase, modality,
                                           recipe, hr_offset, scl_offset, seed)
                write_csv_signal(series, subject_dir / f"{subject}_{phase}_{modality}.csv",
                                 grids=grids)
                for key, value in _truth_items(truth):
                    manifest_rows.append((subject, phase, modality, key, value))
            suds = recipe["suds"] + float(rng.normal(0.0, 3.0))
            report_rows.append((phase, "SUDS", round(min(max(suds, 0.0), 100.0), 2)))
            report_rows.append((phase, "STAI",
                                round(recipe["stai"] + float(rng.normal(0.0, 2.0)), 2)))
            manifest_rows.append((subject, phase, "-", "class", recipe["class"]))
        write_rows(subject_dir / f"{subject}_reports.csv",
                   ["phase", "questionnaire", "score"], report_rows)
    manifest_path = root / "manifest.csv"
    write_rows(manifest_path, ["subject", "phase", "modality", "key", "value"],
               manifest_rows)
    return {"root": root, "manifest": manifest_path,
            "n_files": spec.n_subjects * len(spec.phases) * len(spec.modalities)}


def _mkdir(path: Path):
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOFailure(str(exc)) from exc


def _truth_items(truth: GroundTruth):
    items = []
    if truth.beat_times_s:
        items.append(("beat_count", len(truth.beat_times_s)))
    if truth.scr_count:
        items.append(("scr_count", truth.scr_count))
    if truth.breath_count:
        items.append(("breath_count", truth.breath_count))
    return items


#: The modalities _synth_one generates.
SYNTH_MODALITIES = ("ECG", "EDA", "RESP", "EMG", "TEMP")


def _synth_one(spec, subject, phase, modality, recipe, hr_offset, scl_offset, seed):
    d = spec.duration_s
    if modality == "ECG":
        ecg = EcgSpec(hr_bpm=REST_HR_BPM + hr_offset + recipe["hr_delta"],
                      hrv_rmssd_target_s=REST_RMSSD_S * recipe["rmssd_scale"],
                      noise_snr_db=30.0, fs_hz=spec.ecg_fs_hz)
        return synth_ecg(ecg, d, seed, subject, phase)
    if modality == "EDA":
        rate = REST_SCR_PER_MIN * recipe["scr_rate_scale"]
        n_scr = max(1, int(round(rate * d / 60.0)))
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(5.0, d - 20.0, n_scr))
        # keep SCRs separated so the count ground truth is recoverable
        for i in range(1, times.size):
            times[i] = max(times[i], times[i - 1] + 8.0)
        times = times[times < d - 10.0]
        amps = rng.uniform(0.3, 0.8, times.size)
        eda = EdaSpec(scl_baseline_us=2.0 + scl_offset + 0.5 * recipe["scr_rate_scale"],
                      scr_times_s=tuple(times), scr_amplitudes_us=tuple(amps),
                      fs_hz=spec.eda_fs_hz)
        return synth_eda(eda, d, seed + 1, subject, phase)
    if modality == "RESP":
        return synth_resp(RespSpec(breaths_per_min=REST_BREATHS_PER_MIN
                                   + recipe["resp_delta"]), d, seed, subject, phase)
    if modality == "EMG":
        return synth_emg(EmgSpec(noise_std_mv=EmgSpec.noise_std_mv * recipe["emg_scale"]),
                         d, seed, subject, phase)
    # TEMP: DatasetSpec admits only the SYNTH_MODALITIES
    return synth_temp(TempSpec(slope_c_per_min=recipe["temp_slope_c_per_min"]),
                      d, seed, subject, phase)
