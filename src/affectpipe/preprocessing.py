"""Per-modality denoising, filtering, resampling, and interpolation.

Filters are Butterworth designs realized as cascaded second-order sections
and applied forward-backward (zero phase), so feature timing downstream
(R-peaks, SCR onsets) is never phase-shifted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sps

from .checks import POSITIVE, REQUIRED, at_least, checked
from .errors import (
    CutoffOutOfRange,
    InvalidOrder,
    PreprocessingFailed,
    SampleRateMismatch,
    UnknownModality,
)
from .types import Modality, SubjectBundle, TimeSeries

#: Anti-alias cutoff as a fraction of the target rate when downsampling.
ANTIALIAS_FRACTION = 0.45


@dataclass(frozen=True)
class FilterDesign:
    kind: str  # lowpass | highpass | bandpass | bandstop | notch
    order: int
    cutoffs_hz: tuple[float, ...]
    fs_hz: float


@dataclass(frozen=True)
class FilterCoefficients:
    """Second-order-section coefficients plus the design that produced them.

    Immutable (read-only sections), so one instance can be shared by every
    caller of the same design.
    """

    sections: np.ndarray  # shape (n_sections, 6), scipy sos layout
    design: FilterDesign
    #: edge-padding length for :func:`apply_zero_phase`, see _settling_samples
    settling_samples: int = field(init=False, repr=False, compare=False)
    #: read-only step-response initial state of each section (``sosfilt_zi``)
    zi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sos = np.atleast_2d(np.asarray(self.sections, dtype=float))
        sos.setflags(write=False)
        object.__setattr__(self, "sections", sos)
        # stability: poles of each biquad strictly inside the unit circle
        r_max = 0.0
        for b0, b1, b2, a0, a1, a2 in sos:
            if not (abs(a2) < 1.0 and abs(a1) < 1.0 + a2):
                raise ValueError("unstable second-order section")
            r_max = max(r_max, float(np.max(np.abs(np.roots([a0, a1, a2])))))
        object.__setattr__(self, "settling_samples",
                           _settling_samples(r_max, self.design.order))
        zi = sps.sosfilt_zi(sos)
        zi.setflags(write=False)
        object.__setattr__(self, "zi", zi)

    def frequency_response(self, freqs_hz) -> np.ndarray:
        """Complex single-pass response at the given frequencies."""
        _, h = sps.sosfreqz(self.sections, worN=np.asarray(freqs_hz, float),
                            fs=self.design.fs_hz)
        return h


def _check_cutoffs(kind, cutoffs, fs_hz):
    nyquist = fs_hz / 2.0
    if kind in ("lowpass", "highpass"):
        if len(cutoffs) != 1:
            raise CutoffOutOfRange(f"{kind} takes exactly one cutoff")
    elif kind in ("bandpass", "bandstop"):
        if len(cutoffs) != 2 or not cutoffs[0] < cutoffs[1]:
            raise CutoffOutOfRange(f"{kind} takes two ordered cutoffs")
    else:
        raise CutoffOutOfRange(f"unknown filter kind {kind!r}")
    for c in cutoffs:
        if not 0 < c < nyquist:
            raise CutoffOutOfRange(
                f"cutoff {c} Hz outside (0, {nyquist}) at fs={fs_hz}"
            )


def design_butterworth(kind: str, order: int, cutoffs_hz, fs_hz: float) -> FilterCoefficients:
    """Butterworth design via bilinear transform with frequency pre-warping.

    The -3 dB point of the single-pass magnitude response lands on each
    cutoff (maximally flat passband).  Arguments are validated on every
    call; the design itself is memoised on the normalised ``(kind, order,
    cutoffs, fs)``, so repeated calls return the same immutable
    coefficients.
    """
    if not at_least(1)[0](order):
        raise InvalidOrder(f"order must be a positive integer, got {order!r}")
    cutoffs = tuple(float(c) for c in np.atleast_1d(cutoffs_hz))
    _check_cutoffs(kind, cutoffs, fs_hz)
    return _butterworth(kind, int(order), cutoffs, float(fs_hz))


@functools.lru_cache(maxsize=64)
def _butterworth(kind: str, order: int, cutoffs: tuple[float, ...],
                 fs_hz: float) -> FilterCoefficients:
    wn = cutoffs[0] if len(cutoffs) == 1 else list(cutoffs)
    sos = sps.butter(order, wn, btype=kind, fs=fs_hz, output="sos")
    return FilterCoefficients(sos, FilterDesign(kind, order, cutoffs, fs_hz))


def design_notch(f0_hz: float, q: float, fs_hz: float) -> FilterCoefficients:
    """Narrow notch for powerline removal.

    ``q`` describes the effective zero-phase bandwidth: after the
    forward-backward pass, attenuation at f0 +/- f0/(2q) stays within 3 dB.
    The single-pass design is therefore made twice as narrow.  Memoised like
    :func:`design_butterworth`.
    """
    if not 0 < f0_hz < fs_hz / 2.0:
        raise CutoffOutOfRange(f"notch frequency {f0_hz} Hz >= Nyquist at fs={fs_hz}")
    if q <= 0:
        raise CutoffOutOfRange("q must be positive")
    return _notch(float(f0_hz), float(q), float(fs_hz))


@functools.lru_cache(maxsize=16)
def _notch(f0_hz: float, q: float, fs_hz: float) -> FilterCoefficients:
    b, a = sps.iirnotch(f0_hz, 2.0 * q, fs=fs_hz)
    sos = sps.tf2sos(b, a)
    return FilterCoefficients(sos, FilterDesign("notch", 2, (f0_hz,), fs_hz))


def _settling_samples(r_max: float, order: int, floor: float = 1e-4) -> int:
    """Edge-padding length: samples until the slowest pole decays below floor.

    A fixed multiple of the order is far too short for resonant designs
    (e.g. a Q=30 notch rings for seconds), so the pad is sized from the
    largest pole radius ``r_max``, with 3x order as a lower bound.
    """
    base = 3 * order
    if not 0 < r_max < 1:
        return base
    return max(base, int(np.ceil(np.log(floor) / np.log(r_max))))


def apply_zero_phase(coeffs: FilterCoefficients, series: TimeSeries) -> TimeSeries:
    """Forward-backward filtering with reflected edge padding.

    Output length equals input length and the group delay is zero by
    construction.  The result is bit-identical to scipy's
    ``sosfiltfilt(..., padtype="even", padlen=...)``, whose steps this
    repeats with the stored ``coeffs.zi`` instead of solving it per call.
    """
    fs = coeffs.design.fs_hz
    if abs(series.sample_rate_hz - fs) > 1e-9 * fs:
        raise SampleRateMismatch(
            f"series at {series.sample_rate_hz} Hz, filter designed for {fs} Hz"
        )
    if not series.is_uniform():
        raise SampleRateMismatch("series must be uniformly sampled; resample first")
    n = len(series)
    padlen = min(coeffs.settling_samples, n - 1)
    x = series.values
    ext = np.concatenate((x[padlen:0:-1], x, x[-2:-(padlen + 2):-1]))
    # scipy's cython path needs writable sections; the stored ones are frozen
    sos = np.array(coeffs.sections)
    y, _ = sps.sosfilt(sos, ext, zi=coeffs.zi * ext[0])
    y, _ = sps.sosfilt(sos, y[::-1], zi=coeffs.zi * y[-1])
    return series.with_values(y[::-1][padlen:padlen + n])


def notch_powerline(series: TimeSeries, f0_hz: float = 50.0, q: float = 30.0) -> TimeSeries:
    """Remove powerline interference at 50 or 60 Hz (zero phase)."""
    coeffs = design_notch(f0_hz, q, series.sample_rate_hz)
    return apply_zero_phase(coeffs, series)


def resample_series(series: TimeSeries, target_fs_hz: float) -> TimeSeries:
    """Resample onto a uniform grid at ``target_fs_hz`` spanning [t0, tN].

    Values come from linear interpolation; when downsampling a uniform
    series, an anti-alias lowpass at 0.45x the target rate is applied first
    through :func:`apply_zero_phase`.
    """
    if target_fs_hz <= 0:
        raise CutoffOutOfRange("target sample rate must be positive")
    t = series.timestamps
    x = np.asarray(series.values, dtype=float)
    if target_fs_hz < series.sample_rate_hz and series.is_uniform():
        aa = design_butterworth("lowpass", 8, ANTIALIAS_FRACTION * target_fs_hz,
                                series.sample_rate_hz)
        x = apply_zero_phase(aa, series).values
    n = int(np.floor((t[-1] - t[0]) * target_fs_hz)) + 1
    grid = t[0] + np.arange(n) / target_fs_hz
    resampled = np.interp(grid, t, x)
    return TimeSeries(
        subject_id=series.subject_id,
        phase=series.phase,
        modality=series.modality,
        timestamps=grid,
        values=resampled,
        sample_rate_hz=target_fs_hz,
    )


#: The keys of each op a :class:`PreprocessStep` may name, each as (check,
#: default).  The Nyquist limit depends on the data's sample rate, so it
#: is checked, with the number of cutoffs an op takes, when the chain runs.
STEP_OPS = {
    **dict.fromkeys(("lowpass", "highpass", "bandpass", "bandstop"), {
        "order": (at_least(1), REQUIRED),
        "cutoffs_hz": ((lambda v: POSITIVE[0](v) or (type(v) in (list, tuple) and len(v) > 0
                                                     and all(map(POSITIVE[0], v))),
                        "a finite positive number or a non-empty list of them"), REQUIRED)}),
    "notch": {"f0_hz": (POSITIVE, 50.0), "q": (POSITIVE, 30.0)},
    "resample": {"target_fs_hz": (POSITIVE, REQUIRED)},
}


@dataclass(frozen=True)
class PreprocessStep:
    """One chain step: ``op`` is a key of :data:`STEP_OPS`, and ``params``
    takes only that op's keys; once built it holds every one, an absent or
    None key at its default.  Raises ValueError naming an unknown op, or an
    unknown, missing or rejected key."""

    op: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.op not in STEP_OPS:
            raise ValueError(f"unknown preprocessing op {self.op!r}; "
                             f"STEP_OPS are {', '.join(STEP_OPS)}")
        object.__setattr__(self, "params", checked(STEP_OPS[self.op], self.params, self.op))


@dataclass(frozen=True)
class PreprocessChain:
    """Ordered preprocessing steps for one modality."""

    steps: tuple[PreprocessStep, ...] = ()

    def apply(self, series: TimeSeries) -> TimeSeries:
        for step in self.steps:
            series = _apply_step(step, series)
        return series


def _apply_step(step: PreprocessStep, series: TimeSeries) -> TimeSeries:
    p = step.params  # every key of STEP_OPS[step.op], defaults filled in
    if step.op == "resample":
        return resample_series(series, p["target_fs_hz"])
    if step.op == "notch":
        return notch_powerline(series, p["f0_hz"], p["q"])
    # lowpass, highpass, bandpass or bandstop: PreprocessStep checks the op
    coeffs = design_butterworth(step.op, p["order"], p["cutoffs_hz"], series.sample_rate_hz)
    return apply_zero_phase(coeffs, series)


# Default chains per modality. ECG: baseline wander + powerline removal;
# EDA: 5 Hz lowpass; EMG: 10 Hz highpass (DC removal); RESP: 0.1-0.35 Hz
# bandpass; TEMP: nothing.
_DEFAULT_CHAINS = {
    "ECG": (
        PreprocessStep("highpass", {"order": 2, "cutoffs_hz": (0.5,)}),
        PreprocessStep("notch", {"f0_hz": 50.0, "q": 30.0}),
    ),
    "EDA": (PreprocessStep("lowpass", {"order": 4, "cutoffs_hz": (5.0,)}),),
    "EMG": (PreprocessStep("highpass", {"order": 4, "cutoffs_hz": (10.0,)}),),
    "RESP": (PreprocessStep("bandpass", {"order": 2, "cutoffs_hz": (0.1, 0.35)}),),
    "TEMP": (),
}


def default_chain(modality: Modality | str, fs_hz: float) -> PreprocessChain:
    """Paper-grade default denoising chain for a registered modality."""
    name = modality.name if isinstance(modality, Modality) else modality
    try:
        steps = _DEFAULT_CHAINS[name.upper()]
    except KeyError:
        raise UnknownModality(f"no default chain for modality {name!r}") from None
    # drop steps whose cutoffs cannot exist at this sample rate (e.g. a
    # 50 Hz notch on a 4 Hz temperature channel would be meaningless anyway)
    usable = []
    nyquist = fs_hz / 2.0
    for step in steps:
        cut = step.params.get("cutoffs_hz", (step.params.get("f0_hz"),))
        if all(c is None or c < nyquist for c in cut):
            usable.append(step)
    return PreprocessChain(tuple(usable))


def preprocess(bundle: SubjectBundle,
               chains: dict[str, PreprocessChain] | None = None,
               resample_rate_hz: float | None = None) -> SubjectBundle:
    """Run every series through its modality's chain.

    Modalities without an explicit chain get :func:`default_chain`.  When
    ``resample_rate_hz`` is set, each series is resampled onto that uniform
    grid before its chain runs.  The bundle shape (subjects, phases,
    modalities) is preserved.  Raises PreprocessingFailed naming every
    series whose chain failed.
    """
    chains = dict(chains or {})
    out = {}
    errors = []
    for subject in bundle.subjects():
        processed = []
        for series in bundle.series_for(subject):
            try:
                s = series
                if resample_rate_hz is not None:
                    s = resample_series(s, resample_rate_hz)
                elif not s.is_uniform():
                    s = resample_series(s, s.sample_rate_hz)
                chain = chains.get(series.modality.name)
                if chain is None:
                    chain = default_chain(series.modality, s.sample_rate_hz)
                processed.append(chain.apply(s))
            except Exception as exc:  # aggregated with full context
                errors.append((subject, series.phase, series.modality.name, exc))
        out[subject] = tuple(processed)
    if errors:
        raise PreprocessingFailed(errors)
    return SubjectBundle(out)
