"""affectpipe: modular affect-recognition pipelines from multimodal
physiological time series."""

from .acquisition import (
    AcquisitionResult,
    DatasetIndex,
    SignalRegistry,
    acquire,
    load_csv_signal,
    scan_dataset,
    write_csv_signal,
)
from .classification import (
    ClassifierSpec,
    CVStrategy,
    EvaluationReport,
    cross_validate,
    fit,
    make_folds,
    metrics,
    predict,
    roc_auc,
)
from .engine import (
    Classification,
    Component,
    FeatureExtractor,
    FeatureSelector,
    LabelGenerator,
    Pipeline,
    PipelineOutput,
    PipelineSpec,
    SignalAcquisition,
    SignalPreprocessor,
    build_pipeline,
)
from .features import (
    EDADecomposition,
    FeatureCatalogEntry,
    RRSeries,
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
from .labels import (
    LabelRule,
    SelfReport,
    attach_labels,
    generate_phase_labels,
    sequential_forward_selection,
    stai_dynamic_threshold,
    suds_fixed_threshold,
)
from .preprocessing import (
    FilterCoefficients,
    PreprocessChain,
    PreprocessStep,
    apply_zero_phase,
    default_chain,
    design_butterworth,
    design_notch,
    notch_powerline,
    preprocess,
    resample_series,
)
from .synth import (
    DatasetSpec,
    EcgSpec,
    EdaSpec,
    EmgSpec,
    GroundTruth,
    RespSpec,
    TempSpec,
    synth_dataset,
    synth_ecg,
    synth_eda,
    synth_emg,
    synth_resp,
    synth_temp,
)
from .types import (
    FeatureMatrix,
    LabelVector,
    Modality,
    SubjectBundle,
    TimeSeries,
    ValidationResult,
    validate_time_series,
)

__version__ = "0.1.0"
