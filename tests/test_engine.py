import itertools
import json
import pickle
import re

import numpy as np
import pytest

from affectpipe import (
    Classification,
    ClassifierSpec,
    CVStrategy,
    DatasetSpec,
    FeatureExtractor,
    FeatureSelector,
    LabelRule,
    LabelGenerator,
    Pipeline,
    PipelineSpec,
    PreprocessChain,
    PreprocessStep,
    SignalAcquisition,
    SignalPreprocessor,
    WindowingPolicy,
    FeatureMatrix,
    LabelVector,
    Modality,
    build_pipeline,
    cross_validate,
    ecg_eda_catalog,
    make_folds,
    preprocess,
    synth_dataset,
)
from affectpipe.classification import CV_KEYS
from affectpipe.features import FeatureCatalogEntry
from affectpipe.engine import (
    BUNDLE,
    FEATURES,
    LABELED,
    NONE,
    OUTPUT,
    REQUIRED_KINDS,
    SELECTOR_KEYS,
    Component,
    RunContext,
)
from affectpipe.errors import (
    AllRowsDropped,
    CatalogError,
    EmptyDataset,
    IncompatibleStages,
    KTooLarge,
    MissingStage,
    NonNumericFeature,
    PreprocessingFailed,
    SchemaMismatch,
    StageExecutionError,
    TooFewRows,
    TooFewSamples,
    UnmappedPhase,
)

from test_features import _bundle_with_flat_ecg

KNN3 = ClassifierSpec("knn3", "KNN", {"k_neighbors": 3})
TREE = ClassifierSpec("tree", "DecisionTree")


@pytest.fixture(scope="module")
def dataset_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    synth_dataset(DatasetSpec(n_subjects=4, duration_s=120.0, seed=0), root)
    return root


def _stages(root, with_selector=False, mode=2):
    stages = [
        SignalAcquisition(["ECG", "EDA"], root),
        SignalPreprocessor(),
        FeatureExtractor(ecg_eda_catalog(), WindowingPolicy(60.0, 30.0),
                         calculate_average=True),
        LabelGenerator(LabelRule("phase-map",
                                 {"phase_to_class": {"rest": 0, "stress": 1}})),
    ]
    if with_selector:
        stages.append(FeatureSelector(k=4, scorer=KNN3, cv_folds=3))
    stages.append(Classification(mode, [KNN3, TREE],
                                 cv=CVStrategy("kfold", 4)))
    return stages


# --- build-time validation ---

def test_build_standard_pipeline(dataset_root):
    p = build_pipeline(PipelineSpec(tuple(_stages(dataset_root))))
    assert isinstance(p, Pipeline)


def test_build_with_selector(dataset_root):
    p = build_pipeline(PipelineSpec(tuple(_stages(dataset_root,
                                                  with_selector=True))))
    assert [s.kind for s in p.stages] == [
        "Acquisition", "Preprocessor", "FeatureExtractor", "LabelGenerator",
        "FeatureSelector", "Classification"]


def test_build_acquisition_not_first(dataset_root):
    s = _stages(dataset_root)
    s[0], s[1] = s[1], s[0]
    with pytest.raises(IncompatibleStages):
        build_pipeline(PipelineSpec(tuple(s)))


def test_build_missing_label_generator(dataset_root):
    s = _stages(dataset_root)
    del s[3]
    with pytest.raises(MissingStage):
        build_pipeline(PipelineSpec(tuple(s)))


def test_build_feature_extractor_omitted_is_type_error(dataset_root):
    s = _stages(dataset_root)
    del s[2]  # Preprocessor (bundle) now feeds LabelGenerator (features)
    with pytest.raises(IncompatibleStages) as e:
        build_pipeline(PipelineSpec(tuple(s)))
    assert (e.value.index, e.value.next_index) == (1, 2)
    assert e.value.got == BUNDLE and e.value.wanted == FEATURES


def test_build_selector_before_labels(dataset_root):
    s = _stages(dataset_root, with_selector=True)
    s[3], s[4] = s[4], s[3]
    with pytest.raises(IncompatibleStages):
        build_pipeline(PipelineSpec(tuple(s)))


def test_type_safety_exhaustive(dataset_root):
    """Any accepted ordering of <= 6 stages has a consistent payload chain."""
    pool = _stages(dataset_root, with_selector=True)
    accepted = 0
    for r in range(1, 7):
        for combo in itertools.permutations(pool, r):
            try:
                build_pipeline(PipelineSpec(tuple(combo)))
            except (MissingStage, IncompatibleStages):
                continue
            accepted += 1
            assert combo[0].input_type == NONE
            assert combo[-1].output_type == OUTPUT
            for a, b in zip(combo, combo[1:]):
                assert a.output_type == b.input_type
    assert accepted >= 2  # at least the two canonical layouts


def test_incompatible_stages_names_both_kinds(dataset_root):
    s = _stages(dataset_root)
    s[0], s[1] = s[1], s[0]
    with pytest.raises(IncompatibleStages, match=re.escape(
            "stage 0 (Preprocessor) output 'bundle' is incompatible with "
            "stage 1 (Acquisition) input 'none'")):
        build_pipeline(PipelineSpec(tuple(s)))


def _kind_rules_accept(stages):
    """The kind rules for built-in stages: the required kinds present,
    Acquisition first, Classification last, one of each, the first
    FeatureSelector after the first LabelGenerator; and a matching payload
    type between consecutive stages."""
    kinds = [s.kind for s in stages]
    return (all(kind in kinds for kind in REQUIRED_KINDS)
            and kinds[0] == "Acquisition" and kinds[-1] == "Classification"
            and kinds.count("Acquisition") == 1 and kinds.count("Classification") == 1
            and ("FeatureSelector" not in kinds
                 or kinds.index("FeatureSelector") > kinds.index("LabelGenerator"))
            and all(a.output_type == b.input_type for a, b in zip(stages, stages[1:])))


def test_payload_chain_places_built_in_stages_as_the_kind_rules_do(dataset_root):
    """Every sequence of 1-6 of the six built-in stages, repeats allowed
    (55,986): build_pipeline accepts exactly those the kind rules accept,
    and rejects the rest with MissingStage or IncompatibleStages."""
    pool = _stages(dataset_root, with_selector=True)
    sequences = accepted = 0
    for n in range(1, 7):
        for combo in itertools.product(pool, repeat=n):
            sequences += 1
            try:
                build_pipeline(PipelineSpec(combo))
            except MissingStage as exc:
                assert exc.kind not in [s.kind for s in combo]
                built = False
            except IncompatibleStages:
                built = False
            else:
                built = True
            assert built == _kind_rules_accept(combo), [s.kind for s in combo]
            accepted += built
    assert sequences == 55_986
    # Acquisition, Preprocessor, FeatureExtractor, LabelGenerator,
    # Classification; that with a second Preprocessor after the first; or
    # that with a FeatureSelector after the LabelGenerator
    assert accepted == 3


class _Custom(Component):
    kind = "Custom"

    def __init__(self, input_type, output_type):
        self.input_type, self.output_type = input_type, output_type

    def run(self, payload, ctx):
        return payload


def test_custom_stages_sit_wherever_their_payload_types_allow(dataset_root):
    stages = _stages(dataset_root)
    for layout in ([_Custom(NONE, NONE)] + stages, stages + [_Custom(OUTPUT, OUTPUT)]):
        assert isinstance(build_pipeline(PipelineSpec(tuple(layout))), Pipeline)
    # stage 0 is given the run's start payload, none
    with pytest.raises(IncompatibleStages, match=re.escape(
            "stage -1 (run start) output 'none' is incompatible with "
            "stage 0 (Custom) input 'bundle'")) as e:
        build_pipeline(PipelineSpec(tuple([_Custom(BUNDLE, NONE)] + stages)))
    assert (e.value.index, e.value.next_index) == (-1, 0)


# --- run-time behaviour ---

def test_end_to_end_cross_validation(dataset_root):
    p = build_pipeline(PipelineSpec(tuple(_stages(dataset_root))))
    out = p.run()
    assert set(out.fitted_models) == {"knn3", "tree"}
    assert len(out.report.per_model["knn3"]) == 4
    for folds in out.report.per_model.values():
        for fold in folds:
            assert {"accuracy", "f1_micro", "f1_macro"} <= set(fold.metrics)
    assert p.last_reports["dropped_rows"] == []
    assert p.last_reports["excluded_subjects"] == []


def test_empty_dataset_fails_at_acquisition(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    stages = _stages(empty)
    p = build_pipeline(PipelineSpec(tuple(stages)))
    with pytest.raises(StageExecutionError) as e:
        p.run()
    assert e.value.stage_index == 0
    assert isinstance(e.value.__cause__, EmptyDataset)


def test_acquisition_rejects_an_unknown_signal_type_when_built(tmp_path):
    with pytest.raises(ValueError, match=r"signal_types\[1\]: 'EDAX' is not a known modality"):
        SignalAcquisition(["ECG", "EDAX"], tmp_path)
    SignalAcquisition(["ecg", Modality("EDA")], tmp_path)  # any case, or a Modality


def test_chain_keys_match_modalities_whatever_their_case(dataset_root):
    bundle = SignalAcquisition(["ECG", "EDA"], dataset_root).run(None, RunContext())
    as_loaded = PreprocessChain(())  # no steps, where the default EDA chain filters
    for out in (preprocess(bundle, {"eda": as_loaded}),
                SignalPreprocessor({"eda": as_loaded}).run(bundle, RunContext())):
        for subject in bundle.subjects():
            for phase in bundle.phases_for(subject):
                assert out.find(subject, phase, "EDA").values.tobytes() == \
                    bundle.find(subject, phase, "EDA").values.tobytes()
                assert out.find(subject, phase, "ECG").values.tobytes() != \
                    bundle.find(subject, phase, "ECG").values.tobytes()
    twice = {"eda": as_loaded, "EDA": as_loaded}
    with pytest.raises(ValueError, match="name a modality twice"):
        preprocess(bundle, twice)
    with pytest.raises(ValueError, match="name a modality twice"):
        SignalPreprocessor(twice)


def test_failing_preprocess_chain_reports_stage_1(dataset_root):
    stages = _stages(dataset_root)
    above_nyquist = PreprocessChain((
        PreprocessStep("lowpass", {"order": 2, "cutoffs_hz": (1e6,)}),))
    stages[1] = SignalPreprocessor({"EDA": above_nyquist})
    p = build_pipeline(PipelineSpec(tuple(stages)))
    with pytest.raises(StageExecutionError) as e:
        p.run()
    assert e.value.stage_index == 1
    assert e.value.kind == "Preprocessor"
    cause = e.value.__cause__
    assert isinstance(cause, PreprocessingFailed)
    assert {m for _, _, m, _ in cause.failures} == {"EDA"}


def test_a_chain_that_matches_no_series_is_rejected(dataset_root):
    bundle = SignalAcquisition(["ECG", "EDA"], dataset_root).run(None, RunContext())
    above_nyquist = PreprocessChain((
        PreprocessStep("lowpass", {"order": 2, "cutoffs_hz": (1e6,)}),))
    with pytest.raises(ValueError, match=re.escape(
            "chains for ['EKG'] match no series; the bundle has ECG, EDA")):
        preprocess(bundle, {"EKG": above_nyquist})
    stages = _stages(dataset_root)
    stages[1] = SignalPreprocessor({"EKG": above_nyquist})
    with pytest.raises(StageExecutionError) as e:
        build_pipeline(PipelineSpec(tuple(stages))).run()
    assert e.value.stage_index == 1
    assert "['EKG']" in str(e.value.__cause__)


def test_misspelled_feature_name_fails_at_feature_extractor(dataset_root):
    # building the stage checks the names, before any stage runs
    with pytest.raises(CatalogError) as e:
        FeatureExtractor(
            [FeatureCatalogEntry("hrv", "ECG", "hrv_time",
                                 features=("hr_mean_bpm", "rmsdd_s"))],
            WindowingPolicy(60.0, 30.0))
    assert isinstance(e.value, ValueError)
    assert "'hrv'" in str(e.value) and "rmsdd_s" in str(e.value)


def test_build_rejects_a_catalog_entry_on_a_modality_not_acquired(dataset_root):
    # the default catalog reads EDA, which an ECG-only Acquisition never
    # loads: the build fails, before the (missing) dataset folder is read
    stages = _stages(dataset_root)
    stages[0] = SignalAcquisition(["ECG"], dataset_root / "missing")
    with pytest.raises(CatalogError, match=re.escape(
            "catalog entry 'eda_stats' reads modality 'EDA', which the Acquisition's "
            "signal_types ['ECG'] do not name")):
        build_pipeline(PipelineSpec(tuple(stages)))
    # signal types and entries match in any case
    stages[0] = SignalAcquisition(["ecg", "Eda"], dataset_root)
    stages[2] = FeatureExtractor([FeatureCatalogEntry("ecg", "ecg", "ecg_stats",
                                                      features=("mean",))],
                                 WindowingPolicy(60.0, 30.0))
    build_pipeline(PipelineSpec(tuple(stages)))


def test_failed_run_keeps_its_record(dataset_root):
    stages = _stages(dataset_root)
    stages[3] = LabelGenerator(LabelRule("phase-map",
                                         {"phase_to_class": {"rest": 0}}))
    p = build_pipeline(PipelineSpec(tuple(stages)))
    with pytest.raises(StageExecutionError) as e:
        p.run()
    assert e.value.stage_index == 3
    assert isinstance(e.value.__cause__, UnmappedPhase)
    assert p.last_reports["excluded_subjects"] == []
    assert "dropped_rows" not in p.last_reports


def test_incomplete_rows_dropped_with_labels_aligned(dataset_root):
    def mean_except_s1(window, params):
        if window.subject_id == "S1":
            raise TooFewSamples("window rejected for the test")
        return {"mean": float(np.mean(window.values))}

    stages = _stages(dataset_root)
    stages[2] = FeatureExtractor(
        [FeatureCatalogEntry("eda", "EDA", mean_except_s1, features=("mean",)),
         FeatureCatalogEntry("ecg", "ECG", "ecg_stats", features=("std",))],
        WindowingPolicy(60.0, 30.0), calculate_average=False)
    stages[-1] = Classification(Classification.MODE_TRAIN, [KNN3])
    p = build_pipeline(PipelineSpec(tuple(stages)))
    out = p.run()
    # 120 s series, 60/30 s windows: 3 windows per (subject, phase)
    assert p.last_reports["dropped_rows"] == [
        ("S1", phase, k) for phase in ("rest", "stress") for k in range(3)]
    np.testing.assert_array_equal(out.y_true.to_array(), ([0] * 3 + [1] * 3) * 3)
    assert len(out.y_pred["knn3"]) == 18


def test_absent_text_tag_row_is_dropped(dataset_root):
    def posture(window, params):
        if (window.subject_id, window.phase, round(window.timestamps[0])) == \
                ("S2", "stress", 30):
            raise TooFewSamples("window rejected for the test")
        return {"posture": "sitting" if window.phase == "rest" else "standing"}

    stages = _stages(dataset_root)
    stages[2] = FeatureExtractor(
        [FeatureCatalogEntry("eda", "EDA", posture, features=("posture",)),
         FeatureCatalogEntry("ecg", "ECG", "ecg_stats", features=("std",))],
        WindowingPolicy(60.0, 30.0), calculate_average=False)
    stages[-1] = Classification(Classification.MODE_TRAIN, [KNN3])
    ctx = RunContext()
    matrix = stages[2].run(stages[1].run(stages[0].run(None, ctx), ctx), ctx)
    assert matrix.columns == ("ecg.std", "eda.posture=sitting", "eda.posture=standing")
    absent = np.isnan(matrix.values)
    # 4 subjects x 2 phases x 3 windows; only the failed window's tags are absent
    assert np.flatnonzero(absent.any(axis=1)).tolist() == [10]
    assert (matrix.subject_ids[10], matrix.phases[10], matrix.window_indices[10]) == \
        ("S2", "stress", 1)
    assert absent[10].tolist() == [False, True, True]
    p = build_pipeline(PipelineSpec(tuple(stages)))
    out = p.run()
    assert p.last_reports["dropped_rows"] == [("S2", "stress", 1)]
    assert len(out.y_pred["knn3"]) == 23


class _InMemoryAcquisition(Component):
    """An Acquisition stage handing over a bundle built in memory."""

    kind = "Acquisition"
    input_type = NONE
    output_type = BUNDLE

    def __init__(self, bundle):
        self.bundle = bundle

    def run(self, payload, ctx):
        return self.bundle


@pytest.fixture(scope="module")
def flat_ecg_bundle():
    return _bundle_with_flat_ecg()


#: S3's flat rest ECG fails R-peak detection in all five 60/30 s windows
FLAT_ECG_ROWS = [("S3", "rest", k) for k in range(5)]


def _flat_ecg_pipeline(bundle, selector=None, classification=None):
    stages = [_InMemoryAcquisition(bundle), SignalPreprocessor(),
              FeatureExtractor(ecg_eda_catalog(), WindowingPolicy(60.0, 30.0)),
              LabelGenerator(LabelRule("phase-map",
                                       {"phase_to_class": {"rest": 0, "stress": 1}}))]
    stages += [selector] if selector else []
    stages.append(classification or Classification(
        Classification.MODE_CROSS_VALIDATE, [KNN3, TREE], cv=CVStrategy("kfold", 4)))
    return build_pipeline(PipelineSpec(tuple(stages)))


def test_selector_and_classifiers_see_the_same_complete_rows(flat_ecg_bundle):
    for selector in (None, FeatureSelector(k=4, scorer=KNN3, cv_folds=3)):
        p = _flat_ecg_pipeline(flat_ecg_bundle, selector)
        out = p.run()
        assert p.last_reports["dropped_rows"] == FLAT_ECG_ROWS
        # S1 and S2: 2 phases x 5 windows each
        assert len(out.y_true) == 20
    assert len(p.last_reports["selected_features"]) == 4


@pytest.mark.parametrize("selector, classification, failing, cause", [
    (FeatureSelector(k=99, scorer=KNN3), None, "FeatureSelector", KTooLarge),
    (FeatureSelector(k=4, scorer=KNN3, cv_folds=3),
     Classification(Classification.MODE_CROSS_VALIDATE, [KNN3], cv=CVStrategy("kfold", 21)),
     "Classification", TooFewRows),  # 21 folds of the 20 complete rows
], ids=["selector", "classification"])
def test_failed_later_stage_keeps_dropped_rows(flat_ecg_bundle, selector,
                                               classification, failing, cause):
    p = _flat_ecg_pipeline(flat_ecg_bundle, selector, classification)
    with pytest.raises(StageExecutionError) as e:
        p.run()
    assert e.value.kind == failing
    assert isinstance(e.value.__cause__, cause)
    assert p.last_reports["dropped_rows"] == FLAT_ECG_ROWS


NAN = float("nan")


@pytest.mark.parametrize("values, report_phases, message", [
    ([[NAN, NAN, 1.0], [NAN, 2.0, 1.0], [1.0, NAN, 1.0]], ("rest", "stress"),
     "3 of 3 rows dropped: hrv_time, hrv_freq absent"),
    ([[1.0, 2.0, 3.0]] * 3, ("baseline",), "3 of 3 rows dropped: 3 without SUDS self-reports"),
    ([[1.0, 2.0, NAN], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], ("rest",),
     "3 of 3 rows dropped: eda absent; 2 without SUDS self-reports"),
], ids=["incomplete", "unlabeled", "both"])
def test_label_generator_dropping_every_row_names_the_cause(tmp_path, values, report_phases,
                                                             message):
    reports = tmp_path / "S1_reports.csv"
    reports.write_text("phase,questionnaire,score\n" + "".join(
        f"{phase},SUDS,80\n" for phase in report_phases), encoding="utf-8")
    matrix = FeatureMatrix(("hrv_time.rmssd_s", "hrv_freq.lf_power", "eda.mean"),
                           ["S1"] * 3, ["rest", "stress", "stress"], [0, 0, 1], values)
    ctx = RunContext(self_report_files={"S1": reports})
    with pytest.raises(AllRowsDropped, match=f"^{re.escape(message)}$"):
        LabelGenerator(LabelRule("fixed-threshold")).run(matrix, ctx)
    # the record of the drop is kept for the failed run's files
    incomplete = [key for key, row in zip(matrix._keys(slice(None)), values)
                  if np.isnan(row).any()]
    assert ctx.reports["dropped_rows"] == incomplete


@pytest.mark.parametrize("kind, s2_reports", [
    ("fixed-threshold", "rest,SUDS,abc\n"), ("dynamic-threshold", "rest,STAI,40\n"),
], ids=["malformed-report", "one-stai-report"])
def test_label_generator_reads_the_self_reports_of_the_acquired_subjects_alone(
        tmp_path, kind, s2_reports):
    # S2 has no stress EDA file, so the Acquisition excludes it; its
    # self-report file would fail either rule
    for subject, phase, modality in itertools.product(("S1", "S2"), ("rest", "stress"),
                                                      ("ECG", "EDA")):
        if (subject, phase, modality) != ("S2", "stress", "EDA"):
            path = tmp_path / subject / f"{subject}_{phase}_{modality}.csv"
            path.parent.mkdir(exist_ok=True)
            path.write_text(f"timestamp,{modality}\n0.0,1\n0.004,2\n", encoding="utf-8")
    header = "phase,questionnaire,score\n"
    s1_reports = tmp_path / "S1" / "S1_reports.csv"
    s1_reports.write_text(header + "rest,SUDS,20\nstress,SUDS,80\nrest,STAI,30\nstress,STAI,60\n",
                          encoding="utf-8")
    (tmp_path / "S2" / "S2_reports.csv").write_text(header + s2_reports, encoding="utf-8")
    ctx = RunContext()
    SignalAcquisition(["ECG", "EDA"], tmp_path).run(None, ctx)
    matrix = FeatureMatrix(("ecg.mean",), ["S1", "S1"], ["rest", "stress"], [0, 0],
                           [[1.0], [2.0]])
    _, labels = LabelGenerator(LabelRule(kind)).run(matrix, ctx)
    assert labels.labels.tolist() == [0, 1]
    assert ctx.reports["excluded_subjects"] == ["S2"]
    assert ctx.self_report_files == {"S1": s1_reports}


@pytest.mark.parametrize("mode", [7, -1, 2.0, True, None, "2"])
def test_classification_rejects_an_unknown_mode_when_built(mode):
    with pytest.raises(ValueError) as e:
        Classification(mode, [KNN3])
    for name in ("mode", "MODE_TRAIN", "MODE_TEST", "MODE_CROSS_VALIDATE", repr(mode)):
        assert name in str(e.value)


@pytest.mark.parametrize("kwargs, key", [
    ({"k": 0}, "k"), ({"k": -1}, "k"), ({"k": 2.0}, "k"), ({"k": True}, "k"),
    ({"k": "5"}, "k"), ({"cv_folds": 1}, "cv_folds"), ({"cv_folds": 3.0}, "cv_folds"),
    ({"scorer": "KNN"}, "scorer"),
    ({"scorer": {"algorithm": "KNN"}}, "scorer"), ({"scorer": None}, "scorer"),
])
def test_feature_selector_checks_its_arguments_when_built(kwargs, key):
    args = {"k": 4, "scorer": KNN3, "cv_folds": 3, **kwargs}
    with pytest.raises(ValueError) as e:
        FeatureSelector(**args)
    owner = "" if key == "scorer" else "FeatureSelector."
    assert str(e.value).startswith(f"{owner}{key} must be ")


def test_feature_selector_takes_its_defaults_from_the_keys_table():
    # the YAML selector section reads the same table, so a null cv_folds
    # takes the default there and here alike
    for cv_folds in (SELECTOR_KEYS["cv_folds"][1], None):
        assert FeatureSelector(4, KNN3, cv_folds).cv_folds == SELECTOR_KEYS["cv_folds"][1]
    with pytest.raises(ValueError, match="missing 'FeatureSelector.k'"):
        FeatureSelector(None, KNN3)


def test_selector_folds_and_cv_folds_share_one_rule():
    assert SELECTOR_KEYS["cv_folds"] is CV_KEYS["folds"]


def test_classification_alone_rejects_absent_cells():
    matrix, labels = _scaled_payload()
    values = matrix.to_array()
    values[5, 1] = np.nan
    holed = FeatureMatrix(matrix.columns, matrix.subject_ids, matrix.phases,
                          matrix.window_indices, values)
    with pytest.raises(NonNumericFeature):
        Classification(Classification.MODE_TRAIN, [KNN3]).run((holed, labels),
                                                               RunContext())


def test_feature_extractor_defaults_to_per_window_rows(dataset_root):
    ctx = RunContext()
    stages = _stages(dataset_root)
    bundle = stages[1].run(stages[0].run(None, ctx), ctx)
    matrix = FeatureExtractor(ecg_eda_catalog(), WindowingPolicy(60.0, 30.0)).run(
        bundle, ctx)
    # 4 subjects x 2 phases x 3 windows, not one averaged row per phase
    assert len(matrix) == 24
    assert sorted(set(matrix.window_indices.tolist())) == [0, 1, 2]


@pytest.mark.parametrize("seed", [0, 7])
def test_cross_validation_folds_follow_the_run_seed(seed):
    matrix, labels = _scaled_payload()
    cv = CVStrategy("kfold", 4)
    out = Classification(Classification.MODE_CROSS_VALIDATE, [KNN3], cv=cv).run(
        (matrix, labels), RunContext(seed=seed))
    folds = make_folds(cv, matrix, seed)
    records = out.report.per_model["knn3"]
    assert len(records) == len(folds)
    for record, (train, test) in zip(records, folds):
        np.testing.assert_array_equal(record.train, train)
        np.testing.assert_array_equal(record.test, test)
    # y_true is the input labels; y_pred and scores follow its rows
    assert out.y_true is labels
    for record in records:
        np.testing.assert_array_equal(out.y_pred["knn3"][record.test], record.y_pred)
        np.testing.assert_array_equal(out.scores["knn3"][record.test], record.scores)
    expected = cross_validate([KNN3], matrix, labels, cv, seed)
    assert out.report.to_records() == expected.to_records()


def test_determinism_bit_identical(dataset_root):
    runs = []
    for _ in range(2):
        p = build_pipeline(PipelineSpec(tuple(_stages(dataset_root)),
                                        seed=7))
        runs.append(p.run())
    assert runs[0].report.to_records() == runs[1].report.to_records()
    for name in runs[0].y_pred:
        np.testing.assert_array_equal(runs[0].y_pred[name], runs[1].y_pred[name])


def _checkpointed(stage, checkpoints):
    """Wrap ``stage.run`` to pickle each payload it returns."""
    run = stage.run

    def run_and_keep(payload, ctx):
        out = run(payload, ctx)
        checkpoints[stage.kind] = pickle.dumps(out)
        return out

    stage.run = run_and_keep
    return stage


def test_stage_isolation_via_checkpoints(dataset_root):
    """Swapping the classifier must not change any upstream payload."""
    payloads = []
    for models in ([KNN3], [TREE]):
        checkpoints = {}
        stages = [_checkpointed(s, checkpoints) for s in _stages(dataset_root)[:-1]]
        stages.append(Classification(2, models, cv=CVStrategy("kfold", 4)))
        build_pipeline(PipelineSpec(tuple(stages))).run()
        payloads.append(checkpoints)
    assert list(payloads[0]) == ["Acquisition", "Preprocessor",
                                 "FeatureExtractor", "LabelGenerator"]
    assert payloads[0] == payloads[1]


def test_threshold_labels_read_reports_from_scan(dataset_root):
    stages = _stages(dataset_root)
    stages[3] = LabelGenerator(LabelRule("fixed-threshold"))
    p = build_pipeline(PipelineSpec(tuple(stages)))
    out = p.run()
    # synthetic SUDS scores: rest ~25 -> 0, stress ~75 -> 1
    assert set(out.y_true.labels) == {0, 1}
    assert p.last_reports["rows_without_labels"] == []


def test_custom_label_rule_runs_in_the_label_generator(dataset_root):
    stages = _stages(dataset_root)
    stages[3] = LabelGenerator(LabelRule("custom", {
        "fn": lambda m: (m.phases == "stress").astype(int)}))
    out = build_pipeline(PipelineSpec(tuple(stages))).run()
    assert set(out.y_true.labels) == {0, 1}


def test_run_record_is_plain_data(dataset_root):
    stages = _stages(dataset_root)
    stages[3] = LabelGenerator(LabelRule("fixed-threshold"))
    p = build_pipeline(PipelineSpec(tuple(stages)))
    p.run()
    record = json.loads(json.dumps(p.last_reports))
    assert set(record) == {"excluded_subjects", "skipped_files",
                           "rows_without_labels", "dropped_rows"}
    assert record["rows_without_labels"] == []


def test_selector_reports_chosen_features(dataset_root):
    p = build_pipeline(PipelineSpec(tuple(_stages(dataset_root,
                                                  with_selector=True))))
    p.run()
    chosen = p.last_reports["selected_features"]
    assert len(chosen) == 4
    assert len(set(chosen)) == 4


def test_training_mode_returns_fitted_models(dataset_root):
    p = build_pipeline(PipelineSpec(tuple(_stages(dataset_root, mode=0))))
    out = p.run()
    assert out.report is None
    assert set(out.fitted_models) == {"knn3", "tree"}
    for name in out.y_pred:
        assert len(out.y_pred[name]) == len(out.y_true.labels)


LDA = ClassifierSpec("lda", "LDA")
LOGIT = ClassifierSpec("logit", "LogisticRegression")
ENSEMBLE = ClassifierSpec("ens", "AveragingEnsemble", {"members": [KNN3, LDA]})


def _scaled_payload():
    """60 rows of 4 subjects, columns on very different scales and offsets."""
    rng = np.random.default_rng(21)
    y = np.tile([0, 1, 2], 20)
    X = (rng.normal(0.0, 1.0, (60, 3)) + 0.8 * y[:, None]) \
        * [1.0, 40.0, 0.02] + [0.0, -300.0, 7.0]
    subjects = [f"S{i % 4}" for i in range(60)]
    matrix = FeatureMatrix(("a", "b", "c"), subjects, ["p"] * 60, range(60), X)
    return matrix, LabelVector(y, {0: "x", 1: "y", 2: "z"})


def test_cv_models_reproduce_fold_predictions_through_test_mode():
    matrix, labels = _scaled_payload()
    specs = [KNN3, TREE, LDA, LOGIT, ENSEMBLE]
    cv = CVStrategy("loso")
    report = cross_validate(specs, matrix, labels, cv)
    for spec in specs:
        for r in report.per_model[spec.name]:
            stage = Classification(Classification.MODE_TEST, [],
                                   pretrained={spec.name: r.model})
            out = stage.run((matrix.subset_rows(r.test),
                             LabelVector(labels.labels[r.test], labels.class_names)),
                            RunContext())
            np.testing.assert_array_equal(out.y_pred[spec.name], r.y_pred)


def test_train_mode_models_reproduce_through_test_mode():
    matrix, labels = _scaled_payload()
    trained = Classification(Classification.MODE_TRAIN,
                             [KNN3, TREE, LDA, LOGIT, ENSEMBLE]).run(
        (matrix, labels), RunContext())
    tested = Classification(Classification.MODE_TEST, [],
                            pretrained=trained.fitted_models).run(
        (matrix, labels), RunContext())
    assert list(tested.y_pred) == ["knn3", "tree", "lda", "logit", "ens"]
    for name, model in trained.fitted_models.items():
        # each column's mean reduced alone, as a contiguous vector
        np.testing.assert_array_equal(
            model.mu, [np.ascontiguousarray(c).mean() for c in matrix.values.T])
        np.testing.assert_array_equal(tested.y_pred[name], trained.y_pred[name])
        np.testing.assert_array_equal(tested.scores[name], trained.scores[name])


def test_test_mode_rejects_reordered_columns():
    matrix, labels = _scaled_payload()
    trained = Classification(Classification.MODE_TRAIN, [KNN3]).run(
        (matrix, labels), RunContext())
    assert trained.fitted_models["knn3"].columns == ("a", "b", "c")
    reversed_matrix = matrix.subset_columns(("c", "b", "a"))
    tested = Classification(Classification.MODE_TEST, [],
                            pretrained=trained.fitted_models)
    with pytest.raises(SchemaMismatch, match="columns"):
        tested.run((reversed_matrix, labels), RunContext())


class _Majority:
    def fit(self, X, y):
        values, counts = np.unique(y, return_counts=True)
        self.label = int(values[np.argmax(counts)])

    def predict(self, X):
        return np.full(X.shape[0], self.label)


def test_models_given_as_a_dict_report_under_their_keys():
    matrix, labels = _scaled_payload()
    handle = _Majority()
    cv = CVStrategy("kfold", 4)
    stage = Classification(Classification.MODE_CROSS_VALIDATE,
                           {"near": KNN3, "majority": handle}, cv=cv)
    assert stage.models == [ClassifierSpec("near", "KNN", {"k_neighbors": 3}),
                            ClassifierSpec("majority", "custom", {"handle": handle})]
    out = stage.run((matrix, labels), RunContext())
    assert set(out.report.per_model) == set(out.y_pred) == {"near", "majority"}
    # the key renames the spec and nothing else
    knn3 = Classification(Classification.MODE_CROSS_VALIDATE, [KNN3], cv=cv).run(
        (matrix, labels), RunContext())
    assert [r.metrics for r in out.report.per_model["near"]] == \
        [r.metrics for r in knn3.report.per_model["knn3"]]
    np.testing.assert_array_equal(out.y_pred["near"], knn3.y_pred["knn3"])
    trained = Classification(Classification.MODE_TRAIN, {"majority": handle}).run(
        (matrix, labels), RunContext())
    assert list(trained.fitted_models) == ["majority"]
    assert trained.fitted_models["majority"].spec.algorithm == "custom"


def test_repeated_classifier_names_are_rejected():
    with pytest.raises(ValueError, match="repeat"):
        Classification(Classification.MODE_CROSS_VALIDATE,
                       [KNN3, ClassifierSpec("knn3", "KNN", {"k_neighbors": 9})])
