import itertools

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
    build_pipeline,
    ecg_eda_catalog,
    synth_dataset,
)
from affectpipe.engine import BUNDLE, FEATURES, LABELED, NONE, OUTPUT
from affectpipe.errors import (
    EmptyDataset,
    IncompatibleStages,
    MisorderedStage,
    MissingStage,
    PreprocessingFailed,
    StageExecutionError,
)

KNN3 = ClassifierSpec("knn3", "KNN", {"k_neighbors": 3})
TREE = ClassifierSpec("tree", "DecisionTree")


@pytest.fixture(scope="module")
def dataset_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    synth_dataset(DatasetSpec(n_subjects=4, duration_s=120.0, seed=0), root)
    return root


def _stages(root, with_selector=False, mode=2, strict=False, seed=0):
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
                                 cv=CVStrategy("kfold", 4, shuffle_seed=seed)))
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
    with pytest.raises(MisorderedStage):
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
    with pytest.raises(MisorderedStage):
        build_pipeline(PipelineSpec(tuple(s)))


def test_type_safety_exhaustive(dataset_root):
    """Any accepted ordering of <= 6 stages has a consistent payload chain."""
    pool = _stages(dataset_root, with_selector=True)
    accepted = 0
    for r in range(1, 7):
        for combo in itertools.permutations(pool, r):
            try:
                build_pipeline(PipelineSpec(tuple(combo)))
            except (MissingStage, MisorderedStage, IncompatibleStages):
                continue
            accepted += 1
            assert combo[0].input_type == NONE
            assert combo[-1].output_type == OUTPUT
            for a, b in zip(combo, combo[1:]):
                assert a.output_type == b.input_type
    assert accepted >= 2  # at least the two canonical layouts


# --- run-time behaviour ---

def test_end_to_end_cross_validation(dataset_root):
    p = build_pipeline(PipelineSpec(tuple(_stages(dataset_root))))
    out = p.run()
    assert set(out.fitted_models) == {"knn3", "tree"}
    assert len(out.report.per_model["knn3"]["folds"]) == 4
    for entry in out.report.per_model.values():
        for fold in entry["folds"]:
            assert {"accuracy", "f1_micro", "f1_macro"} <= set(fold)
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


def test_determinism_bit_identical(dataset_root):
    runs = []
    for _ in range(2):
        p = build_pipeline(PipelineSpec(tuple(_stages(dataset_root, seed=7)),
                                        seed=7))
        runs.append(p.run())
    assert runs[0].report.to_records() == runs[1].report.to_records()
    for name in runs[0].y_pred:
        np.testing.assert_array_equal(runs[0].y_pred[name], runs[1].y_pred[name])


def test_stage_isolation_via_checkpoints(dataset_root, tmp_path):
    """Swapping the classifier must not change any upstream payload."""
    payloads = []
    for i, models in enumerate([[KNN3], [TREE]]):
        stages = _stages(dataset_root)[:-1]
        stages.append(Classification(2, models, cv=CVStrategy("kfold", 4)))
        ckpt = tmp_path / f"run{i}"
        p = build_pipeline(PipelineSpec(tuple(stages), checkpoint_dir=ckpt))
        p.run()
        payloads.append({f.name: f.read_bytes() for f in sorted(ckpt.iterdir())
                         if "Classification" not in f.name})
    assert payloads[0].keys() == payloads[1].keys()
    for name in payloads[0]:
        assert payloads[0][name] == payloads[1][name], name


def test_checkpoints_written_per_stage(dataset_root, tmp_path):
    ckpt = tmp_path / "ck"
    p = build_pipeline(PipelineSpec(tuple(_stages(dataset_root)),
                                    checkpoint_dir=ckpt))
    p.run()
    names = sorted(f.name for f in ckpt.iterdir())
    assert names == [
        "stage_0_Acquisition.pkl", "stage_1_Preprocessor.pkl",
        "stage_2_FeatureExtractor.pkl", "stage_3_LabelGenerator.pkl",
        "stage_4_Classification.pkl"]


def test_threshold_labels_read_reports_from_scan(dataset_root):
    stages = _stages(dataset_root)
    stages[3] = LabelGenerator(LabelRule("fixed-threshold"))
    p = build_pipeline(PipelineSpec(tuple(stages)))
    out = p.run()
    # synthetic SUDS scores: rest ~25 -> 0, stress ~75 -> 1
    assert set(out.y_true.labels) == {0, 1}
    assert p.last_reports["rows_without_labels"] == []


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
