"""Questionnaire-driven labels plus sequential forward feature selection.

Labels come from each subject's self-reports instead of the protocol
phases: windows from phases whose SUDS score is at least 50 are class 1.
A FeatureSelector stage then greedily picks the 5 most discriminative
feature columns before a 5-fold cross-validation over three classifiers.

Run with:  python3 demos/03_questionnaire_selection.py
"""

import tempfile
from pathlib import Path

from affectpipe import (
    Classification,
    ClassifierSpec,
    CVStrategy,
    DatasetSpec,
    FeatureExtractor,
    FeatureSelector,
    LabelGenerator,
    LabelRule,
    PipelineSpec,
    SignalAcquisition,
    SignalPreprocessor,
    WindowingPolicy,
    build_pipeline,
    ecg_eda_catalog,
    synth_dataset,
)


def main():
    # the dataset lives only as long as the demo
    with tempfile.TemporaryDirectory(prefix="affectpipe-demo-") as tmp:
        root = Path(tmp)
        spec = DatasetSpec(n_subjects=8, phases=("rest", "stress"),
                           modalities=("ECG", "EDA"), duration_s=180.0, seed=0)
        synth_dataset(spec, root)
        print(f"dataset: {spec.n_subjects} subjects, phases {spec.phases}, "
              f"SUDS/STAI reports per subject, under {root}")

        stages = (
            SignalAcquisition(signal_types=["ECG", "EDA"], source_folder=root),
            SignalPreprocessor(),
            FeatureExtractor(ecg_eda_catalog(),
                             WindowingPolicy(window_s=60.0, step_s=30.0),
                             calculate_average=False),
            # fixed-threshold: SUDS >= 50 -> class 1, below -> class 0
            LabelGenerator(LabelRule("fixed-threshold")),
            FeatureSelector(k=5, scorer=ClassifierSpec("probe", "KNN",
                                                       {"k_neighbors": 1})),
            Classification(Classification.MODE_CROSS_VALIDATE,
                           [ClassifierSpec("knn9", "KNN", {"k_neighbors": 9}),
                            ClassifierSpec("dt", "DecisionTree",
                                           {"criterion": "entropy"}),
                            ClassifierSpec("lda", "LDA")],
                           cv=CVStrategy("kfold", folds=5)),
        )
        pipeline = build_pipeline(PipelineSpec(stages=stages, seed=0))
        output = pipeline.run()

        selected = pipeline.last_reports.get("selected_features", [])
        print(f"\nselected features ({len(selected)}): " + ", ".join(selected))

        report = output.report
        print("\n5-fold cross-validation:")
        for model in sorted(report.per_model):
            agg = report.aggregate(model)
            line = "  ".join(f"{m}={mean:.3f}±{std:.3f}"
                             for m, (mean, std) in sorted(agg.items()))
            print(f"  {model:8s} {line}")


if __name__ == "__main__":
    main()
