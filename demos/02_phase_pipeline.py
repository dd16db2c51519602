"""End-to-end 3-class pipeline assembled from the Python API.

Synthesizes a 6-subject dataset with rest / amusement / stress phases,
then builds the six-stage pipeline by hand — acquisition, preprocessing,
windowed feature extraction, phase-map labels, and leave-one-subject-out
cross-validation over two classifiers — and prints the per-model metrics.

Run with:  python3 demos/02_phase_pipeline.py
"""

import tempfile
from pathlib import Path

from affectpipe import (
    Classification,
    ClassifierSpec,
    CVStrategy,
    DatasetSpec,
    FeatureExtractor,
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
        spec = DatasetSpec(n_subjects=6,
                           phases=("rest", "amusement", "stress"),
                           modalities=("ECG", "EDA"),
                           duration_s=180.0,
                           seed=3)
        synth_dataset(spec, root)
        print(f"dataset: {spec.n_subjects} subjects x {len(spec.phases)} phases "
              f"x {len(spec.modalities)} modalities under {root}")

        stages = (
            SignalAcquisition(signal_types=["ECG", "EDA"], source_folder=root),
            SignalPreprocessor(),  # per-modality default denoising chains
            FeatureExtractor(ecg_eda_catalog(),
                             WindowingPolicy(window_s=60.0, step_s=30.0),
                             calculate_average=False),
            LabelGenerator(LabelRule("phase-map", {
                "phase_to_class": {"rest": 0, "amusement": 1, "stress": 2},
            })),
            Classification(Classification.MODE_CROSS_VALIDATE,
                           [ClassifierSpec("knn9", "KNN", {"k_neighbors": 9}),
                            ClassifierSpec("dt", "DecisionTree",
                                           {"criterion": "entropy"})],
                           cv=CVStrategy("loso")),
        )
        pipeline = build_pipeline(PipelineSpec(stages=stages, seed=0))
        output = pipeline.run()

        # one FoldResult per (model, fold); the aggregates are read from them
        report = output.report
        print(f"\nleave-one-subject-out, {len(report.per_model['knn9'])} folds:")
        for model in sorted(report.per_model):
            agg = report.aggregate(model)
            line = "  ".join(f"{m}={mean:.3f}±{std:.3f}"
                             for m, (mean, std) in sorted(agg.items()))
            print(f"  {model:8s} {line}")
        print("knn9 accuracy per held-out subject: " + " ".join(
            f"{r.metrics['accuracy']:.2f}" for r in report.per_model["knn9"]))
        # y_pred follows the rows of y_true: each row's label comes from the
        # fold that held it out
        hits = int((output.y_pred["knn9"] == output.y_true.labels).sum())
        print(f"knn9 pooled over all {len(output.y_true)} windows: {hits} correct")


if __name__ == "__main__":
    main()
