"""Respiration, EMG and skin temperature through the whole pipeline.

Synthesizes a 4-subject rest / stress set with RESP, EMG and TEMP only,
then runs acquisition, the per-modality default preprocessing, windowed
``resp``, ``emg`` and ``statistics`` features, phase-map labels and
leave-one-subject-out cross-validation over three classifiers, and prints
the per-model metrics.  It also shows that the series of one recording
share their clock: one acquire call holds each timestamp grid once.

Run with:  python3 demos/05_more_modalities.py
"""

import tempfile
from pathlib import Path

from affectpipe import (
    Classification,
    ClassifierSpec,
    CVStrategy,
    DatasetSpec,
    FeatureCatalogEntry,
    FeatureExtractor,
    LabelGenerator,
    LabelRule,
    PipelineSpec,
    SignalAcquisition,
    SignalPreprocessor,
    WindowingPolicy,
    acquire,
    build_pipeline,
    scan_dataset,
    synth_dataset,
)

MODALITIES = ("RESP", "EMG", "TEMP")


def main():
    # the dataset lives only as long as the demo
    with tempfile.TemporaryDirectory(prefix="affectpipe-demo-") as tmp:
        root = Path(tmp)
        spec = DatasetSpec(n_subjects=4, phases=("rest", "stress"),
                           modalities=MODALITIES, duration_s=90.0, seed=5)
        synth_dataset(spec, root)
        print(f"dataset: {spec.n_subjects} subjects x {len(spec.phases)} phases "
              f"x {', '.join(MODALITIES)} under {root}")

        # RESP at 32 Hz, EMG at 700 Hz and TEMP at 4 Hz, all 90 s long
        series = [s for files in acquire(scan_dataset(root), MODALITIES).bundle.entries.values()
                  for s in files]
        grids = {id(s.timestamps) for s in series}
        print(f"{len(series)} series on {len(grids)} timestamp grids")

        catalog = [
            FeatureCatalogEntry("resp", "RESP", "resp",
                                features=("breath_rate_per_min", "inhale_exhale_ratio")),
            FeatureCatalogEntry("emg", "EMG", "emg",
                                features=("a_std", "a_band_0_energy", "b_peak_count")),
            FeatureCatalogEntry("temp", "TEMP", "statistics",
                                features=("mean", "slope")),
        ]
        stages = (
            SignalAcquisition(signal_types=list(MODALITIES), source_folder=root),
            SignalPreprocessor(),  # RESP bandpass, EMG highpass, TEMP as is
            FeatureExtractor(catalog, WindowingPolicy(window_s=60.0, step_s=30.0),
                             calculate_average=False),
            LabelGenerator(LabelRule("phase-map", {
                "phase_to_class": {"rest": 0, "stress": 1},
            })),
            Classification(Classification.MODE_CROSS_VALIDATE,
                           [ClassifierSpec("knn3", "KNN", {"k_neighbors": 3}),
                            ClassifierSpec("dt", "DecisionTree"),
                            ClassifierSpec("logreg", "LogisticRegression")],
                           cv=CVStrategy("loso")),
        )
        pipeline = build_pipeline(PipelineSpec(stages=stages, seed=0))
        report = pipeline.run().report

        print(f"\nleave-one-subject-out, {len(report.per_model['knn3'])} folds:")
        for model in sorted(report.per_model):
            agg = report.aggregate(model)
            line = "  ".join(f"{m}={mean:.3f}±{std:.3f}"
                             for m, (mean, std) in sorted(agg.items()))
            print(f"  {model:8s} {line}")


if __name__ == "__main__":
    main()
