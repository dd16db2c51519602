import csv
from pathlib import Path

import pytest

from affectpipe.cli import cmd_run, cmd_synth, cmd_validate, main
from affectpipe.config import build_pipeline_spec, load_config
from affectpipe.preprocessing import PreprocessStep


SPEC_YAML = """\
n_subjects: 3
phases: [rest, stress]
modalities: [ECG, EDA]
duration_s: 120.0
seed: 5
"""


#: one weak feature, so the scores depend on which rows share a fold (with
#: the default catalog every fold of knn9 and dt scores 1.0 on this set)
WEAK_FEATURE = ("features:\n"
                "  - {name: ecg, modality: ECG, computation: ecg_stats, features: [slope]}")


def run_config(root, cv="kfold", folds="folds: 3", labels=None, window=60.0,
               features="features: default-ecg-eda"):
    labels = labels or 'kind: phase-map\n  phase_to_class: {rest: 0, stress: 1}'
    return f"""\
seed: 11
dataset:
  root: {root}
  signal_types: [ECG, EDA]
windowing:
  window_s: {window}
  step_s: 30.0
  calculate_average: false
{features}
labels:
  {labels}
cv:
  kind: {cv}
  {folds}
classifiers:
  - name: knn9
    algorithm: KNN
    hyperparameters: {{k_neighbors: 9}}
  - name: dt
    algorithm: DecisionTree
"""


@pytest.fixture(scope="module")
def dataset_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ds") / "data"
    spec = tmp_path_factory.mktemp("cli_spec") / "spec.yaml"
    spec.write_text(SPEC_YAML, encoding="utf-8")
    assert cmd_synth(str(spec), str(root)) == 0
    return root


# --- validate ---

def test_validate_conforming_dataset(dataset_root, capsys):
    assert cmd_validate(str(dataset_root)) == 0
    assert "0 violations" in capsys.readouterr().out


def test_validate_bad_header_exit_2(dataset_root, tmp_path, capsys):
    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(dataset_root, bad)
    victim = bad / "S1" / "S1_rest_ECG.csv"
    text = victim.read_text(encoding="utf-8")
    victim.write_text(text.replace("timestamp", "time", 1), encoding="utf-8")
    assert cmd_validate(str(bad)) == 2
    out = capsys.readouterr().out
    assert "S1_rest_ECG.csv" in out and "timestamp" in out


def test_validate_nonexistent_path_exit_1(tmp_path):
    assert cmd_validate(str(tmp_path / "missing")) == 1


# --- synth ---

def test_synth_writes_manifest(dataset_root):
    assert (dataset_root / "manifest.csv").exists()


def test_synth_output_validates(dataset_root):
    assert cmd_validate(str(dataset_root)) == 0


def test_synth_negative_duration_exit_2(tmp_path):
    spec = tmp_path / "bad.yaml"
    spec.write_text("duration_s: -5\n", encoding="utf-8")
    assert cmd_synth(str(spec), str(tmp_path / "out")) == 2


def test_synth_unknown_field_exit_2(tmp_path):
    spec = tmp_path / "bad.yaml"
    spec.write_text("not_a_field: 1\n", encoding="utf-8")
    assert cmd_synth(str(spec), str(tmp_path / "out")) == 2


@pytest.mark.parametrize("field", ["phases: [rest, boredom]",
                                   "modalities: [ECG, PPG]"])
def test_synth_unknown_phase_or_modality_exit_2(tmp_path, capsys, field):
    spec = tmp_path / "bad.yaml"
    spec.write_text(f"n_subjects: 2\n{field}\nduration_s: 30.0\n", encoding="utf-8")
    assert cmd_synth(str(spec), str(tmp_path / "out")) == 2
    assert "spec error" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, message", [
    ("duration_s: 20.0", "duration_s must be at least 25"),
    ("phases: 5", "phases must be"),
    ('n_subjects: "3"', "n_subjects must be an integer"),
    ("phases: [rest, rest]", "phases repeats"),
    ("modalities: [ECG, ECG]", "modalities repeats"),
], ids=["short-eda", "phases-int", "subjects-str", "repeated-phase",
        "repeated-modality"])
def test_synth_bad_spec_field_exit_2_before_writing(tmp_path, capsys, field, message):
    spec = tmp_path / "bad.yaml"
    spec.write_text(f"n_subjects: 1\nduration_s: 30.0\n{field}\n", encoding="utf-8")
    assert cmd_synth(str(spec), str(tmp_path / "out")) == 2
    out = capsys.readouterr().out
    assert "spec error" in out and message in out
    assert not (tmp_path / "out").exists()


def test_synth_file_in_place_of_subject_dir_exit_1(tmp_path, capsys):
    spec = tmp_path / "spec.yaml"
    spec.write_text(SPEC_YAML, encoding="utf-8")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "S1").write_text("", encoding="utf-8")
    assert cmd_synth(str(spec), str(tmp_path / "out")) == 1
    assert "I/O failure" in capsys.readouterr().out


def test_synth_dir_in_place_of_signal_file_exit_1(tmp_path, capsys):
    spec = tmp_path / "spec.yaml"
    spec.write_text(SPEC_YAML, encoding="utf-8")
    (tmp_path / "out" / "S1" / "S1_rest_ECG.csv").mkdir(parents=True)
    assert cmd_synth(str(spec), str(tmp_path / "out")) == 1
    assert "I/O failure" in capsys.readouterr().out


def test_synth_deterministic_trees(tmp_path):
    spec = tmp_path / "spec.yaml"
    spec.write_text(SPEC_YAML, encoding="utf-8")
    for d in ("a", "b"):
        assert cmd_synth(str(spec), str(tmp_path / d), seed=3) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    rels = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
    assert rels == sorted(p.relative_to(b) for p in b.rglob("*.csv"))
    for rel in rels:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


# --- run ---

def test_run_end_to_end(dataset_root, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(run_config(dataset_root), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert cmd_run(str(cfg), out_dir=str(out_dir)) == 0
    with (out_dir / "report.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0].keys() == {"model", "fold", "metric", "value"}
    models = {r["model"] for r in rows}
    assert models == {"knn9", "dt"}
    assert any(r["metric"] == "accuracy" and r["fold"] == "0" for r in rows)
    assert (out_dir / "report.txt").exists()
    assert (out_dir / "dropped_rows.csv").exists()
    assert (out_dir / "excluded_subjects.csv").exists()
    with (out_dir / "selected_features.csv").open(newline="") as fh:
        assert list(csv.reader(fh)) == [["column"]]  # no selector ran


def test_run_selector_with_a_failed_window_exit_0(dataset_root, tmp_path, capsys):
    import shutil
    data = tmp_path / "data"
    shutil.copytree(dataset_root, data)
    # a flat ECG fails R-peak detection in every window of S1's rest phase
    victim = data / "S1" / "S1_rest_ECG.csv"
    lines = victim.read_text(encoding="utf-8").splitlines()
    victim.write_text("\n".join([lines[0]] + [line.split(",")[0] + ",0"
                                             for line in lines[1:]]) + "\n",
                      encoding="utf-8")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(run_config(data) + "selector: {k: 5}\n", encoding="utf-8")
    assert cmd_run(str(cfg), out_dir=str(tmp_path / "out")) == 0, capsys.readouterr().out
    with (tmp_path / "out" / "dropped_rows.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    # 120 s series, 60/30 s windows: 3 windows
    assert rows == [["subject", "phase", "window_index"]] + [
        ["S1", "rest", str(k)] for k in range(3)]


def test_run_failing_at_classification_writes_the_records_it_reached(tmp_path, capsys):
    # the shipped questionnaire run on the shipped binary set with every ECG
    # value zeroed: each window fails R-peak detection, the LabelGenerator
    # drops all 80 rows, and 5-fold cross-validation has no rows to split
    repo = Path(__file__).resolve().parents[1]
    data = tmp_path / "data"
    assert cmd_synth(str(repo / "configs" / "synth-binary.yaml"), str(data)) == 0
    for victim in data.glob("*/*_ECG.csv"):
        lines = victim.read_text(encoding="utf-8").splitlines()
        victim.write_text("\n".join([lines[0]] + [line.split(",")[0] + ",0"
                                                 for line in lines[1:]]) + "\n",
                          encoding="utf-8")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text((repo / "configs" / "questionnaire-kfold.yaml").read_text(
        encoding="utf-8").replace("root: data/binary", f"root: {data}"), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert cmd_run(str(cfg), out_dir=str(out_dir)) == 4
    assert "cannot make 5 folds from 0 rows" in capsys.readouterr().out
    # no selector ran, and a failed run writes no report
    assert sorted(p.name for p in out_dir.iterdir()) == ["dropped_rows.csv",
                                                        "excluded_subjects.csv"]
    with (out_dir / "dropped_rows.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["subject", "phase", "window_index"] and len(rows) == 81
    with (out_dir / "excluded_subjects.csv").open(newline="") as fh:
        assert list(csv.reader(fh)) == [["subject"]]


def test_run_failing_at_feature_selection_writes_no_selected_features(dataset_root,
                                                                      tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(run_config(dataset_root) + "selector: {k: 99}\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert cmd_run(str(cfg), out_dir=str(out_dir)) == 4
    assert sorted(p.name for p in out_dir.iterdir()) == ["dropped_rows.csv",
                                                        "excluded_subjects.csv"]


def test_run_failing_with_unwritable_records_still_exits_4(dataset_root, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(run_config(dataset_root) + "selector: {k: 99}\n", encoding="utf-8")
    blocker = tmp_path / "out"
    blocker.write_text("", encoding="utf-8")  # a file where the directory should go
    assert cmd_run(str(cfg), out_dir=str(blocker)) == 4
    out = capsys.readouterr().out
    assert "pipeline runtime error" in out and "I/O failure" in out


def test_run_writes_the_selected_columns_in_selection_order(dataset_root, tmp_path,
                                                            monkeypatch):
    from affectpipe import engine
    chosen = []
    select = engine.sequential_forward_selection
    monkeypatch.setattr(engine, "sequential_forward_selection",
                        lambda *a, **kw: chosen.append(select(*a, **kw)) or chosen[-1])
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(run_config(dataset_root) + "selector: {k: 5}\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert cmd_run(str(cfg), out_dir=str(out_dir)) == 0
    with (out_dir / "selected_features.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["column"]] + [[c] for c in chosen[0].columns]
    assert len(rows) == 6
    # a later run without a selector leaves only the header
    cfg.write_text(run_config(dataset_root), encoding="utf-8")
    assert cmd_run(str(cfg), out_dir=str(out_dir)) == 0
    with (out_dir / "selected_features.csv").open(newline="") as fh:
        assert list(csv.reader(fh)) == [["column"]]


def test_run_loso_without_code_changes(dataset_root, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(run_config(dataset_root, cv="loso", folds=""),
                   encoding="utf-8")
    assert cmd_run(str(cfg), out_dir=str(tmp_path / "out")) == 0
    with (tmp_path / "out" / "report.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    folds = {r["fold"] for r in rows} - {"mean", "std"}
    assert folds == {"0", "1", "2"}  # one per subject


def test_run_deterministic_reports(dataset_root, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(run_config(dataset_root, features=WEAK_FEATURE), encoding="utf-8")
    outs = []
    for d in ("o1", "o2"):
        assert cmd_run(str(cfg), seed=21, out_dir=str(tmp_path / d)) == 0
        outs.append((tmp_path / d / "report.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_seed_flag_equals_config_seed(dataset_root, tmp_path):
    text = run_config(dataset_root, features=WEAK_FEATURE)
    reports = {}
    for name, config_seed, flag in (("config", 21, None), ("flag", 0, 21),
                                    ("other", 0, None)):
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(text.replace("seed: 11", f"seed: {config_seed}"),
                       encoding="utf-8")
        assert cmd_run(str(cfg), seed=flag, out_dir=str(tmp_path / name)) == 0
        reports[name] = (tmp_path / name / "report.csv").read_bytes()
    assert reports["config"] == reports["flag"]
    # the seed reaches the k-fold split
    assert reports["other"] != reports["config"]


def test_run_shuffle_seed_key_exit_2(dataset_root, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(run_config(dataset_root, folds="folds: 3\n  shuffle_seed: 4"),
                   encoding="utf-8")
    assert cmd_run(str(cfg), out_dir=str(tmp_path / "out")) == 2
    out = capsys.readouterr().out
    assert "shuffle_seed" in out and "'seed'" in out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cv_folds", [1, 0])
def test_run_selector_below_two_folds_exit_2(dataset_root, tmp_path, capsys, cv_folds):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(run_config(dataset_root) + f"""\
selector:
  k: 2
  cv_folds: {cv_folds}
""", encoding="utf-8")
    assert cmd_run(str(cfg), out_dir=str(tmp_path / "out")) == 2
    assert "selector.cv_folds" in capsys.readouterr().out


@pytest.mark.parametrize("folds", ["1", '"3"', "true"])
def test_run_eval_folds_not_an_integer_of_two_exit_2(tmp_path, capsys, folds):
    # the dataset root does not exist: reading it would exit 4, so exit 2
    # shows the fold count was rejected before any I/O
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(run_config(tmp_path / "no-such-dataset", folds=f"folds: {folds}"),
                   encoding="utf-8")
    assert cmd_run(str(cfg), out_dir=str(tmp_path / "out")) == 2
    assert "cv.folds" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


CV_BLOCK = "cv:\n  kind: kfold\n  folds: 3\n"


DT = "algorithm: DecisionTree\n    hyperparameters: "
CHAIN = ("preprocessing:\n  chains:\n    {modality}:\n"
         "      - {{op: {op}, order: 2, cutoffs_hz: [5.0]}}\n")
STEP = "preprocessing:\n  chains:\n    ECG:\n      - {step}\n"


def _replace(old, new):
    return lambda text: text.replace(old, new, 1)


def _append(extra):
    return lambda text: text + extra


@pytest.mark.parametrize("edit, key", [
    pytest.param(_replace(CV_BLOCK, "cv: [1]\n"), "cv", id="cv-list"),
    pytest.param(_append("selector: 3\n"), "selector", id="selector-int"),
    pytest.param(_append("selector: {cv_folds: 3}\n"), "selector.k", id="selector-no-k"),
    pytest.param(_append("selector: {k: five}\n"), "selector.k", id="k-text"),
    pytest.param(_append("selector: {k: 0}\n"), "selector.k", id="k-0"),
    pytest.param(_append("selector: {k: -1}\n"), "selector.k", id="k-negative"),
    pytest.param(_append("selector: {k: 1, scorer: {name: s}}\n"),
                 "selector.scorer.algorithm", id="scorer-no-algorithm"),
    pytest.param(_append("selector: {k: 1, scorer: {algorithm: SVM}}\n"),
                 "selector.scorer.algorithm", id="scorer-unknown-algorithm"),
    pytest.param(_replace("seed: 11", "seed: abc"), "seed", id="seed-text"),
    pytest.param(_replace("seed: 11", "seed: true"), "seed", id="seed-bool"),
    pytest.param(_replace("rest: 0", "rest: x"), "labels.phase_to_class.rest",
                 id="class-text"),
    pytest.param(_append("preprocessing: [1]\n"), "preprocessing", id="preprocessing-list"),
    pytest.param(_append("preprocessing:\n  chains:\n    ECG:\n      - {order: 2}\n"),
                 "preprocessing.chains.ECG[0].op", id="chain-step-no-op"),
    pytest.param(_replace("window_s: 60.0", "window_s: .nan"), "windowing.window_s",
                 id="window-nan"),
    pytest.param(_replace("window_s: 60.0", "window_s: .inf"), "windowing.window_s",
                 id="window-inf"),
    pytest.param(_replace("calculate_average: false", "calculate_average: no-way"),
                 "windowing.calculate_average", id="flag-text"),
    pytest.param(_replace(CV_BLOCK, "cv: {fold: 3}\n"), "cv.fold", id="cv-typo"),
    pytest.param(_replace("classifiers:", "classifer:"), "classifer", id="classifiers-typo"),
    pytest.param(_replace("features: default-ecg-eda", "features: 5"), "features",
                 id="features-int"),
    pytest.param(_replace("algorithm: DecisionTree\n", DT + "{criterion: gini2}\n"),
                 "classifiers[1].hyperparameters.criterion", id="criterion-unknown"),
    pytest.param(_replace("algorithm: DecisionTree\n", DT + "{max_dept: 3}\n"),
                 "classifiers[1].hyperparameters.max_dept", id="hyperparameter-typo"),
    pytest.param(_replace("algorithm: DecisionTree\n", DT + "{max_depth: 0}\n"),
                 "classifiers[1].hyperparameters.max_depth", id="max-depth-0"),
    pytest.param(_replace("{k_neighbors: 9}", "{k_neighbors: 0}"),
                 "classifiers[0].hyperparameters.k_neighbors", id="k-neighbors-0"),
    pytest.param(_append("selector: {k: 1, scorer: {algorithm: KNN, "
                         "hyperparameters: {k: 3}}}\n"),
                 "selector.scorer.hyperparameters.k", id="scorer-hyperparameter-typo"),
    pytest.param(_append("  - {algorithm: LogisticRegression, hyperparameters: {step: 0}}\n"),
                 "classifiers[2].hyperparameters.step", id="logistic-step-0"),
    pytest.param(_append("  - {algorithm: LogisticRegression, "
                         "hyperparameters: {iterations: 0}}\n"),
                 "classifiers[2].hyperparameters.iterations", id="logistic-iterations-0"),
    pytest.param(_append("  - {algorithm: LDA, hyperparameters: {ridge: 1}}\n"),
                 "classifiers[2].hyperparameters.ridge", id="lda-hyperparameter"),
    pytest.param(_append("  - {algorithm: AveragingEnsemble}\n"),
                 "classifiers[2].hyperparameters.members", id="ensemble-no-members"),
    pytest.param(_append("  - {algorithm: AveragingEnsemble, hyperparameters: "
                         "{members: [{algorithm: SVM}]}}\n"),
                 "classifiers[2].hyperparameters.members[0].algorithm",
                 id="ensemble-member-unknown"),
    pytest.param(_append("  - {name: dt, algorithm: LDA}\n"), "classifiers[2].name",
                 id="classifier-name-repeat"),
    pytest.param(_append("  - {algorithm: KNN}\n  - {algorithm: KNN, "
                         "hyperparameters: {k_neighbors: 1}}\n"),
                 "classifiers[3].name", id="classifier-default-name-repeat"),
    pytest.param(_append(CHAIN.format(modality="ECG", op="lowpas")),
                 "preprocessing.chains.ECG[0].op", id="chain-op-typo"),
    pytest.param(_append(CHAIN.format(modality="ECGX", op="lowpass")),
                 "preprocessing.chains.ECGX", id="chain-unknown-modality"),
    pytest.param(_append(STEP.format(step="{op: notch, f0: 60}")),
                 "preprocessing.chains.ECG[0].f0", id="step-key-typo"),
    pytest.param(_append(STEP.format(step="{op: lowpass, order: 2, cutoffs_hz: [5.0], q: 3}")),
                 "preprocessing.chains.ECG[0].q", id="step-key-of-another-op"),
    pytest.param(_append(STEP.format(step="{op: lowpass, cutoffs_hz: [5.0]}")),
                 "preprocessing.chains.ECG[0].order", id="step-no-order"),
    pytest.param(_append(STEP.format(step="{op: highpass, order: 2}")),
                 "preprocessing.chains.ECG[0].cutoffs_hz", id="step-no-cutoffs"),
    pytest.param(_append(STEP.format(step="{op: bandpass, order: 0, cutoffs_hz: [1, 5]}")),
                 "preprocessing.chains.ECG[0].order", id="step-order-0"),
    pytest.param(_append(STEP.format(step="{op: bandstop, order: 2, cutoffs_hz: [0, 5]}")),
                 "preprocessing.chains.ECG[0].cutoffs_hz", id="step-cutoff-0"),
    pytest.param(_append(STEP.format(step="{op: lowpass, order: 2, cutoffs_hz: []}")),
                 "preprocessing.chains.ECG[0].cutoffs_hz", id="step-cutoffs-empty"),
    pytest.param(_append(STEP.format(step="{op: notch, q: -1}")),
                 "preprocessing.chains.ECG[0].q", id="step-q-negative"),
    pytest.param(_append(STEP.format(step="{op: resample}")),
                 "preprocessing.chains.ECG[0].target_fs_hz", id="step-no-target-rate"),
    pytest.param(_replace("signal_types: [ECG, EDA]", "signal_types: [ECG, EDAX]"),
                 "dataset.signal_types[1]", id="signal-type-unknown"),
])
def test_run_bad_config_exit_2_before_io(tmp_path, capsys, edit, key):
    # the dataset root does not exist: reading it would exit 4, so exit 2
    # shows the config was rejected before any I/O
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(edit(run_config(tmp_path / "no-such-dataset")), encoding="utf-8")
    assert cmd_run(str(cfg), out_dir=str(tmp_path / "out")) == 2
    out = capsys.readouterr().out
    assert out.startswith("config error:") and key in out
    assert not (tmp_path / "out").exists()


def test_run_step_above_window_exit_2_before_io(tmp_path, capsys):
    # WindowingPolicy makes the check; the config reports it as its own
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(run_config(tmp_path / "no-such-dataset", window=20.0), encoding="utf-8")
    assert cmd_run(str(cfg), out_dir=str(tmp_path / "out")) == 2
    out = capsys.readouterr().out
    assert out.startswith("config error: windowing") and "step_s" in out
    assert not (tmp_path / "out").exists()


def test_run_accepts_every_documented_hyperparameter(dataset_root, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(run_config(dataset_root).replace(
        "algorithm: DecisionTree\n", DT + "{criterion: entropy, max_depth: 3}\n") + """\
  - {name: lr, algorithm: LogisticRegression, hyperparameters: {iterations: 50, step: 0.5}}
  - name: ens
    algorithm: AveragingEnsemble
    hyperparameters:
      members: [{algorithm: LDA}, {algorithm: KNN, hyperparameters: {k_neighbors: 3}}]
""", encoding="utf-8")
    assert cmd_run(str(cfg), out_dir=str(tmp_path / "out")) == 0
    rows = list(csv.DictReader((tmp_path / "out" / "report.csv").open(encoding="utf-8")))
    assert {row["model"] for row in rows} == {"knn9", "dt", "lr", "ens"}


def test_run_accepts_every_documented_step_key(dataset_root, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(run_config(dataset_root) + """\
preprocessing:
  chains:
    ECG:
      - {op: resample, target_fs_hz: 250.0}
      - {op: highpass, order: 2, cutoffs_hz: [0.5]}
      - {op: notch, f0_hz: 60, q: 25}
      - {op: bandstop, order: 2, cutoffs_hz: [95.0, 105.0]}
      - {op: notch}
    EDA:
      - {op: lowpass, order: 4, cutoffs_hz: 5.0}
      - {op: bandpass, order: 1, cutoffs_hz: [0.01, 8.0]}
""", encoding="utf-8")
    chains = build_pipeline_spec(load_config(cfg)).stages[1].chains
    assert chains["ECG"].steps[2] == PreprocessStep("notch", {"f0_hz": 60, "q": 25})
    assert chains["EDA"].steps[0] == PreprocessStep("lowpass", {"order": 4, "cutoffs_hz": 5.0})
    assert cmd_run(str(cfg), out_dir=str(tmp_path / "out")) == 0


def test_run_null_sections_read_as_absent(dataset_root, tmp_path):
    text = run_config(dataset_root, features=WEAK_FEATURE)
    reports = []
    for name, cv in (("absent", ""), ("null", "cv:\nselector:\n")):
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(text.replace(CV_BLOCK, cv), encoding="utf-8")
        assert cmd_run(str(cfg), out_dir=str(tmp_path / name)) == 0
        reports.append((tmp_path / name / "report.csv").read_bytes())
    assert reports[0] == reports[1]


def test_run_output_path_is_a_file_exit_1(dataset_root, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(run_config(dataset_root), encoding="utf-8")
    blocker = tmp_path / "out"
    blocker.write_text("", encoding="utf-8")
    assert cmd_run(str(cfg), out_dir=str(blocker)) == 1
    assert "I/O failure" in capsys.readouterr().out


def test_run_config_error_exit_2(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("windowing: {window_s: 60}\n", encoding="utf-8")
    assert cmd_run(str(cfg)) == 2


def test_run_missing_classification_exit_3(dataset_root, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    text = run_config(dataset_root)
    text = text[:text.index("classifiers:")]
    cfg.write_text(text, encoding="utf-8")
    assert cmd_run(str(cfg)) == 3
    assert "Classification" in capsys.readouterr().out


def test_run_undeclared_feature_name_exit_3_before_acquisition(tmp_path, capsys):
    # the dataset root does not exist: reading it would fail at run time
    # (exit 4), so exit 3 shows the catalog was rejected before Acquisition
    text = run_config(tmp_path / "no-such-dataset", features=(
        "features:\n"
        "  - {name: hrv, modality: ECG, computation: hrv_time,\n"
        "     features: [hr_mean_bpm, rmsdd_s]}"))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text, encoding="utf-8")
    assert cmd_run(str(cfg)) == 3
    out = capsys.readouterr().out
    assert "pipeline build error" in out and "'hrv'" in out and "rmsdd_s" in out


def test_run_unread_catalog_parameter_exit_3_before_acquisition(tmp_path, capsys):
    text = run_config(tmp_path / "no-such-dataset", features=(
        "features:\n"
        "  - {name: scr, modality: EDA, computation: eda_decomposition,\n"
        "     parameters: {min_amplitude: 5.0}, features: [scr_count]}"))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text, encoding="utf-8")
    assert cmd_run(str(cfg)) == 3
    out = capsys.readouterr().out
    assert "pipeline build error" in out and "'scr'" in out and "min_amplitude" in out


def test_run_bad_catalog_parameter_value_exit_3_before_acquisition(tmp_path, capsys):
    text = run_config(tmp_path / "no-such-dataset", features=(
        "features:\n"
        "  - {name: hrv, modality: ECG, computation: hrv_freq,\n"
        "     parameters: {bands: {lf: [0.15, 0.04]}}, features: [lf_power]}"))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text, encoding="utf-8")
    assert cmd_run(str(cfg)) == 3
    out = capsys.readouterr().out
    assert "pipeline build error" in out and "'hrv'" in out and "'bands'" in out


def test_run_window_longer_than_recording_exit_4(dataset_root, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(run_config(dataset_root, window=600.0), encoding="utf-8")
    assert cmd_run(str(cfg), out_dir=str(tmp_path / "out")) == 4
    assert "600" in capsys.readouterr().out
    # feature extraction failed: only the Acquisition's record was reached
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["excluded_subjects.csv"]


# --- argparse front end ---

def test_main_dispatch(dataset_root):
    assert main(["validate", str(dataset_root)]) == 0


def test_main_synth_and_seed(tmp_path):
    spec = tmp_path / "spec.yaml"
    spec.write_text(SPEC_YAML, encoding="utf-8")
    assert main(["synth", str(spec), str(tmp_path / "ds"), "--seed", "2"]) == 0
    assert (tmp_path / "ds" / "manifest.csv").exists()
