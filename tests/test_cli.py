import csv

import pytest

from affectpipe.cli import cmd_run, cmd_synth, cmd_validate, main


SPEC_YAML = """\
n_subjects: 3
phases: [rest, stress]
modalities: [ECG, EDA]
duration_s: 120.0
seed: 5
"""


def run_config(root, cv="kfold", folds="folds: 3", labels=None, window=60.0):
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
features: default-ecg-eda
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
    cfg.write_text(run_config(dataset_root), encoding="utf-8")
    outs = []
    for d in ("o1", "o2"):
        assert cmd_run(str(cfg), seed=21, out_dir=str(tmp_path / d)) == 0
        outs.append((tmp_path / d / "report.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_seed_flag_equals_config_seed(dataset_root, tmp_path):
    # one weak feature, so the scores depend on which rows share a fold
    text = run_config(dataset_root).replace(
        "features: default-ecg-eda",
        "features:\n"
        "  - {name: ecg, modality: ECG, computation: ecg_stats, features: [slope]}")
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
    text = run_config(tmp_path / "no-such-dataset").replace(
        "features: default-ecg-eda",
        "features:\n"
        "  - {name: hrv, modality: ECG, computation: hrv_time,\n"
        "     features: [hr_mean_bpm, rmsdd_s]}")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text, encoding="utf-8")
    assert cmd_run(str(cfg)) == 3
    out = capsys.readouterr().out
    assert "pipeline build error" in out and "'hrv'" in out and "rmsdd_s" in out


def test_run_window_longer_than_recording_exit_4(dataset_root, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(run_config(dataset_root, window=600.0), encoding="utf-8")
    assert cmd_run(str(cfg)) == 4
    assert "600" in capsys.readouterr().out


# --- argparse front end ---

def test_main_dispatch(dataset_root):
    assert main(["validate", str(dataset_root)]) == 0


def test_main_synth_and_seed(tmp_path):
    spec = tmp_path / "spec.yaml"
    spec.write_text(SPEC_YAML, encoding="utf-8")
    assert main(["synth", str(spec), str(tmp_path / "ds"), "--seed", "2"]) == 0
    assert (tmp_path / "ds" / "manifest.csv").exists()
