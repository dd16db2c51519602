import csv
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affectpipe import (
    Modality,
    SignalRegistry,
    TimeSeries,
    acquire,
    load_csv_signal,
    scan_dataset,
    synth_dataset,
    write_csv_signal,
)
from affectpipe.errors import (
    DuplicateSignalFile,
    EmptyDataset,
    IOFailure,
    MissingHeader,
    MissingReport,
    NonNumericCell,
    ValidationFailed,
)
from affectpipe import acquisition
from affectpipe.config import load_dataset_spec

from conftest import make_series


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_registry_defaults():
    reg = SignalRegistry.default()
    assert reg.names() == ["ECG", "EDA", "EMG", "RESP", "TEMP"]
    assert reg.lookup("ecg").name == "ECG"
    assert {n: (m.unit, m.default_sample_rate_hz) for n, m in reg.modalities.items()} == {
        "ECG": ("millivolt", 700.0), "EDA": ("microsiemens", 700.0),
        "EMG": ("millivolt", 700.0), "RESP": ("percent", 700.0),
        "TEMP": ("degree-Celsius", 4.0)}


def test_registry_extensible(tmp_path):
    meta = tmp_path / "meta.csv"
    meta.write_text("ECG,millivolt,700\nPPG,arbitrary,64\n", encoding="utf-8")
    reg = SignalRegistry.from_file(meta)
    assert reg.lookup("PPG").default_sample_rate_hz == 64


def test_registry_file_unreadable_or_not_utf_8_is_an_io_failure(tmp_path):
    meta = tmp_path / "meta.csv"
    with pytest.raises(IOFailure, match=f"^cannot read {meta}: .*No such file"):
        SignalRegistry.from_file(meta)
    meta.write_bytes(b"ECG,millivolt,700\n# caf\xe9\n")
    with pytest.raises(IOFailure) as e:
        SignalRegistry.from_file(meta)
    assert str(e.value).startswith(f"cannot read {meta}: 'utf-8' codec can't decode "
                                   "byte 0xe9")


def test_registry_rejects_two_lines_naming_one_modality(tmp_path):
    meta = tmp_path / "meta.csv"
    meta.write_text("# name,unit,rate\nECG,mV,250\nEDA,uS,32\necg,uV,500\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as e:
        SignalRegistry.from_file(meta)
    assert str(e.value) == ("modality 'ECG' is named twice: line 2 'ECG,mV,250' "
                            "and line 4 'ecg,uV,500'")
    with pytest.raises(ValueError, match="modality 'EDA' is named twice: a and b$"):
        SignalRegistry({"a": Modality("EDA"), "b": Modality("eda")})


@pytest.mark.parametrize("record", ["ECG,mV", "ECG,mV,fast"],
                         ids=["two-fields", "rate-not-a-number"])
def test_registry_names_the_line_of_a_malformed_record(tmp_path, record):
    meta = tmp_path / "meta.csv"
    meta.write_text(f"# name,unit,rate\nEDA,uS,32\n{record}\n", encoding="utf-8")
    with pytest.raises(ValueError) as e:
        SignalRegistry.from_file(meta)
    assert str(e.value) == (f"{meta} line 3 {record!r}: expected name,unit,rate with "
                            "the rate a number, empty or 'unspecified'")


@pytest.mark.parametrize("rate", ["-5", "0", "nan", "inf"])
def test_registry_names_the_line_of_a_rate_not_finite_and_positive(tmp_path, rate):
    meta = tmp_path / "meta.csv"
    meta.write_text(f"EDA,uS,32\nECG,mV,{rate}\n", encoding="utf-8")
    message = f"default_sample_rate_hz must be finite and positive, not {float(rate)}"
    with pytest.raises(ValueError) as e:
        SignalRegistry.from_file(meta)
    assert str(e.value) == f"{meta} line 2 'ECG,mV,{rate}': {message}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        Modality("ECG", "mV", float(rate))


def test_scan_pattern_match(tmp_path):
    write(tmp_path / "S1" / "S1_rest_ECG.csv", "timestamp,ECG\n0.0,1\n0.004,2\n")
    write(tmp_path / "S1" / "S1_stress_ECG.csv", "timestamp,ECG\n0.0,1\n0.004,2\n")
    index = scan_dataset(tmp_path)
    assert list(index.subjects) == ["S1"]
    assert [(p, m.name) for p, m, _ in index.subjects["S1"]] == [
        ("rest", "ECG"), ("stress", "ECG")]


def test_scan_skips_unregistered_modality(tmp_path):
    write(tmp_path / "S1" / "S1_rest_ECG.csv", "timestamp,ECG\n0.0,1\n0.004,2\n")
    write(tmp_path / "S1" / "S1_rest_XYZ.csv", "timestamp,XYZ\n0.0,1\n0.004,2\n")
    index = scan_dataset(tmp_path)
    assert [p.name for p in index.skipped_files] == ["S1_rest_XYZ.csv"]
    assert [(p, m.name) for p, m, _ in index.subjects["S1"]] == [("rest", "ECG")]


def test_scan_full_fixture_counts(tmp_path):
    # 2 subjects x 2 phases x 5 modalities = 10 files per subject
    modalities = ["ECG", "EDA", "EMG", "RESP", "TEMP"]
    for s in ("S1", "S2"):
        for phase in ("rest", "stress"):
            for m in modalities:
                write(tmp_path / s / f"{s}_{phase}_{m}.csv",
                      f"timestamp,{m}\n0.0,1\n0.004,2\n")
    index = scan_dataset(tmp_path)
    assert all(len(files) == 10 for files in index.subjects.values())
    assert not index.skipped_files


def test_scan_rejects_duplicates(tmp_path):
    # same (phase, modality) twice via case-insensitive modality match
    write(tmp_path / "S1" / "S1_rest_ECG.csv", "timestamp,ECG\n0.0,1\n0.004,2\n")
    write(tmp_path / "S1" / "S1_rest_ecg.csv", "timestamp,ECG\n0.0,1\n0.004,2\n")
    with pytest.raises(DuplicateSignalFile) as e:
        scan_dataset(tmp_path)
    assert str(e.value) == (f"{tmp_path / 'S1' / 'S1_rest_ECG.csv'} and "
                            f"{tmp_path / 'S1' / 'S1_rest_ecg.csv'} both hold "
                            "('rest', 'ECG') for subject 'S1'")


def test_scan_empty_dataset(tmp_path):
    with pytest.raises(EmptyDataset):
        scan_dataset(tmp_path)


def test_load_two_row_csv(tmp_path):
    reg = SignalRegistry.default()
    f = tmp_path / "sig.csv"
    f.write_text("timestamp,ECG\n0.0,0.1\n0.004,0.2\n", encoding="utf-8")
    s = load_csv_signal(f, reg.lookup("ECG"), "S1", "rest")
    assert len(s) == 2
    assert s.sample_rate_hz == pytest.approx(250.0)


def test_load_missing_timestamp_header(tmp_path):
    reg = SignalRegistry.default()
    f = tmp_path / "sig.csv"
    f.write_text("time,ECG\n0.0,0.1\n0.004,0.2\n", encoding="utf-8")
    with pytest.raises(MissingHeader) as e:
        load_csv_signal(f, reg.lookup("ECG"), "S1", "rest")
    assert e.value.name == "timestamp"


@pytest.mark.parametrize("text, missing", [("", "timestamp"),
                                           ("timestamp,EDA\n0.0,0.1\n0.004,0.2\n", "ECG")],
                         ids=["no-header-row", "no-modality-column"])
def test_load_names_the_missing_header(tmp_path, text, missing):
    f = tmp_path / "sig.csv"
    f.write_text(text, encoding="utf-8")
    with pytest.raises(MissingHeader) as e:
        load_csv_signal(f, SignalRegistry.default().lookup("ECG"), "S1", "rest")
    assert e.value.name == missing


def test_load_non_numeric_cell(tmp_path):
    reg = SignalRegistry.default()
    f = tmp_path / "sig.csv"
    f.write_text("timestamp,ECG\n0.0,0.1\n0.004,abc\n", encoding="utf-8")
    with pytest.raises(NonNumericCell) as e:
        load_csv_signal(f, reg.lookup("ECG"), "S1", "rest")
    assert e.value.row == 3  # header is row 1


def test_load_accepts_crlf(tmp_path):
    reg = SignalRegistry.default()
    f = tmp_path / "sig.csv"
    f.write_bytes(b"timestamp,ECG\r\n0.0,0.1\r\n0.004,0.2\r\n")
    assert len(load_csv_signal(f, reg.lookup("ECG"), "S1", "rest")) == 2


def _rowwise_values(path, modality):
    """The original row-by-row body parse, kept as the reference."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        lowered = [h.strip().lower() for h in next(reader)]
        t_col = lowered.index("timestamp")
        v_col = lowered.index(modality.lower())
        timestamps, values = [], []
        for row in reader:
            if row:
                timestamps.append(float(row[t_col]))
                values.append(float(row[v_col]))
    return np.asarray(timestamps), np.asarray(values)


@pytest.mark.parametrize("text", [
    b"timestamp,ECG\r\n0.0,0.1\r\n0.004,0.2\r\n0.008,-3e-5\r\n",
    b"timestamp,ECG\n\n0.0,0.1\n\n0.004,0.2\n0.008,7\n\n",
    b"ECG,timestamp\n0.1,0.0\n0.2,0.004\n0.3,0.008\n",
    b'timestamp,ECG\n"0.0",0.1\n0.004,"0.2"\n0.008,0.3\n',
    b"timestamp,ECG\n0.0,0.1,9\n0.004,0.2,9\n0.008,0.3,9\n",
    b"timestamp,ECG,note\n0.0,0.1,a\n0.004,0.2\n0.008, 0.3 ,b\n",
    b'timestamp,ECG,"two\nline note"\n0.0,0.1,a\n0.004,0.2,b\n0.008,0.3,c\n',
], ids=["crlf", "blank-lines", "swapped-columns", "quoted", "extra-column",
        "ragged-column", "multiline-header"])
def test_load_matches_rowwise_parse(tmp_path, text):
    f = tmp_path / "sig.csv"
    f.write_bytes(text)
    s = load_csv_signal(f, SignalRegistry.default().lookup("ECG"), "S1", "rest")
    t, v = _rowwise_values(f, "ECG")
    assert s.timestamps.tobytes() == t.tobytes()
    assert s.values.tobytes() == v.tobytes()


def test_load_non_numeric_cell_deep_in_file(tmp_path):
    n, bad = 50_000, 41_234  # bad is a 0-based data row
    lines = ["timestamp,ECG"] + [f"{i / 250},{np.sin(i)}" for i in range(n)]
    lines[1 + bad] = f"{bad / 250},1.0x"
    f = tmp_path / "sig.csv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(NonNumericCell) as e:
        load_csv_signal(f, SignalRegistry.default().lookup("ECG"), "S1", "rest")
    assert e.value.row == bad + 2  # header is row 1


@pytest.mark.parametrize("cell", ["#0.2", "0.2#", "#"])
def test_load_hash_in_cell_is_non_numeric(tmp_path, cell):
    f = tmp_path / "sig.csv"
    f.write_text(f"timestamp,ECG\n0.0,0.1\n0.004,{cell}\n0.008,0.3\n",
                 encoding="utf-8")
    with pytest.raises(NonNumericCell) as e:
        load_csv_signal(f, SignalRegistry.default().lookup("ECG"), "S1", "rest")
    assert e.value.row == 3


def test_load_header_only_fails_validation_without_warning(tmp_path):
    f = tmp_path / "sig.csv"
    f.write_text("timestamp,ECG\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationFailed):
            load_csv_signal(f, SignalRegistry.default().lookup("ECG"), "S1", "rest")


@pytest.mark.parametrize("body, violations", [
    ("0.0,0.1\n", ["fewer than 2 samples"]),
    ('"0.0",0.1\n', ["fewer than 2 samples"]),  # the row-wise parse
    ("inf,0.1\n", ["fewer than 2 samples", "non-finite timestamp (index 0)"]),
])
def test_load_one_row_reports_every_violation(tmp_path, body, violations):
    f = tmp_path / "sig.csv"
    f.write_text("timestamp,ECG\n" + body, encoding="utf-8")
    with pytest.raises(ValidationFailed) as e:
        load_csv_signal(f, SignalRegistry.default().lookup("ECG"), "S1", "rest")
    assert [str(v) for v in e.value.violations] == violations


def _rowwise_write(series, path, precision=12):
    """The original csv.writer serializer, kept as the byte reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", series.modality.name])
        for t, v in zip(series.timestamps, series.values):
            writer.writerow([f"{t:.{precision}g}", f"{v:.{precision}g}"])


@pytest.mark.parametrize("precision", [1, 6, 12, 17])
def test_write_bytes_match_rowwise_writer(tmp_path, monkeypatch, precision):
    rng = np.random.default_rng(precision)
    special = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 3.0, -42.0,
               1e15, 123456789012345678.0, np.nan, np.inf, -np.inf]
    values = np.concatenate([special, rng.normal(0, 1e3, 200),
                             rng.integers(-10**6, 10**6, 50).astype(float)])
    timestamps = np.concatenate([[-1e300, -1.0, -0.0, 1e-300],
                                 np.cumsum(rng.uniform(1e-3, 1.0, values.size - 4))])
    series = TimeSeries("S1", "rest", Modality("ECG"), timestamps, values, 250.0)
    # a chunk smaller than the series exercises the chunk boundaries
    monkeypatch.setattr(acquisition, "WRITE_CHUNK_ROWS", 7)
    write_csv_signal(series, tmp_path / "new.csv", precision)
    _rowwise_write(series, tmp_path / "old.csv", precision)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_shared_grids_match_rowwise_writer(tmp_path, monkeypatch):
    # one memo across grids whose zero timestamps differ only in sign, and
    # across two precisions and two chunk sizes of one grid: each write
    # keeps its own bytes
    grids = {}
    values = np.array([0.25, -1.5, 1e-300])
    cases = [([-0.0, 0.5, 1.0], 12, 2), ([0.0, 0.5, 1.0], 12, 2),
             ([0.0, 0.5, 1.0], 1, 2), ([0.0, 0.5, 1.0], 1, 3),
             ([-0.0, 0.5, 1.0], 12, 2)]
    for i, (timestamps, precision, chunk) in enumerate(cases):
        monkeypatch.setattr(acquisition, "WRITE_CHUNK_ROWS", chunk)
        series = TimeSeries("S1", "rest", Modality("ECG"), timestamps, values, 2.0)
        write_csv_signal(series, tmp_path / f"new{i}.csv", precision, grids=grids)
        _rowwise_write(series, tmp_path / f"old{i}.csv", precision)
        assert (tmp_path / f"new{i}.csv").read_bytes() == \
            (tmp_path / f"old{i}.csv").read_bytes()
    assert len(grids) == 4


def test_synth_dataset_bytes_match_rowwise_writer(tmp_path, monkeypatch):
    # chunks small enough that every file spans several, with ECG and EDA
    # files alternating through one synth_dataset call's memo
    from affectpipe import synth
    written = []

    def recording_write(series, path, *args, **kwargs):
        written.append((series, path, kwargs["grids"]))
        return write_csv_signal(series, path, *args, **kwargs)

    monkeypatch.setattr(acquisition, "WRITE_CHUNK_ROWS", 97)
    monkeypatch.setattr(synth, "write_csv_signal", recording_write)
    synth.synth_dataset(synth.DatasetSpec(n_subjects=2, duration_s=30.0, seed=4),
                        tmp_path / "ds")
    assert [p.name for _, p, _ in written][:4] == [
        "S1_rest_ECG.csv", "S1_rest_EDA.csv", "S1_stress_ECG.csv", "S1_stress_EDA.csv"]
    assert len(written) == 8
    assert len({id(grids) for _, _, grids in written}) == 1
    assert len(written[0][2]) == 2  # one ECG grid, one EDA grid
    for series, path, _ in written:
        assert len(series) > 3 * 97
        _rowwise_write(series, tmp_path / "old.csv")
        assert path.read_bytes() == (tmp_path / "old.csv").read_bytes()


_CHUNK = 5
_FINITE_BITS = 0x7FF0000000000000  # bit patterns below this are finite, >= +0.0
_SPECIAL_BITS = [int(np.array(v).view(np.uint64)) for v in
                 (0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e16)]


def _floats(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


@st.composite
def _written_series(draw):
    n = draw(st.sampled_from([2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 1,
                              2 * _CHUNK, 2 * _CHUNK + 1, 3 * _CHUNK]))
    value_bits = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(_SPECIAL_BITS))
    values = _floats(draw(st.lists(value_bits, min_size=n, max_size=n)))
    # signed bit magnitudes, distinct and sorted, map to strictly increasing
    # finite timestamps (subnormals and both signs included)
    keys = sorted(draw(st.lists(st.integers(-_FINITE_BITS + 1, _FINITE_BITS - 1),
                                min_size=n, max_size=n, unique=True)))
    magnitudes = _floats([abs(k) for k in keys])
    timestamps = np.where(np.array(keys) < 0, -magnitudes, magnitudes)
    return TimeSeries("S1", "rest", Modality("ECG"), timestamps, values, 250.0)


@settings(max_examples=150, deadline=None)
@given(series=_written_series(), precision=st.integers(1, 17))
def test_write_bytes_match_rowwise_writer_on_any_float(tmp_path_factory, series,
                                                       precision):
    tmp = tmp_path_factory.mktemp("write")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acquisition, "WRITE_CHUNK_ROWS", _CHUNK)
        write_csv_signal(series, tmp / "new.csv", precision)
    _rowwise_write(series, tmp / "old.csv", precision)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


def _fixture(tmp_path, subjects=("S1", "S2"), phases=("rest", "stress"),
             modalities=("ECG", "EDA")):
    for s in subjects:
        for phase in phases:
            for m in modalities:
                write(tmp_path / s / f"{s}_{phase}_{m}.csv",
                      f"timestamp,{m}\n0.0,1\n0.5,2\n1.0,1\n")
    return scan_dataset(tmp_path)


def test_acquire_filters_modalities(tmp_path):
    index = _fixture(tmp_path)
    result = acquire(index, ["ECG"])
    for subject in result.bundle.subjects():
        assert {s.modality.name for s in result.bundle.series_for(subject)} == {"ECG"}


def test_acquire_excludes_incomplete_subjects(tmp_path):
    index = _fixture(tmp_path)
    (tmp_path / "S2" / "S2_stress_EDA.csv").unlink()
    index = scan_dataset(tmp_path)
    result = acquire(index, ["ECG", "EDA"])
    assert result.excluded_subjects == ("S2",)
    assert result.bundle.subjects() == ["S1"]


def test_acquire_strict_mode_escalates(tmp_path):
    _fixture(tmp_path)
    (tmp_path / "S2" / "S2_stress_EDA.csv").unlink()
    index = scan_dataset(tmp_path)
    with pytest.raises(MissingReport):
        acquire(index, ["ECG", "EDA"], strict=True)


def test_acquire_names_a_modality_that_no_file_has(tmp_path):
    index = _fixture(tmp_path)
    with pytest.raises(EmptyDataset, match=r"no file has the requested modalities "
                       r"\['EDAX'\] \(the files have ECG, EDA\)"):
        acquire(index, ["ECG", "edax"])
    # a modality that only some subjects have still excludes the others
    write(tmp_path / "S1" / "S1_rest_EMG.csv", "timestamp,EMG\n0.0,1\n0.5,2\n1.0,1\n")
    write(tmp_path / "S1" / "S1_stress_EMG.csv", "timestamp,EMG\n0.0,1\n0.5,2\n1.0,1\n")
    result = acquire(scan_dataset(tmp_path), ["ECG", "EMG"])
    assert result.excluded_subjects == ("S2",)


def test_acquire_with_no_subject_holding_every_modality_is_an_empty_dataset(tmp_path):
    # each requested modality is in some file, but S1 has no EDA and S2 no ECG
    _fixture(tmp_path, subjects=("S1",), modalities=("ECG",))
    _fixture(tmp_path, subjects=("S2",), modalities=("EDA",))
    with pytest.raises(EmptyDataset, match="^no subject has all requested modalities$"):
        acquire(scan_dataset(tmp_path), ["ECG", "EDA"])


def test_acquire_all_five_modalities(tmp_path):
    index = _fixture(tmp_path, modalities=("ECG", "EDA", "EMG", "RESP", "TEMP"))
    result = acquire(index, ["ECG", "EDA", "EMG", "RESP", "TEMP"])
    for subject in result.bundle.subjects():
        for phase in result.bundle.phases_for(subject):
            series = [s for s in result.bundle.series_for(subject) if s.phase == phase]
            assert len(series) == 5


def test_round_trip_write_load(tmp_path):
    rng = np.random.default_rng(3)
    series = make_series(rng.normal(0, 1, 500), fs=250.0)
    path = tmp_path / "S1" / "S1_rest_ECG.csv"
    write_csv_signal(series, path)
    reloaded = load_csv_signal(path, series.modality, "S1", "rest")
    # 12 significant digits survive the formatting round trip
    np.testing.assert_allclose(reloaded.values, series.values, rtol=1e-11)
    np.testing.assert_allclose(reloaded.timestamps, series.timestamps, rtol=1e-11, atol=1e-12)


def test_acquire_output_is_valid_bundle(tmp_path):
    index = _fixture(tmp_path, subjects=("A", "B", "C"))
    result = acquire(index, ["ECG", "EDA"])
    # SubjectBundle constructor enforces its invariants; reaching here means
    # they hold for this fixture shape
    assert len(result.bundle) == 3


# -- one timestamp array per grid within one acquire call ------------------

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def three_class_index(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth-3class")
    synth_dataset(load_dataset_spec(REPO / "configs" / "synth-3class.yaml"), root)
    return scan_dataset(root)


def _series(result):
    return [s for subject in result.bundle.subjects()
            for s in result.bundle.series_for(subject)]


def test_acquire_holds_one_timestamp_array_per_grid(three_class_index):
    series = _series(acquire(three_class_index, ["ECG", "EDA"]))
    assert len(series) == 36
    # ECG at 250 Hz and EDA at 32 Hz, each 180 s: two grids for 36 series
    assert len({id(s.timestamps) for s in series}) == 2
    for s in series:
        assert not s.timestamps.flags.writeable
        with pytest.raises(ValueError):
            s.timestamps[0] = 1.0


def test_acquire_calls_share_nothing_with_each_other(three_class_index):
    # both bundles stay alive, so an id is never reused
    first = _series(acquire(three_class_index, ["ECG", "EDA"]))
    second = _series(acquire(three_class_index, ["ECG", "EDA"]))
    first_ids = {id(s.timestamps) for s in first}
    second_ids = {id(s.timestamps) for s in second}
    assert len(first_ids) == len(second_ids) == 2
    assert not first_ids & second_ids


def _grid_file(root, phase, timestamps, quoted=False):
    cells = [f'"{t!r}"' if quoted else repr(t) for t in timestamps]
    write(root / "S1" / f"S1_{phase}_ECG.csv",
          "timestamp,ECG\n" + "".join(f"{c},{i}\n" for i, c in enumerate(cells)))


def test_acquire_shares_only_bitwise_equal_grids(tmp_path):
    grid = [0.0, 0.5, 1.0]
    _grid_file(tmp_path, "a", grid)
    _grid_file(tmp_path, "b", grid)
    _grid_file(tmp_path, "c", grid, quoted=True)  # the row-wise parse
    _grid_file(tmp_path, "d", [-0.0, 0.5, 1.0])
    _grid_file(tmp_path, "e", [0.0, 0.5, float(np.nextafter(1.0, 2.0))])
    _grid_file(tmp_path, "f", [0.0, float(np.nextafter(0.5, 1.0)), 1.0])
    _grid_file(tmp_path, "g", [0.0, float(np.nextafter(0.5, 1.0)), 1.0])
    _grid_file(tmp_path, "h", [-0.5, 0.0, 0.5])
    _grid_file(tmp_path, "i", [-0.5, -0.0, 0.5])
    got = {s.phase: s for s in acquire(scan_dataset(tmp_path), ["ECG"]).bundle.series_for("S1")}
    assert got["b"].timestamps is got["a"].timestamps
    assert got["c"].timestamps is got["a"].timestamps
    # -0.0 == 0.0 as floats, yet the bits differ
    assert np.array_equal(got["d"].timestamps, got["a"].timestamps)
    assert len({id(got[p].timestamps) for p in "ade"}) == 3
    # same length, first and last bits as "a", differing inside
    assert got["f"].timestamps is not got["a"].timestamps
    assert got["g"].timestamps is got["f"].timestamps
    assert got["i"].timestamps is not got["h"].timestamps
    assert got["c"].sample_rate_hz == got["a"].sample_rate_hz == 2.0


@pytest.mark.parametrize("body", ["", "0.0,1\n"])
def test_acquire_still_fails_a_grid_below_two_samples(tmp_path, body):
    _grid_file(tmp_path, "a", [0.0, 0.5, 1.0])
    write(tmp_path / "S1" / "S1_b_ECG.csv", "timestamp,ECG\n" + body)
    with pytest.raises(ValidationFailed, match="fewer than 2 samples"):
        acquire(scan_dataset(tmp_path), ["ECG"])


@st.composite
def _grids(draw):
    """Small grids, many bitwise equal, some one bit apart from another."""
    n = draw(st.integers(2, 5))
    step = draw(st.sampled_from([0.004, 0.03125, 0.5]))
    timestamps = draw(st.sampled_from([0.0, -0.5, 1.5])) + np.arange(n) * step
    # a zero timestamp, first or inside, of either sign
    timestamps[timestamps == 0.0] = draw(st.sampled_from([0.0, -0.0]))
    if draw(st.booleans()):
        i = draw(st.integers(1, n - 1))
        timestamps[i] = np.nextafter(timestamps[i], np.inf)
    return timestamps


@settings(max_examples=60, deadline=None)
@given(grids=st.lists(_grids(), min_size=1, max_size=6),
       values=st.lists(st.floats(width=64), min_size=5, max_size=5))
def test_acquire_matches_standalone_loads(tmp_path_factory, grids, values):
    root = tmp_path_factory.mktemp("grids")
    for k, timestamps in enumerate(grids):
        # %.17g round-trips every float64, so each file holds its drawn grid
        series = TimeSeries(f"S{k % 2}", f"p{k}", Modality("ECG"), timestamps,
                            values[:timestamps.size], 1.0)
        write_csv_signal(series, root / series.subject_id / f"{series.subject_id}_p{k}_ECG.csv",
                         precision=17)
    index = scan_dataset(root)
    bundle = acquire(index, ["ECG"]).bundle
    loaded = []
    for subject, files in index.subjects.items():
        for (phase, modality, path), s in zip(files, bundle.series_for(subject)):
            alone = load_csv_signal(path, modality, subject, phase)
            for name in ("timestamps", "values"):
                assert getattr(s, name).tobytes() == getattr(alone, name).tobytes()
            assert np.float64(s.sample_rate_hz).tobytes() == np.float64(alone.sample_rate_hz).tobytes()
            assert s.is_uniform() == alone.is_uniform()
            loaded.append(s)
    for a in loaded:
        for b in loaded:
            same_bits = a.timestamps.tobytes() == b.timestamps.tobytes()
            assert (a.timestamps is b.timestamps) == same_bits
