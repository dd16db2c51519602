"""Dataset scanning and CSV signal loading.

Datasets follow the standard layout::

    {source_folder}/
        {subject}/
            {subject}_{phase}_{modality}.csv
            {subject}_reports.csv          (optional self-reports)

Each signal CSV has a header row ``timestamp,<MODALITY>`` with numeric
cells.  Phase names may not contain underscores (the filename grammar would
otherwise be ambiguous) and subject ids may not contain ``/``.
"""

from __future__ import annotations

import csv
import importlib.resources
import io
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateSignalFile,
    EmptyDataset,
    IOFailure,
    MissingHeader,
    MissingReport,
    NonNumericCell,
    ValidationFailed,
)
from .types import Modality, SubjectBundle, TimeSeries, canonical_name, row_medians

#: Rows formatted by one format call and one write in write_csv_signal
#: (bounds the text buffer), and so rows per timestamp row template.
WRITE_CHUNK_ROWS = 65536


@dataclass(frozen=True)
class SignalRegistry:
    """Known modalities, keyed by name (its :func:`canonical_name` form).

    Built from records keyed by their source (a file line, or any label);
    two records naming one modality raise a ValueError naming both.
    """

    modalities: dict[str, Modality]

    def __post_init__(self):
        first = {}  # name -> the label of the first record naming it
        for label, modality in self.modalities.items():
            if first.setdefault(modality.name, label) != label:
                raise ValueError(f"modality {modality.name!r} is named twice: "
                                 f"{first[modality.name]} and {label}")
        object.__setattr__(self, "modalities", {m.name: m for m in self.modalities.values()})

    @classmethod
    def from_file(cls, path) -> "SignalRegistry":
        """Load line-oriented ``name,unit,default_sample_rate_hz`` records;
        raises IOFailure when the file cannot be read or is not UTF-8."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise IOFailure(f"cannot read {path}: {exc}") from exc
        modalities = {}
        for n, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            label = f"line {n} {line!r}"
            try:
                name, unit, rate = (part.strip() for part in line.split(","))
                rate_hz = None if rate.lower() in ("", "unspecified") else float(rate)
            except ValueError:
                raise ValueError(f"{path} {label}: expected name,unit,rate with the rate "
                                 "a number, empty or 'unspecified'") from None
            try:
                modalities[label] = Modality(name, unit, rate_hz)
            except ValueError as exc:  # a rate that is not finite and positive
                raise ValueError(f"{path} {label}: {exc}") from None
        return cls(modalities)

    @classmethod
    def default(cls) -> "SignalRegistry":
        ref = importlib.resources.files("affectpipe") / "modalities.csv"
        with importlib.resources.as_file(ref) as path:
            return cls.from_file(path)

    def lookup(self, name: str) -> Modality | None:
        return self.modalities.get(canonical_name(name))

    def names(self) -> list[str]:
        return sorted(self.modalities)


@dataclass(frozen=True)
class DatasetIndex:
    #: subject -> list of (phase, Modality, file path)
    subjects: dict[str, tuple[tuple[str, Modality, Path], ...]]
    skipped_files: tuple[Path, ...] = ()
    #: per-subject self-report CSVs found during the scan
    report_files: dict[str, Path] = field(default_factory=dict)


def _parse_signal_filename(filename: str, subject: str):
    """Return (phase, modality_name) or None when the name is not a signal file."""
    if not filename.endswith(".csv"):
        return None
    stem = filename[:-4]
    prefix = subject + "_"
    if not stem.startswith(prefix):
        return None
    parts = stem[len(prefix):].split("_")
    if len(parts) != 2:
        return None
    return parts[0], parts[1]


def scan_dataset(root, registry: SignalRegistry | None = None) -> DatasetIndex:
    """Index every conforming signal file under ``root``.

    Files with unregistered modalities land in the skipped-files report
    rather than raising.  Duplicate (phase, modality) files for a subject
    are rejected: the layout gives no precedence rule.
    """
    registry = registry or SignalRegistry.default()
    root = Path(root)
    if not root.is_dir():
        raise IOFailure(f"dataset root {root} is not a directory")
    subjects = {}
    skipped = []
    report_files = {}
    for subject_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        subject = subject_dir.name
        entries = []
        seen = {}  # (phase, modality) -> the first file holding it
        for f in sorted(subject_dir.iterdir()):
            if not f.is_file():
                continue
            if f.name == f"{subject}_reports.csv":
                report_files[subject] = f
                continue
            parsed = _parse_signal_filename(f.name, subject)
            if parsed is None:
                skipped.append(f)
                continue
            phase, modality_name = parsed
            modality = registry.lookup(modality_name)
            if modality is None:
                skipped.append(f)
                continue
            key = (phase, modality.name)
            if seen.setdefault(key, f) != f:
                raise DuplicateSignalFile(f"{seen[key]} and {f} both hold {key} "
                                          f"for subject {subject!r}")
            entries.append((phase, modality, f))
        if entries:
            subjects[subject] = tuple(entries)
    if not subjects:
        raise EmptyDataset(f"no subject folders with signal files under {root}")
    return DatasetIndex(subjects, tuple(skipped), report_files)


def load_csv_signal(path, modality: Modality, subject: str, phase: str, *,
                    grids: dict | None = None) -> TimeSeries:
    """Parse one ``timestamp,<MODALITY>`` CSV into a validated TimeSeries.

    ``grids`` lets series on one clock (same start, rate and length) share
    one timestamp array.  It belongs to the caller, who passes one dict to
    every load that may share and drops it after, as :func:`acquire` does
    per call.  The series is built and validated as without it; then, if
    its grid is bit for bit (``-0.0`` is not ``0.0``) a grid loaded
    earlier with the same dict, it takes that grid's read-only array and
    its ``sample_rate_hz`` instead of its own copy.  Lookup is by length
    and the bits of the first and last timestamp, then a bitwise
    comparison with each kept grid of that key (one, unless grids differ
    only inside).  The dict holds no copies, only the arrays the loaded
    series keep, and no grid of fewer than 2 samples.  ``None`` shares
    nothing.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise MissingHeader("timestamp", path) from None
            names = [canonical_name(h.strip()) for h in header]  # any case matches
            if "TIMESTAMP" not in names:
                raise MissingHeader("timestamp", path)
            if modality.name not in names:
                raise MissingHeader(modality.name, path)
            t_col = names.index("TIMESTAMP")
            v_col = names.index(modality.name)
            try:
                # given a path (not fh), numpy reads in chunks, not line by
                # line; skiprows covers the physical lines csv read for the
                # header.  comments=None: a '#' cell must fail, not end the row
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # empty body
                    body = np.loadtxt(path, delimiter=",", comments=None,
                                      usecols=(t_col, v_col), ndmin=2,
                                      skiprows=reader.line_num,
                                      encoding="utf-8")
            except ValueError:
                # the row-wise parse locates the bad row, or accepts what
                # csv reads but loadtxt does not (quoted cells, short rows)
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                timestamps, values = _parse_rows(reader, t_col, v_col, path)
            else:
                timestamps, values = body.T.copy()  # two contiguous rows
    except (OSError, UnicodeDecodeError) as exc:  # unreadable, or not UTF-8
        raise IOFailure(f"cannot read {path}: {exc}") from exc
    timestamps = np.asarray(timestamps, dtype=float)
    bits = timestamps.view(np.int64)
    same_key = [] if grids is None or bits.size < 2 else grids.setdefault(
        (bits.size, int(bits[0]), int(bits[-1])), [])
    shared = next((g for g in same_key if np.array_equal(g[0].view(np.int64), bits)), None)
    if shared is not None:
        fs = shared[1]
    else:
        deltas = np.diff(timestamps)
        fs = 1.0 / float(row_medians(deltas[None])[0]) if deltas.size and np.all(deltas > 0) else 1.0
    # TimeSeries construction runs validate_time_series and raises
    # ValidationFailed with every violation, fewer than 2 samples included
    try:
        series = TimeSeries(subject, phase, modality, timestamps, values, fs)
    except ValidationFailed as exc:
        raise ValidationFailed(exc.violations, path) from None
    if shared is not None:  # the same bits, so drop the constructor's copy
        object.__setattr__(series, "timestamps", shared[0])
    else:
        same_key.append((series.timestamps, fs))
    return series


def _parse_rows(reader, t_col: int, v_col: int, path):
    """Row-by-row parse of the body; raises NonNumericCell(row number, path)."""
    timestamps, values = [], []
    for i, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            timestamps.append(float(row[t_col]))
            values.append(float(row[v_col]))
        except (ValueError, IndexError):
            raise NonNumericCell(i, path) from None
    return timestamps, values


def write_csv_signal(series: TimeSeries, path, precision: int = 12, *,
                     grids: dict | None = None):
    """Serialize back to the CSV contract (inverse of load, up to formatting).

    Each chunk of ``WRITE_CHUNK_ROWS`` rows is one bytes ``%`` format call
    over the chunk's values alone, applied to an ASCII row template whose
    timestamps are already formatted (``b"0,%.12g\\n0.004,%.12g\\n..."``),
    and written to the file opened in binary mode.  Every cell gets the
    same ``%.{precision}g`` spec on the same float, in file order, bytes
    ``%g`` formats as str ``%g`` does, and ``%g`` output never holds a
    ``%``, so the bytes are those of formatting each row on its own.  The
    header row is made by ``csv.writer``, so its quoting is csv's.

    ``grids`` memoises the templates of each timestamp grid, so files that
    share a grid format its timestamps once.  It belongs to the caller, who
    passes one dict to every write that may share grids and drops it after;
    ``None`` uses a fresh dict.  Grids are compared bit for bit (``-0.0``
    and ``0.0`` format differently), together with the chunk size and
    precision the templates were made for.
    """
    path = Path(path)
    starts = range(0, len(series), WRITE_CHUNK_ROWS)
    ts = series.timestamps
    key = (WRITE_CHUNK_ROWS, precision, ts.tobytes())
    grids = {} if grids is None else grids
    if key not in grids:
        row = f"%.{precision}g,%%.{precision}g\n".encode("ascii")
        grids[key] = tuple(row * len(chunk) % tuple(chunk.tolist())
                           for chunk in (ts[s:s + WRITE_CHUNK_ROWS] for s in starts))
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(["timestamp", series.modality.name])
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            fh.write(header.getvalue().encode("utf-8"))
            for start, template in zip(starts, grids[key]):
                values = series.values[start:start + WRITE_CHUNK_ROWS]
                fh.write(template % tuple(values.tolist()))
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}") from exc


def write_rows(path, header, rows):
    """Write ``header`` and then each of ``rows`` as one UTF-8 CSV record
    ending in ``\n``; raises IOFailure when the file cannot be written."""
    path = Path(path)
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}") from exc


@dataclass(frozen=True)
class AcquisitionResult:
    bundle: SubjectBundle
    #: subjects dropped because a requested modality was missing in some phase
    excluded_subjects: tuple[str, ...] = ()


def acquire(index: DatasetIndex, signal_types, strict: bool = False) -> AcquisitionResult:
    """Load every indexed series whose modality was requested.

    A subject missing any requested modality in any of its phases is
    excluded and reported (or escalated to an error in strict mode),
    mirroring how incomplete subjects are dropped from study datasets.
    A requested modality that no indexed file has raises EmptyDataset.

    Series on one clock share one timestamp array: the call passes one
    ``grids`` dict to every :func:`load_csv_signal`, so each bitwise-equal
    grid is held once, read-only, for the bundle; two calls share nothing.
    """
    wanted = [canonical_name(m) for m in signal_types]
    if not wanted:
        raise EmptyDataset("no signal types requested")
    found = sorted({mod.name for files in index.subjects.values() for _, mod, _ in files})
    absent = [m for m in wanted if m not in found]
    if absent:
        raise EmptyDataset(f"no file has the requested modalities {absent} "
                           f"(the files have {', '.join(found)})")
    entries = {}
    excluded = []
    grids = {}
    for subject, files in sorted(index.subjects.items()):
        phases = sorted({phase for phase, _, _ in files})
        have = {(phase, mod.name) for phase, mod, _ in files}
        complete = all((phase, m) in have for phase in phases for m in wanted)
        if not complete:
            excluded.append(subject)
            continue
        series = [
            load_csv_signal(path, modality, subject, phase, grids=grids)
            for phase, modality, path in files
            if modality.name in wanted
        ]
        entries[subject] = tuple(series)
    if strict and excluded:
        raise MissingReport(f"subjects missing requested modalities: {excluded}")
    if not entries:
        raise EmptyDataset("no subject has all requested modalities")
    return AcquisitionResult(SubjectBundle(entries), tuple(excluded))
