"""Exception hierarchy shared across the pipeline stages."""


class AffectPipeError(Exception):
    """Base class for all framework errors."""


# --- dataset / acquisition ---

class EmptyDataset(AffectPipeError):
    pass


class IOFailure(AffectPipeError):
    pass


def _in(path):
    """`` in {path}``, the end of a message about a file's content; empty
    when no path is given."""
    return "" if path is None else f" in {path}"


class MissingHeader(AffectPipeError):
    def __init__(self, name, path=None):
        super().__init__(f"missing required CSV header: {name!r}{_in(path)}")
        self.name = name


class NonNumericCell(AffectPipeError):
    def __init__(self, row, path=None):
        super().__init__(f"non-numeric cell at data row {row}{_in(path)}")
        self.row = row


class ValidationFailed(AffectPipeError):
    def __init__(self, violations, path=None):
        super().__init__("; ".join(str(v) for v in violations) + _in(path))
        self.violations = list(violations)


class DuplicateSignalFile(AffectPipeError):
    pass


class UnknownModality(AffectPipeError):
    pass


# --- pipeline construction / execution ---

class IncompatibleStages(AffectPipeError):
    def __init__(self, i, j, got, wanted, kind, next_kind):
        super().__init__(f"stage {i} ({kind}) output {got!r} is incompatible "
                         f"with stage {j} ({next_kind}) input {wanted!r}")
        self.index = i
        self.next_index = j
        self.got = got
        self.wanted = wanted


class MissingStage(AffectPipeError):
    def __init__(self, kind):
        super().__init__(f"required stage missing: {kind}")
        self.kind = kind


class StageExecutionError(AffectPipeError):
    def __init__(self, stage_index, kind, cause):
        super().__init__(f"stage {stage_index} ({kind}) failed: {cause}")
        self.stage_index = stage_index
        self.kind = kind


# --- signal processing ---

class CutoffOutOfRange(AffectPipeError):
    pass


class InvalidOrder(AffectPipeError):
    pass


class SampleRateMismatch(AffectPipeError):
    pass


class PreprocessingFailed(AffectPipeError):
    """Every series whose chain failed, as (subject, phase, modality, error)."""

    def __init__(self, failures):
        super().__init__("; ".join(f"{s}/{p}/{m}: {e}" for s, p, m, e in failures))
        self.failures = list(failures)


# --- feature extraction ---

class CatalogError(AffectPipeError, ValueError):
    """A feature catalog that cannot run: found when the extractor is built."""


class SeriesTooShort(AffectPipeError):
    pass


class NoBeatsDetected(AffectPipeError):
    pass


class TooFewBeats(AffectPipeError):
    pass


class DegenerateSpectrum(AffectPipeError):
    pass


class TooFewSamples(AffectPipeError):
    pass


class NoBreathsDetected(AffectPipeError):
    pass


class SampleRateTooLow(AffectPipeError):
    pass


# --- labels / selection ---

class UnmappedPhase(AffectPipeError):
    def __init__(self, name):
        super().__init__(f"phase {name!r} has no class mapping")
        self.name = name


class WrongQuestionnaire(AffectPipeError):
    pass


class InsufficientReports(AffectPipeError):
    def __init__(self, subject):
        super().__init__(f"subject {subject!r} needs reports for at least 2 phases")
        self.subject = subject


class MissingReport(AffectPipeError):
    pass


class AllRowsDropped(AffectPipeError):
    """The LabelGenerator dropped every row; the message says why."""


class KTooLarge(AffectPipeError):
    """A selection ``k`` outside 1 to column count - 1 (below 1 as well)."""


# --- classification / evaluation ---

class SingleClass(AffectPipeError):
    pass


class NonNumericFeature(AffectPipeError):
    pass


class SchemaMismatch(AffectPipeError):
    pass


class TooFewSubjects(AffectPipeError):
    pass


class TooFewRows(AffectPipeError):
    pass


class LengthMismatch(AffectPipeError):
    pass


class AUCUndefined(AffectPipeError):
    pass


# --- synthesis ---

class InvalidRate(AffectPipeError):
    pass


class SCROutOfRange(AffectPipeError):
    pass


# --- configuration ---

class ConfigError(AffectPipeError):
    pass
