"""Exception types raised across the package."""


class VarsearchError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(VarsearchError):
    """A model configuration violates one or more invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class RankDeficientError(VarsearchError):
    """The design matrix is numerically rank deficient."""

    def __init__(self, detected_rank, n_columns):
        self.detected_rank = detected_rank
        self.n_columns = n_columns
        super().__init__(
            f"design matrix is rank deficient: detected rank {detected_rank} "
            f"of {n_columns} columns"
        )


class HQCUndefinedError(VarsearchError):
    """HQC needs ln(ln(T')) > 0, i.e. an effective sample larger than e."""


class NumericOverflowError(VarsearchError):
    """Sums of squares of the data overflow float64."""

    def __init__(self):
        super().__init__(
            "sums of squares of the data overflow float64; rescale the observations"
        )


class EmptySpaceError(VarsearchError):
    """No valid configuration exists in the requested search space."""


class TooLargeError(VarsearchError):
    """The search space cannot be enumerated within the given budget."""


class UnstableError(VarsearchError):
    """Generator coefficients describe an explosive process."""

    def __init__(self, radius):
        self.radius = radius
        super().__init__(f"companion spectral radius {radius:.6f} >= 0.999")


class ForecastInputError(VarsearchError):
    """Missing or malformed future exogenous values."""


class CsvError(VarsearchError):
    """Base class for CSV ingestion failures."""


class EmptyCsvError(CsvError):
    pass


class DuplicateNameError(CsvError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"duplicate column name {name!r} in header")


class InvalidHeaderError(CsvError):
    def __init__(self, name):
        self.name = name
        super().__init__(
            f"column name {name!r} is not of the form [A-Za-z0-9_]+"
        )


class MissingColumnError(CsvError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"column {name!r} not present in file")


class RaggedRowError(CsvError):
    def __init__(self, row, expected, found):
        self.row = row
        self.expected = expected
        self.found = found
        super().__init__(
            f"row {row} has {found} cells, expected {expected}"
        )


class NonNumericCellError(CsvError):
    def __init__(self, row, column, text):
        self.row = row
        self.column = column
        self.text = text
        super().__init__(
            f"cell at row {row}, column {column!r} is not a finite decimal "
            f"numeral: {text!r}"
        )
