"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed input file content.

    Carries the 1-based line number when the failure is tied to a line.
    """

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class DataError(ValueError):
    """Inputs parsed fine but violate a structural requirement."""
