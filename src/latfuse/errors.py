"""Exception types shared across the package."""


class LatticeError(Exception):
    """Base class for lattice domain errors."""


class PathCountExceededError(LatticeError):
    """Exhaustive path enumeration was requested but the lattice is too large.

    Callers should fall back to best-path or n-best decoding.
    """

    def __init__(self, count, limit):
        super().__init__(f"lattice has {count} complete paths, limit is {limit}")
        self.count = count
        self.limit = limit


class FormatError(Exception):
    """A text input file could not be parsed.

    Carries the file name (or stream label) and the 1-based line number of
    the offending line.
    """

    def __init__(self, source, line_no, message):
        super().__init__(f"{source}:{line_no}: {message}")
        self.source = source
        self.line_no = line_no
