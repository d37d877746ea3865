"""Shared exception types."""


class ResourceLimitError(RuntimeError):
    """An input exceeds the desk-scale guards of a brute-force routine."""


class ModelInconsistencyError(RuntimeError):
    """The string-rank recursion produced a negative rank; the instance is recorded."""

    def __init__(self, n, q, partition, base, contributions):
        self.n = n
        self.q = q
        self.partition = partition
        self.base = base
        self.contributions = contributions
        super().__init__(
            "negative rank for partition %s at n=%d, gcd=%d: (r-1)! = %d, contributions %r"
            % (partition, n, q, base, contributions)
        )
