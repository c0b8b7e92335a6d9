"""Shared error taxonomy for the toolkit."""


class MPSTError(Exception):
    """Base class for all toolkit errors.  `_exit_code` is the exit code of
    `mpst` on the error: 1 for a negative verdict, 2 for malformed input or
    usage, 3 for a blown resource cap."""

    _exit_code = 2


class ParseError(MPSTError):
    def __init__(self, msg, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            msg = f"{line}:{col}: {msg}"
        super().__init__(msg)


class MergeFailure(MPSTError):
    """Merge (⊔) undefined; carries the label path to the first conflict."""

    _exit_code = 1

    def __init__(self, msg, path=()):
        self.path = tuple(path)
        if self.path:
            msg = f"{msg} (at {'/'.join(self.path)})"
        super().__init__(msg)


class NotBasic(MPSTError):
    _exit_code = 1


class NotCompatible(MPSTError):
    _exit_code = 1


class SynthesisFailure(MPSTError):
    _exit_code = 1


class ChoiceOwnership(MPSTError):
    _exit_code = 1


class NotSessionCompatible(MPSTError):
    _exit_code = 1


class ResourceLimit(MPSTError):
    _exit_code = 3
