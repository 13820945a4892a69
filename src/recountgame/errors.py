"""Exception hierarchy shared by all recountgame modules.  Each class names
the ``kind`` the command line reports for it and its ``exit_code``."""


class GameError(Exception):
    """Base class for all errors raised by this package; raised as itself
    only when a solver's own answer fails its check: a witness that does not
    replay (the command line's replay, the PV attacker's transfer witness) or
    a defender scan that finds no achievable winner.  Either is a bug, so it
    is raised whatever Python's ``-O`` flag says."""

    kind = "internal"
    exit_code = 5


class ValidationError(GameError):
    """An election, manipulation or instance file violates an invariant.

    ``violations`` holds the structured list produced by
    :func:`recountgame.model.validate_manipulation` when available.
    """

    kind = "invalid-input"
    exit_code = 2

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations else []


class ResourceLimitError(GameError):
    """An exhaustive search exceeded its fixed state or node cap; the command
    line reports a ``MemoryError`` as this kind too."""

    kind = "resource-limit"
    exit_code = 3


class UnsupportedError(GameError):
    """A precondition failed or an unsupported option combination was asked."""

    kind = "unsupported"
    exit_code = 4
