"""Exception types for the :mod:`repro` library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(ReproError):
    """A truth table / function had an unexpected number of variables."""


class OrderingError(ReproError):
    """A variable ordering was malformed (wrong length, duplicates, ...)."""


class ParseError(ReproError):
    """A Boolean expression / DNF / CNF string could not be parsed."""


class EvaluationError(ReproError):
    """A function representation could not be evaluated on an assignment."""


class BudgetExceeded(ReproError):
    """A governed run exhausted its :class:`repro.core.budget.Budget`.

    Raised only at well-defined boundaries (a DP layer boundary, a window
    boundary, a degradation-ladder rung), never mid-kernel, so the
    process state at the moment of the raise is always resumable.  The
    exception records how far the run got:

    ``reason``
        Which limit tripped: ``"deadline"``, ``"cancelled"``,
        ``"frontier_entries"`` or ``"frontier_bytes"``.
    ``elapsed_seconds``
        Wall-clock since the budget was armed.
    ``layers_completed``
        DP layers fully committed before the abort (sweeps only).
    ``best_bound``
        Best size bound established so far: for an aborted exact sweep a
        *lower* bound on the optimum (the cheapest frontier state); for
        an aborted window sweep the best *achieved* total so far.
    ``best_order``
        Best complete ordering found so far, when one exists (window
        sweeps and ladder rungs; ``None`` for an aborted exact DP).
    ``checkpoint_path``
        The last durably committed checkpoint file when the governed run
        had ``checkpoint_dir`` set — a later resume with a larger (or no)
        budget continues from it bit-identically.
    ``where``
        Human-readable boundary description (e.g. ``"layer boundary"``).
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "deadline",
        elapsed_seconds=None,
        layers_completed=None,
        best_bound=None,
        best_order=None,
        checkpoint_path=None,
        where: str = "layer boundary",
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.elapsed_seconds = elapsed_seconds
        self.layers_completed = layers_completed
        self.best_bound = best_bound
        self.best_order = best_order
        self.checkpoint_path = checkpoint_path
        self.where = where


class CheckpointError(ReproError):
    """A sweep checkpoint could not be loaded: the file was truncated or
    corrupted (checksum mismatch), or it was written by a sweep with a
    different configuration (fingerprint mismatch).  The message always
    names the offending file; a resume never proceeds silently past one."""


class ServeError(ReproError):
    """A request to the ``repro serve`` daemon failed.

    Raised client-side (:class:`repro.serve.ServeClient`) when the
    server answers with ``ok: false``; carries the HTTP-style ``status``
    the server assigned (400 malformed request, 429 queue full, 503
    draining/cancelled, 504 budget exhausted, 500 internal)."""

    def __init__(self, message: str, *, status: int = 500) -> None:
        super().__init__(message)
        self.status = status


class CacheError(ReproError):
    """A result-cache entry was unusable: a damaged on-disk file (checksum
    or fingerprint mismatch) or a stored payload inconsistent with the
    function it claims to describe.  Like checkpoints, cache entries are
    never silently skipped — the message names the offending file or key."""
