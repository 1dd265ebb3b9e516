"""Exception types of the resilience layer.

Kept dependency-free so any layer can raise them without import cycles.
"""

from __future__ import annotations


class CheckpointMismatchError(RuntimeError):
    """A checkpoint file belongs to a different config/seed schedule.

    Resuming a sweep against a checkpoint recorded under different
    parameters would silently mix incompatible results; the hash check
    turns that into a loud error.
    """
