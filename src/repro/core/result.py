"""Result type shared by every streaming algorithm in the library."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..streams.meter import SpaceMeter


@dataclass
class EstimateResult:
    """What a streaming counting algorithm returns.

    Attributes:
        estimate: the count estimate (triangles or four-cycles; for
            distinguishers, 0.0 / a positive value per the decision).
        passes: how many passes over the stream were used.
        space: the space meter the algorithm charged its storage to.
            ``space.peak`` is the word-count the experiments report.
        algorithm: a short stable identifier (e.g. ``"mv-triangle-ro"``).
        details: algorithm-specific diagnostics (heavy edge sets,
            per-level contributions, sample sizes, ...); its scalar
            entries are the algorithm's metrics (``skeleton.finish``).
        wall_seconds: wall-clock duration of the producing ``run()``
            (filled in by the trial engine; excluded from equality).
        telemetry: the per-trial :class:`~repro.obs.session.TrialTelemetry`
            capture when telemetry was active, else ``None`` (excluded
            from equality; carried across process boundaries so the
            parent can merge worker telemetry deterministically).
    """

    estimate: float
    passes: int
    space: SpaceMeter
    algorithm: str
    details: Dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = field(default=0.0, compare=False, repr=False)
    telemetry: Optional[Any] = field(default=None, compare=False, repr=False)

    @property
    def space_items(self) -> int:
        """Peak number of stored items (words), the paper's space measure."""
        return self.space.peak

    def relative_error(self, truth: float) -> float:
        """``|estimate - truth| / truth`` (inf when truth is 0 but estimate isn't)."""
        if truth == 0:
            return 0.0 if self.estimate == 0 else float("inf")
        return abs(self.estimate - truth) / abs(truth)

    def __repr__(self) -> str:
        return (
            f"EstimateResult(algorithm={self.algorithm!r}, "
            f"estimate={self.estimate:.6g}, passes={self.passes}, "
            f"space_items={self.space_items})"
        )
