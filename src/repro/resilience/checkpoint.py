"""Checkpoint/resume for experiment sweeps.

Long Monte-Carlo sweeps die mid-run — OOM kills, preemptions, ^C — and
without checkpoints everything already computed is lost.  This module
gives the experiment suite, ``paper-table`` and ``verify`` a shared,
minimal persistence layer:

* a **checkpoint file** is JSON lines: a header record carrying a
  ``key`` (the :func:`config_hash` of the run's config + seed
  schedule) followed by one record per completed *unit* of work;
* every completed unit triggers an **atomic rewrite** (temp file +
  ``os.replace``), so a SIGKILL at any instant leaves either the
  previous complete checkpoint or the new one — never a torn file;
* **resume** refuses a checkpoint whose key does not match the current
  config (:class:`~repro.resilience.errors.CheckpointMismatchError`);
  matching units are returned from the file instead of re-run, so an
  interrupted sweep restarts at the first incomplete unit and — because
  every unit is a pure function of the config and seeds — produces
  byte-identical results to an uninterrupted run.

Unit payloads must round-trip through JSON unchanged (plain dicts,
lists, strings, numbers, bools) — exactly the record tables the
experiments already produce.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from .. import obs as _obs
from .atomic import atomic_write
from .errors import CheckpointMismatchError

PathLike = Union[str, Path]

CHECKPOINT_VERSION = 1


def config_hash(config: Any) -> str:
    """A short stable hash of a JSON-able config (sorted keys)."""
    payload = json.dumps(config, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class Checkpoint:
    """A file-backed store of completed work units for one run config.

    Args:
        path: the checkpoint file (JSON lines).
        key: the run's :func:`config_hash`; recorded in the header and
            verified on resume.
        resume: when True, an existing file with a matching key is
            loaded and its units served from cache; a mismatched key
            raises :class:`CheckpointMismatchError`.  When False, any
            existing file is discarded and a fresh checkpoint started.
    """

    def __init__(self, path: PathLike, key: str, resume: bool = False) -> None:
        self.path = Path(path)
        self.key = key
        self._units: Dict[str, Any] = {}
        self._order: List[str] = []
        self.resumed = False
        self.created_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        if resume and self.path.exists():
            self._load()
            self.resumed = True
        self._write()  # materialize the header (and any loaded units)

    # -- persistence -----------------------------------------------------
    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        if not lines:
            return
        header = json.loads(lines[0])
        if header.get("type") != "checkpoint" or "key" not in header:
            raise CheckpointMismatchError(
                f"{self.path} is not a checkpoint file (bad header)"
            )
        if header["key"] != self.key:
            raise CheckpointMismatchError(
                f"checkpoint {self.path} was recorded for config key "
                f"{header['key']!r} but this run hashes to {self.key!r}; "
                "refusing to resume across different configs/seed schedules"
            )
        self.created_utc = header.get("created_utc", self.created_utc)
        for line in lines[1:]:
            record = json.loads(line)
            if record.get("type") != "unit":
                continue
            name = record["name"]
            if name not in self._units:
                self._order.append(name)
            self._units[name] = record["payload"]

    def _write(self) -> None:
        header = {
            "type": "checkpoint",
            "version": CHECKPOINT_VERSION,
            "key": self.key,
            "created_utc": self.created_utc,
        }
        with atomic_write(self.path) as handle:
            handle.write(json.dumps(header) + "\n")
            for name in self._order:
                record = {"type": "unit", "name": name, "payload": self._units[name]}
                handle.write(json.dumps(record) + "\n")

    # -- unit store ------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._units

    def get(self, name: str) -> Any:
        return self._units[name]

    def record(self, name: str, payload: Any) -> None:
        """Store one completed unit and atomically persist the file."""
        if name not in self._units:
            self._order.append(name)
        self._units[name] = payload
        self._write()

    @property
    def completed(self) -> List[str]:
        return list(self._order)

    def lineage(self) -> Dict[str, Any]:
        """Provenance summary for the run manifest."""
        return {
            "path": str(self.path),
            "key": self.key,
            "resumed": self.resumed,
            "created_utc": self.created_utc,
            "cached_units": len(self._units),
        }


class CheckpointContext:
    """What experiment code consumes: ``ctx.unit(name, thunk)``.

    With no checkpoint attached (the default), ``unit`` just runs the
    thunk — zero overhead, no behavior change, nothing counted.  With a
    checkpoint, a completed unit is served from the file (counted as a
    hit, metric ``checkpoint.units_cached``) and a fresh unit is executed
    then persisted (counted as a miss, metric ``checkpoint.units_run``).
    """

    def __init__(self, checkpoint: Optional[Checkpoint] = None) -> None:
        self.checkpoint = checkpoint
        self.hits = 0
        self.misses = 0

    @property
    def active(self) -> bool:
        return self.checkpoint is not None

    def unit(self, name: str, thunk: Callable[[], Any]) -> Any:
        """Run (or recall) one named unit of work."""
        checkpoint = self.checkpoint
        if checkpoint is None:
            return thunk()
        if name in checkpoint:
            self.hits += 1
            _obs.current().metrics.inc("checkpoint.units_cached")
            return checkpoint.get(name)
        value = thunk()
        checkpoint.record(name, value)
        self.misses += 1
        _obs.current().metrics.inc("checkpoint.units_run")
        return value

    def lineage(self) -> Optional[Dict[str, Any]]:
        if self.checkpoint is None:
            return None
        summary = self.checkpoint.lineage()
        summary["cache_hits"] = self.hits
        summary["cache_misses"] = self.misses
        return summary


#: Shared inactive context: ``unit`` runs every thunk directly.
NULL_CHECKPOINT = CheckpointContext(None)

