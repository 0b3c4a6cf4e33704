"""Correctness side of the benchmark: digests, exact counts, failures.

Every simulated run is reduced to a :class:`RunRecord`: the sha256 of its
normalized ``RunSummary`` plus three counts that must repeat exactly
(engine events, link crossings, session messages) and its unrecovered
loss count.  A record *fails* when the run raised, when its digest or
counts differ from the reference, or when it left unrecovered a loss the
reference recovered.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterable

#: The ``RunSummary`` fields that describe simulated behaviour.  An
#: allow-list, so host-dependent fields a later build adds (timings,
#: ledgers, RSS) stay out of the digest without an edit here.
#: ``wall_time`` (host time), ``obs`` (tracing output) and ``schema`` (a
#: wire-format version, not behaviour) are deliberately absent.
DIGEST_FIELDS = (
    "protocol",
    "trace_name",
    "config",
    "receivers",
    "source",
    "rtt_to_source",
    "sends",
    "losses_detected",
    "recoveries",
    "duplicate_replies",
    "undetected_recoveries",
    "late_arrivals",
    "unrecovered_counts",
    "unrecovered_seqs",
    "overhead",
    "crossings",
    "n_packets",
    "total_losses",
    "sim_time",
    "events_processed",
    "faults",
    "workload",
    "cache",
    "churn",
)

#: Config keys that name *how* a run was computed, not what it computed
#: (the forwarding kernel is byte-identical by contract).
HOST_CONFIG_KEYS = ("kernel",)


def normalize(summary: dict[str, Any]) -> dict[str, Any]:
    """The behavioural part of a ``RunSummary.to_dict()`` payload."""
    data = {
        key: summary[key]
        for key in DIGEST_FIELDS
        if summary.get(key) is not None
    }
    config = dict(data.get("config", {}))
    for key in HOST_CONFIG_KEYS:
        config.pop(key, None)
    data["config"] = config
    return data


def summary_digest(summary: dict[str, Any]) -> str:
    payload = json.dumps(normalize(summary), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def sends_of_kind(summary: dict[str, Any], kind: str) -> int:
    return sum(count for _host, k, _cast, count in summary["sends"] if k == kind)


@dataclass(frozen=True)
class RunRecord:
    run_id: str
    digest: str = ""
    events: int = 0
    crossings: int = 0
    session_msgs: int = 0
    unrecovered: int = 0
    error: str = ""

    @classmethod
    def from_summary(cls, run_id: str, summary: dict[str, Any]) -> "RunRecord":
        return cls(
            run_id=run_id,
            digest=summary_digest(summary),
            events=summary["events_processed"],
            crossings=sum(count for _kind, _cast, count in summary["crossings"]),
            session_msgs=sends_of_kind(summary, "session"),
            unrecovered=sum(summary["unrecovered_counts"].values()),
        )

    @classmethod
    def failed(cls, run_id: str, error: str) -> "RunRecord":
        return cls(run_id=run_id, error=error)

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        del data["run_id"], data["error"]
        return data


def failure(record: RunRecord, reference: dict[str, dict[str, Any]]) -> str:
    """Why ``record`` fails against ``reference`` ("" when it passes)."""
    if record.error:
        return record.error
    expected = reference.get(record.run_id)
    if expected is None:
        return f"{record.run_id}: no reference"
    if record.unrecovered > expected["unrecovered"]:
        return (
            f"{record.run_id}: {record.unrecovered} unrecovered losses, "
            f"reference {expected['unrecovered']}"
        )
    for key in ("events", "crossings", "session_msgs"):
        if getattr(record, key) != expected[key]:
            return (
                f"{record.run_id}: {key} {getattr(record, key)} drifted "
                f"from {expected[key]}"
            )
    if record.digest != expected["digest"]:
        return f"{record.run_id}: digest differs from the reference"
    return ""


def reference_of(records: Iterable[RunRecord]) -> dict[str, dict[str, Any]]:
    return {record.run_id: record.to_dict() for record in records}


class ReferenceFile:
    """Committed per-run references, keyed workload -> seed -> run id."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def get(self, workload: str, seed: int) -> dict[str, dict[str, Any]] | None:
        return self.data.get("workloads", {}).get(workload, {}).get(str(seed))

    def put(self, workload: str, seed: int, runs: dict[str, dict[str, Any]]) -> None:
        self.data.setdefault("workloads", {}).setdefault(workload, {})[
            str(seed)
        ] = runs
        self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True) + "\n")
