"""Edge and ground-truth file formats.

Edge files are delimiter-separated text: a header row naming the fixed
columns (user, node, day) followed by one 0/1 column per signal in
registry order, then one row per transaction. Ground truth is a small
JSON document. Both formats round-trip exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import EdgeFileError
from .model import SignalId, TransactionEdge
from .scenario import GroundTruth

_FIXED_COLUMNS = ("user", "node", "day")
_MAX_REPORTED_LINES = 10


def write_edge_file(
    path: str | Path,
    edges: Iterable[TransactionEdge],
    signals: Sequence[SignalId],
) -> int:
    """Write edges under the given signal column order; returns row count."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(_FIXED_COLUMNS) + list(signals))
        for edge in edges:
            row = [edge.user, edge.node, edge.day]
            hits = edge.hits
            row.extend(1 if hits.get(s) else 0 for s in signals)
            writer.writerow(row)
            count += 1
    return count


def read_edge_file(path: str | Path) -> tuple[list[SignalId], list[TransactionEdge]]:
    """Parse an edge file; returns (signal column order, edges).

    Malformed rows do not abort the scan one at a time: the reader keeps
    going and reports every offending line number (capped) in one error.
    """
    path = Path(path)
    try:
        fh = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise EdgeFileError(f"cannot open edge file {path}: {exc}") from exc
    with fh:
        try:
            return _parse_edges(path, csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise EdgeFileError(f"{path}: unreadable edge file: {exc}") from exc


def _parse_edges(
    path: Path, reader: Iterator[list[str]]
) -> tuple[list[SignalId], list[TransactionEdge]]:
    try:
        header = next(reader)
    except StopIteration:
        raise EdgeFileError(f"{path}: empty file, expected a header row") from None
    if tuple(header[:3]) != _FIXED_COLUMNS:
        raise EdgeFileError(
            f"{path}: header must start with user,node,day; got {header[:3]}"
        )
    signals = header[3:]
    if len(set(signals)) != len(signals):
        raise EdgeFileError(f"{path}: duplicate signal columns in header")
    width = len(header)
    edges: list[TransactionEdge] = []
    bad: list[str] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        problem = None
        if len(row) != width:
            problem = f"expected {width} fields, got {len(row)}"
        else:
            user, node, day_text = row[0], row[1], row[2]
            if not user or not node:
                problem = "empty user or node id"
            else:
                try:
                    day = int(day_text)
                except ValueError:
                    problem = f"day {day_text!r} is not an integer"
                else:
                    if day < 0:
                        problem = f"day {day} is negative"
        if problem is None:
            hits: dict[SignalId, int] = {}
            for signal, bit_text in zip(signals, row[3:]):
                if bit_text == "1":
                    hits[signal] = 1
                elif bit_text != "0":
                    problem = f"bit for {signal!r} must be 0 or 1, got {bit_text!r}"
                    break
        if problem is not None:
            bad.append(f"line {line_no}: {problem}")
            if len(bad) > _MAX_REPORTED_LINES:
                break
            continue
        edges.append(TransactionEdge(user=user, node=node, day=day, hits=hits))
    if bad:
        shown = bad[:_MAX_REPORTED_LINES]
        suffix = "" if len(bad) <= _MAX_REPORTED_LINES else "; more follow"
        raise EdgeFileError(f"{path}: malformed rows: " + "; ".join(shown) + suffix)
    return signals, edges


def write_ground_truth(path: str | Path, truth: GroundTruth) -> None:
    payload = {
        "sybil_users": sorted(truth.sybil_users),
        "cashout_nodes": sorted(truth.cashout_nodes),
        "carriers": {s: sorted(users) for s, users in sorted(truth.carriers.items())},
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_ground_truth(path: str | Path) -> GroundTruth:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise EdgeFileError(f"cannot open ground truth {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EdgeFileError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return GroundTruth(
            sybil_users=frozenset(payload["sybil_users"]),
            cashout_nodes=frozenset(payload["cashout_nodes"]),
            carriers={
                s: frozenset(users) for s, users in payload["carriers"].items()
            },
        )
    except (KeyError, TypeError) as exc:
        raise EdgeFileError(f"{path}: malformed ground truth: {exc}") from exc
