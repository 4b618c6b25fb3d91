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
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import EdgeFileError
from .model import EdgeColumns, IdCodes, SignalId, TransactionEdge
from .scenario import GroundTruth

_FIXED_COLUMNS = ("user", "node", "day")
_MAX_REPORTED_LINES = 10
_CHUNK_CHARS = 1 << 18
_INT64_MAX = 2**63 - 1


def write_edge_file(
    path: str | Path,
    edges: EdgeColumns | Iterable[TransactionEdge],
    signals: Sequence[SignalId],
) -> int:
    """Write edges under the given signal column order; returns row count.
    Raises ``UnknownSignalError`` for a hit on a signal outside ``signals``
    and ``ValueError`` for repeated or empty signal names."""
    if len(set(signals)) != len(signals) or "" in signals:
        raise ValueError(f"signal columns must be distinct and non-empty: {signals!r}")
    columns = EdgeColumns.from_edges(edges, signals)
    bits = columns.hits_under(signals).view(np.uint8).tolist()
    users = list(map(columns.users.__getitem__, columns.user_code.tolist()))
    nodes = list(map(columns.nodes.__getitem__, columns.node_code.tolist()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*_FIXED_COLUMNS, *signals])
        writer.writerows(zip(users, nodes, columns.day.tolist(), *bits))
    return len(columns)


def read_edge_file(path: str | Path) -> tuple[list[SignalId], EdgeColumns]:
    """Parse an edge file; returns (signal column order, edge columns).

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
            if fh.seekable():
                parsed = _split_columns(fh)
                if parsed is not None:
                    return parsed
                fh.seek(0)
            return _parse_edges(path, csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise EdgeFileError(f"{path}: unreadable edge file: {exc}") from exc


def _split_columns(fh: TextIO) -> tuple[list[SignalId], EdgeColumns] | None:
    """Read the file in chunks, check each chunk's whole lines at once on
    their UTF-8 bytes, and split them with ``str.split``.

    Returns None at the first chunk that holds anything the row parser
    could read differently (a quote, a carriage return, a NUL, a line of
    more bytes than the csv field limit, undecodable bytes) or an invalid
    row. The row parser then reads the file again and reports what it
    finds.
    """
    limit = csv.field_size_limit()
    users, nodes = IdCodes(), IdCodes()
    day_of: dict[str, int] = {}
    parts: list[list[np.ndarray]] = []  # user, node, day and hit chunks
    signals: list[SignalId] | None = None
    carry = ""
    try:
        while True:
            chunk = fh.read(_CHUNK_CHARS)
            if '"' in chunk or "\r" in chunk or "\x00" in chunk:
                return None
            # The block holds whole lines, each ending in a newline.
            block = carry + chunk
            if chunk:
                cut = block.rfind("\n") + 1
                block, carry = block[:cut], block[cut:]
                if len(carry) > limit:
                    return None
            elif block:
                block += "\n"
            if signals is None and block:
                header_line, _, block = block.partition("\n")
                header = header_line.split(",")
                signals = header[3:]
                if len(header_line) > limit or tuple(header[:3]) != _FIXED_COLUMNS \
                        or len(set(signals)) != len(signals) or "" in signals:
                    return None
                width = len(header)
                empty = np.empty(0, np.int64)
                parts = [[empty], [empty], [empty], [np.empty((width - 3, 0), bool)]]
            block = block.lstrip("\n")  # blank lines
            while "\n\n" in block:
                block = block.replace("\n\n", "\n")
            if block:
                part = _split_block(block, width, limit, day_of)
                if part is None:
                    return None
                user_col, node_col, days, hits = part
                parts[0].append(users.encode(user_col))
                parts[1].append(nodes.encode(node_col))
                parts[2].append(days)
                parts[3].append(hits)
            if not chunk:
                break
    except UnicodeDecodeError:
        return None
    if signals is None:
        return None
    user_code, node_code, day = (np.concatenate(column) for column in parts[:3])
    return signals, EdgeColumns(signals, users.ids(), user_code, nodes.ids(),
                                node_code, day, np.concatenate(parts[3], axis=1))


def _split_block(block: str, width: int, limit: int, day_of: dict[str, int]
                 ) -> tuple | None:
    """(users, nodes, int64 days, bool hits) of ``block``'s lines, each
    non-blank and ending in a newline, or None unless every line is a
    valid row that the row parser reads the same way. ``day_of`` caches
    the value of each day text seen so far."""
    data = np.frombuffer(block.encode("utf-8"), np.uint8)
    newline = data == ord("\n")
    n = np.count_nonzero(newline)
    # The field ends, commas and newlines: when every width-th one is a
    # newline, each line holds width - 1 commas.
    ends = np.flatnonzero(newline | (data == ord(",")))
    if len(ends) != n * width or not newline[ends[width - 1::width]].all():
        return None
    size = (np.diff(ends, prepend=-1) - 1).reshape(n, width)  # bytes per field
    bits = data[ends.reshape(n, width)[:, 2:-1] + 1]  # the byte of each bit field
    if (size.sum(axis=1) + width - 1).max() > limit or size[:, :2].min() < 1 \
            or not (size[:, 3:] == 1).all() \
            or not ((bits == ord("0")) | (bits == ord("1"))).all():
        return None
    fields = block[:-1].replace("\n", ",").split(",")
    day_col = fields[2::width]
    for text in dict.fromkeys(day_col):
        if text not in day_of:
            try:
                day = int(text)
            except ValueError:
                return None
            if not 0 <= day <= _INT64_MAX:
                return None
            day_of[text] = day
    days = np.fromiter(map(day_of.__getitem__, day_col), np.int64, n)
    return fields[0::width], fields[1::width], days, (bits == ord("1")).T


def _parse_edges(
    path: Path, reader: Iterator[list[str]]
) -> tuple[list[SignalId], EdgeColumns]:
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
    if "" in signals:
        raise EdgeFileError(f"{path}: empty signal column name in header")
    width = len(header)
    users: list[str] = []
    nodes: list[str] = []
    days: list[int] = []
    hit_at: list[tuple[int, int]] = []  # (signal index, row) per hit bit
    bad: list[str] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        problem = None
        if len(row) != width:
            problem = f"expected {width} fields, got {len(row)}"
        elif not row[0] or not row[1]:
            problem = "empty user or node id"
        else:
            try:
                day = int(row[2])
            except ValueError:
                problem = f"day {row[2]!r} is not an integer"
            else:
                if day < 0:
                    problem = f"day {day} is negative"
                elif day > _INT64_MAX:
                    problem = f"day {day} exceeds 2**63 - 1"
        bits = row[3:]
        if problem is None:
            for signal, bit in zip(signals, bits):
                if bit != "0" and bit != "1":
                    problem = f"bit for {signal!r} must be 0 or 1, got {bit!r}"
                    break
        if problem is not None:
            bad.append(f"line {line_no}: {problem}")
            if len(bad) > _MAX_REPORTED_LINES:
                break
            continue
        hit_at += [(k, len(days)) for k, bit in enumerate(bits) if bit == "1"]
        users.append(row[0])
        nodes.append(row[1])
        days.append(day)
    if bad:
        shown = bad[:_MAX_REPORTED_LINES]
        suffix = "" if len(bad) <= _MAX_REPORTED_LINES else "; more follow"
        raise EdgeFileError(f"{path}: malformed rows: " + "; ".join(shown) + suffix)
    return signals, EdgeColumns.from_rows(signals, users, nodes, days, hit_at)


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
