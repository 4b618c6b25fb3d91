"""Edge and ground-truth file formats.

Edge files are delimiter-separated text: a header row naming the fixed
columns (user, node, day) followed by one 0/1 column per signal in
registry order, then one row per transaction. Ground truth is a small
JSON document. Both formats round-trip exactly.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import BinaryIO, Generator, Iterable, Iterator, Sequence

import numpy as np

from .errors import EdgeFileError
from .model import (INT64_MAX, EdgeColumns, IdCodes, SignalId, TransactionEdge,
                    read_json_object, replace_on_success, row_part, runs)
from .scenario import GroundTruth

_FIXED_COLUMNS = ("user", "node", "day")
_MAX_REPORTED_LINES = 10
_CHUNK_BYTES = 1 << 18
_PART_ROWS = 1 << 16
# The mask of the first k bytes of a little-endian 8-byte word, by k.
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)


def write_edge_file(
    path: str | Path,
    edges: EdgeColumns | Iterable[TransactionEdge],
    signals: Sequence[SignalId],
) -> int:
    """Write edges under the given signal column order; returns row count.
    Raises ``UnknownSignalError`` for a hit on a signal outside ``signals``,
    and ``ValueError`` for repeated or empty signal names or a row without
    a user (as in ``read_edge_days`` batches), before anything is written."""
    if len(set(signals)) != len(signals) or "" in signals:
        raise ValueError(f"signal columns must be distinct and non-empty: {signals!r}")
    columns = EdgeColumns.from_edges(edges, signals)
    bits = columns.hits_under(signals).view(np.uint8).tolist()
    users = columns._row_users(columns.user_code)
    nodes = list(map(columns.nodes.__getitem__, columns.node_code.tolist()))
    with replace_on_success(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*_FIXED_COLUMNS, *signals])
        writer.writerows(zip(users, nodes, columns.day.tolist(), *bits))
    return len(columns)


def read_edge_file(path: str | Path) -> tuple[list[SignalId], EdgeColumns]:
    """Parse an edge file; returns (signal column order, edge columns).

    Every row's user is coded, unlike in ``read_edge_days``, because
    ``benchmarks/replica.py`` and ``score`` take the result edge by edge.
    Its ``Sequence`` surface can go once the replica and the benchmark
    load generator's ``groupby`` over edges are gone.

    Malformed rows do not abort the scan one at a time: the reader keeps
    going and reports every offending line number (capped) in one error.
    """
    parts = _parts(Path(path))
    signals = next(parts)
    users, nodes = IdCodes(), IdCodes()
    return signals, _concat(signals, [_code(signals, users, nodes, part)
                                      for part in parts])


def read_edge_days(path: str | Path) -> tuple[list[SignalId], Iterator[EdgeColumns]]:
    """The signal column order, and an iterator over the file's days: one
    ``EdgeColumns`` per run of rows on the same day, in file order.

    The header is read at once, the rows as the iterator advances, so no
    more than a day and a chunk of the file is held at a time; each batch
    has id tables of its own. A batch codes the user of a row that carries
    a hit only: the others get user code -1, so its user table holds the
    day's hit users, and per-edge access and ``write_edge_file`` refuse
    it. Apart from that, the batches, concatenated, hold the columns that
    ``read_edge_file`` returns, and the iterator raises what it raises,
    once it reaches the row at fault. A file in day order gives one batch
    per day.
    """
    parts = _parts(Path(path))
    signals = next(parts)
    return signals, _days(signals, parts)


def _days(signals: list[SignalId], parts: Iterator[tuple]) -> Iterator[EdgeColumns]:
    """``parts`` cut at each change of day, and coded and joined within a
    day, the users of hit rows only: a split-path chunk decodes no other
    user's key."""
    held: list[EdgeColumns] = []  # the current day's pieces
    for users, nodes, day, hits in parts:
        hit = hits.any(axis=0)
        for lo, hi in runs(day):
            if held and held[0].day[0] != day[lo]:
                yield _concat(signals, held)
                held = []
            if not held:
                tables = IdCodes(), IdCodes()
            held.append(_code(signals, *tables, (users[lo:hi], nodes[lo:hi], day[lo:hi],
                                                 hits[:, lo:hi]), hit[lo:hi]))
        # The chunk's ids go before the next chunk is read.
        del users, nodes
    if held:
        yield _concat(signals, held)


def _code(signals: list[SignalId], users: IdCodes, nodes: IdCodes,
          part: tuple, coded: np.ndarray | None = None) -> EdgeColumns:
    """The (users, nodes, days, hits) ``part`` as columns coded in the id
    tables ``users`` and ``nodes``, which the columns share. Given the
    bool row mask ``coded``, the users of the other rows get code -1."""
    user, node, day, hits = part
    if coded is None:
        user_code = _encode(users, user)
    else:
        rows = np.flatnonzero(coded)
        user_code = np.full(len(day), -1, np.int64)
        user_code[rows] = _encode(users, user, rows)
    return EdgeColumns(signals, users.ids(), user_code, nodes.ids(),
                       _encode(nodes, node), day, hits)


def _encode(table: IdCodes, ids: list[str] | np.ndarray,
            rows: np.ndarray | None = None) -> np.ndarray:
    """Codes in ``table`` of ``ids``, or of ``ids[rows]``: the row parser's
    strings, or the split path's keys (see ``_keys``), of which ``table``
    gets the distinct ones only, in key order."""
    if isinstance(ids, list):
        if rows is not None:
            ids = list(map(ids.__getitem__, rows.tolist()))
        return table.encode(ids)
    distinct, inverse = np.unique(ids if rows is None else ids[rows], return_inverse=True)
    return table.encode(_texts(distinct))[inverse]


def _concat(signals: list[SignalId], parts: list[EdgeColumns]) -> EdgeColumns:
    """One batch of the rows of ``parts``, which share their id tables."""
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return EdgeColumns.from_rows(signals, [], [], [], [])
    return EdgeColumns(
        signals, parts[0].users, np.concatenate([p.user_code for p in parts]),
        parts[0].nodes, np.concatenate([p.node_code for p in parts]),
        np.concatenate([p.day for p in parts]),
        np.concatenate([p.hits for p in parts], axis=1))


def _parts(path: Path) -> Iterator:
    """Yields the signal columns, then the file's rows as (users, nodes,
    int64 days, bool hits) parts: the split path's, whose ids are keys,
    while it can read the file, and the row parser's, whose ids are
    strings, from the first line it cannot (``_encode`` codes either). A
    file that cannot seek is read by the row parser alone.

    Reading and decoding errors raise ``EdgeFileError``. The text of an
    undecodable byte is that of the row parser reading from the top.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise EdgeFileError(f"cannot open edge file {path}: {exc}") from exc
    with fh:
        seekable = fh.seekable()
        try:
            try:
                offset, line, signals = 0, 1, None
                if seekable:
                    stop = yield from _split_parts(fh)
                    if stop is None:
                        return
                    offset, line, signals = stop
                    fh.seek(offset)
                text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
                yield from _row_parts(path, csv.reader(text), signals, line)
            except UnicodeDecodeError:
                if not seekable:
                    raise
                with open(path, "r", newline="", encoding="utf-8") as text:
                    for _ in _row_parts(path, csv.reader(text)):
                        pass
                raise
        except (UnicodeDecodeError, csv.Error) as exc:
            raise EdgeFileError(f"{path}: unreadable edge file: {exc}") from exc


def _split_parts(fh: BinaryIO) -> Generator[object, None, tuple | None]:
    """Read the file in chunks and split each chunk's whole lines at once
    on their UTF-8 bytes; yields the signal columns, then one (user keys,
    node keys, int64 days, bool hits) part per chunk (see ``_split_block``).

    Stops at the first chunk that holds anything the row parser could read
    differently (a quote, a carriage return, a NUL, a line of more bytes
    than the csv field limit) or an invalid row, and returns the byte
    offset and line number of that chunk's first line, with the signals if
    it read the header; returns None once it has read the whole file.
    Undecodable bytes raise ``UnicodeDecodeError``.
    """
    limit = csv.field_size_limit()
    signals: list[SignalId] | None = None
    offset, line, carry = 0, 1, b""
    while True:
        chunk = fh.read(_CHUNK_BYTES)
        if b'"' in chunk or b"\r" in chunk or b"\x00" in chunk:
            return offset, line, signals
        # The block holds whole lines, each ending in a newline.
        block = carry + chunk
        if chunk:
            cut = block.rfind(b"\n") + 1
            block, carry = block[:cut], block[cut:]
            if len(carry) > limit:
                return offset, line, signals
        elif block:
            block += b"\n"
        if signals is None and block:
            header_line, _, block = block.partition(b"\n")
            header = header_line.decode("utf-8").split(",")
            if len(header_line) > limit or _header_problem(header):
                return offset, line, signals
            signals, width = header[3:], len(header)
            offset, line = len(header_line) + 1, 2
            yield signals
        rows = block.lstrip(b"\n")  # blank lines
        while b"\n\n" in rows:
            rows = rows.replace(b"\n\n", b"\n")
        if rows:
            part = _split_block(rows, width, limit)
            if part is None:
                return offset, line, signals
            yield part
            del part  # its keys go before the next chunk is read
        if not chunk:
            return None if signals is not None else (0, 1, None)
        offset += len(block)
        line += block.count(b"\n")


def _split_block(block: bytes, width: int, limit: int) -> tuple | None:
    """(user keys, node keys, int64 days, bool hits) of ``block``'s lines,
    each non-blank and ending in a newline, or None unless every line is a
    valid row that the row parser reads the same way. The ids stay keys
    (see ``_keys``) for ``_encode`` to decode; a day text, which must be
    ASCII digits, is decoded and converted once per distinct key."""
    data = np.frombuffer(block, np.uint8)
    newline = data == ord("\n")
    n = np.count_nonzero(newline)
    # The field ends, commas and newlines: when every width-th one is a
    # newline, each line holds width - 1 commas.
    ends = np.flatnonzero(newline | (data == ord(",")))
    if len(ends) != n * width or not newline[ends[width - 1::width]].all():
        return None
    size = (np.diff(ends, prepend=-1) - 1).reshape(n, width)  # bytes per field
    ends = ends.reshape(n, width)
    bits = data[ends[:, 2:-1] + 1]  # the byte of each bit field
    if (size.sum(axis=1) + width - 1).max() > limit or size[:, :3].min() < 1 \
            or not (size[:, 3:] == 1).all() \
            or not ((bits == ord("0")) | (bits == ord("1"))).all():
        return None
    block.decode("utf-8")  # an undecodable byte raises here
    padded = np.concatenate([data, np.zeros(-(-int(size[:, :3].max()) // 8) * 8, np.uint8)])
    users, nodes, day_keys = (_keys(padded, ends[:, k] - size[:, k], size[:, k])
                              for k in range(3))
    digits = day_keys.view(np.uint8)
    if not ((digits - ord("0") < 10) | (digits == 0)).all():
        return None
    distinct, inverse = np.unique(day_keys, return_inverse=True)
    try:
        values = [int(text) for text in _texts(distinct)]
    except ValueError:  # more digits than ``int`` converts
        return None
    if max(values) > INT64_MAX:
        return None
    return users, nodes, np.array(values, np.int64)[inverse], (bits == ord("1")).T


def _keys(padded: np.ndarray, start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Key of each field of ``size`` bytes at ``start`` in ``padded``: its
    bytes, zero-padded to whole 8-byte words, as a uint64 when every field
    fits in one word, else as a bytes string of the words. ``padded`` ends
    in at least as many zero bytes as the longest key. The fields hold no
    NUL, so no two ids get one key."""
    offsets = np.arange(0, -(-int(size.max()) // 8) * 8, 8)
    # The little-endian word at each byte offset.
    words = np.ndarray((len(padded) - 7,), "<u8", padded, 0, (1,))
    keys = words[start[:, None] + offsets]
    keys &= _MASKS[np.clip(size[:, None] - offsets, 0, 8)]
    return keys[:, 0] if len(offsets) == 1 else keys.view(f"S{8 * len(offsets)}")[:, 0]


def _texts(keys: np.ndarray) -> list[str]:
    """The ids of ``keys`` (see ``_keys``), with one decode for them all."""
    if not len(keys):
        return []
    if keys.dtype.kind == "u":
        keys = keys.view("S8")  # a bytes string drops its trailing NULs
    return b"\n".join(keys.tolist()).decode("utf-8").split("\n")


def _header_problem(header: list[str]) -> str | None:
    """What breaks the header rule in ``header``, or None: it starts with
    user,node,day, and its signal names are distinct and non-empty."""
    signals = header[3:]
    if tuple(header[:3]) != _FIXED_COLUMNS:
        return f"header must start with user,node,day; got {header[:3]}"
    if len(set(signals)) != len(signals):
        return "duplicate signal columns in header"
    if "" in signals:
        return "empty signal column name in header"
    return None


def _row_parts(path: Path, reader: Iterator[list[str]],
               signals: list[SignalId] | None = None, line: int = 1) -> Iterator:
    """The csv row parser: yields the signal columns when it reads the
    header (``signals`` None), then (users, nodes, int64 days, bool hits)
    parts of up to ``_PART_ROWS`` rows, numbering rows from ``line``.

    Malformed rows do not abort the scan one at a time: after the first,
    the parser yields nothing more, keeps going and raises one error
    naming every offending line (capped).
    """
    if signals is None:
        try:
            header = next(reader)
        except StopIteration:
            raise EdgeFileError(f"{path}: empty file, expected a header row") from None
        problem = _header_problem(header)
        if problem:
            raise EdgeFileError(f"{path}: {problem}")
        signals = header[3:]
        yield signals
        line = 2
    width = 3 + len(signals)
    users: list[str] = []
    nodes: list[str] = []
    days: list[int] = []
    hit_at: list[tuple[int, int]] = []  # (signal index, row) per hit bit
    bad: list[str] = []
    for line_no, row in enumerate(reader, start=line):
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
                day = None
            if day is not None and day < 0:
                problem = f"day {day} is negative"
            elif day is None or not (row[2].isascii() and row[2].isdigit()):
                problem = f"day {row[2]!r} is not an integer"
            elif day > INT64_MAX:
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
        if bad:
            continue
        hit_at += [(k, len(days)) for k, bit in enumerate(bits) if bit == "1"]
        users.append(row[0])
        nodes.append(row[1])
        days.append(day)
        if len(days) == _PART_ROWS:
            yield row_part(len(signals), users, nodes, days, hit_at)
            users, nodes, days, hit_at = [], [], [], []
    if bad:
        shown = bad[:_MAX_REPORTED_LINES]
        suffix = "" if len(bad) <= _MAX_REPORTED_LINES else "; more follow"
        raise EdgeFileError(f"{path}: malformed rows: " + "; ".join(shown) + suffix)
    if days:
        yield row_part(len(signals), users, nodes, days, hit_at)


def write_ground_truth(path: str | Path, truth: GroundTruth) -> None:
    payload = {
        "sybil_users": sorted(truth.sybil_users),
        "cashout_nodes": sorted(truth.cashout_nodes),
        "carriers": {s: sorted(users) for s, users in sorted(truth.carriers.items())},
    }
    with replace_on_success(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_ground_truth(path: str | Path) -> GroundTruth:
    """Labels from a ground-truth file: an object whose ``sybil_users`` and
    ``cashout_nodes`` are lists of strings and whose ``carriers`` maps
    signal names to lists of strings. Anything else raises
    ``EdgeFileError`` naming the file and the field."""
    payload = read_json_object(path, "ground truth", EdgeFileError)
    carriers = payload.get("carriers")
    if not isinstance(carriers, dict):
        raise EdgeFileError(f"{path}: malformed ground truth: carriers must map "
                            f"signal names to lists of strings, not {carriers!r:.80}")
    fields = {"sybil_users": payload.get("sybil_users"),
              "cashout_nodes": payload.get("cashout_nodes"),
              **{f"carriers[{signal!r}]": users for signal, users in carriers.items()}}
    for name, ids in fields.items():
        if type(ids) is not list or not {str}.issuperset(map(type, ids)):
            raise EdgeFileError(f"{path}: malformed ground truth: {name} must be a "
                                f"list of strings, not {ids!r:.80}")
    return GroundTruth(
        sybil_users=frozenset(payload["sybil_users"]),
        cashout_nodes=frozenset(payload["cashout_nodes"]),
        carriers={signal: frozenset(users) for signal, users in carriers.items()},
    )
