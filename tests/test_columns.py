"""Edge columns and the edge-file reader.

``read_edge_file`` reads a file with ``str.split`` column by column while
it can, and the rest with the csv row parser, which is also the only
source of error messages. The corpus below runs every case through both
paths and requires the same edges, or the same error text. The day reader
``read_edge_days`` shares that reading and must give the same columns, cut
into days and with the users of hit rows only, or the same error text.
"""

import csv
import os
import random
from bisect import bisect_right
from operator import attrgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signalamp.edgefile as edgefile
from signalamp.edgefile import read_edge_days, read_edge_file, write_edge_file
from signalamp.errors import EdgeFileError, UnknownSignalError
from signalamp.model import EdgeColumns, TransactionEdge

from reference import hit_rows

HEADER = "user,node,day,a,b\n"

# name -> (text, whether the split path reads it)
VALID = {
    "plain": (HEADER + "u1,n1,0,1,0\nu2,n1,0,0,0\nu1,n2,3,1,1\n", True),
    "blank-lines": (HEADER + "\nu1,n1,0,1,0\n\n\nu2,n2,1,0,1\n\n", True),
    "no-trailing-newline": (HEADER + "u1,n1,0,1,0\nu2,n2,1,0,1", True),
    "header-only": (HEADER, True),
    "header-only-no-newline": (HEADER.rstrip("\n"), True),
    "leading-zero-days": (HEADER + "u1,n1,03,1,0\nu2,n1,3,0,0\nu4,n1,00,1,1\n"
                          "u3,n1,0000000000000000003,0,1\nu5,n1,0,0,0\n", True),
    "unicode-ids": (HEADER + "üser,nöde,0,1,0\n用户,节点,1,0,1\n"
                    "u x,n\x85y,2,1,1\n", True),
    "spaces-kept": (HEADER + " u1 ,n1 ,0,1,0\n", True),
    "no-signals": ("user,node,day\nu1,n1,0\nu2,n2,1\n", True),
    "user-named-signal": ("user,node,day,user\nu1,n1,0,1\n", True),
    "crlf": (HEADER.replace("\n", "\r\n") + "u1,n1,0,1,0\r\nu2,n2,1,0,1\r\n", False),
    "lone-cr": (HEADER + "u1,n1,0,1,0\ru2,n2,1,0,1\n", False),
    "quoted-ids": (HEADER + '"u,1","n""1",0,1,0\n"u2",n2,1,0,1\n', False),
    "quoted-multiline-id": (HEADER + '"u\n1",n1,0,1,0\n', False),
    "nul-suffixed-ids": (HEADER + "u1,n1,0,1,0\nu1\x00,n1\x00\x00,0,1,0\n", False),
    "quoted-header": ('user,node,day,"a,b"\nu1,n1,0,1\n', False),
}

LONG = "x" * (csv.field_size_limit() + 1)
MALFORMED = {
    "empty-file": "",
    "bad-header": "uid,node,day,a\nu1,n1,0,1\n",
    "blank-first-line": "\n" + HEADER + "u1,n1,0,1,0\n",
    "duplicate-signal": "user,node,day,a,a\nu1,n1,0,1,1\n",
    "empty-signal-name": "user,node,day,a,\nu1,n1,0,1,0\n",
    "field-count": HEADER + "u1,n1,0,1\nu2,n1,0,1,0,1\nu3,n1,0,1,0\n",
    "compensating-field-counts": HEADER + "u1,n1,0,1,0,u2\nn2,3,1,0\n",
    "empty-ids": HEADER + ",n1,0,1,0\nu1,,0,1,0\n",
    "bad-days": HEADER + "u1,n1,zero,0,0\nu1,n1,-4,0,0\nu1,n1,1.5,0,0\n",
    "day-spellings": HEADER + "u1,n1,+3,1,0\nu2,n1, 3,0,0\nu3,n1,٣,0,1\n"
                     "u4,n1,3_0,1,1\nu5,n1,-0,0,0\nu6,n1,3 ,0,0\n",
    "huge-day": HEADER + f"u1,n1,{2**63},0,0\nu1,n1,{2**63 - 1},0,0\n",
    "bad-bits": HEADER + "u1,n1,0,2,0\nu1,n1,0,0,true\nu1,n1,0, 1,0\n",
    "many-bad-rows": HEADER + "u1,n1,x,0,0\n" * 12,
    "whitespace-line": HEADER + "u1,n1,0,1,0\n \n",
    "long-field": HEADER + f"u1,{LONG},0,1,0\n",
    "long-header": f"user,node,day,{LONG}\n",
    "quoted-bad-row": HEADER + '"u1",n1,x,0,0\n',
    "crlf-bad-row": HEADER + "u1,n1,x,0,0\r\n",
    "cr-inside-id": HEADER + "u\r1,n1,0,1,0\n",
}


def ids_of(column):
    """A part's ids as strings: the row parser's list as it is, the split
    path's keys decoded row by row."""
    return column if isinstance(column, list) else edgefile._texts(column)


def collect(parts):
    """(signals, edges as a list) of a reader generator that yields the
    signal columns, then (users, nodes, days, hits) parts."""
    signals = next(parts)
    edges = []
    for users, nodes, days, hits in parts:
        edges += [TransactionEdge(user, node, day,
                                  {s: 1 for s, bit in zip(signals, bits) if bit})
                  for user, node, day, bits in zip(ids_of(users), ids_of(nodes),
                                                   days.tolist(), hits.T.tolist())]
    return signals, edges


def row_parse(path):
    """The row parser alone, with ``read_edge_file``'s error wrapping;
    returns (signals, the edges as a list)."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        try:
            return collect(edgefile._row_parts(path, csv.reader(fh)))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise EdgeFileError(f"{path}: unreadable edge file: {exc}") from exc


def split_parse(path):
    """The split path alone: (signals, the edges as a list) when it reads
    the whole file, else None."""
    with open(path, "rb") as fh:
        parts = edgefile._split_parts(fh)
        items = []
        try:
            while True:
                items.append(next(parts))
        except StopIteration as end:
            if end.value is not None:
                return None
    return collect(iter(items))


@pytest.fixture(params=[7, 64, None], ids=["chunk7", "chunk64", "chunk-default"])
def chunk(request, monkeypatch):
    """Run each reader case with chunk boundaries inside lines too."""
    if request.param is not None:
        monkeypatch.setattr(edgefile, "_CHUNK_BYTES", request.param)


@pytest.mark.parametrize("name", list(VALID))
def test_split_path_equals_row_parser(tmp_path, chunk, name):
    text, split_reads = VALID[name]
    path = tmp_path / "edges.csv"
    path.write_bytes(text.encode("utf-8"))
    want_signals, want_edges = row_parse(path)
    split = split_parse(path)
    assert (split is not None) == split_reads
    if split is not None:
        assert split[0] == want_signals
        assert list(split[1]) == want_edges
    signals, columns = read_edge_file(path)
    assert signals == want_signals
    assert columns.signals == tuple(want_signals)
    assert list(columns) == want_edges
    assert len(columns) == len(want_edges)


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_files_raise_the_row_parser_error(tmp_path, chunk, name):
    path = tmp_path / "edges.csv"
    path.write_text(MALFORMED[name], encoding="utf-8", newline="")
    assert split_parse(path) is None
    with pytest.raises(EdgeFileError) as want:
        row_parse(path)
    with pytest.raises(EdgeFileError) as got:
        read_edge_file(path)
    assert str(got.value) == str(want.value)


def test_error_texts_are_unchanged(tmp_path):
    path = tmp_path / "edges.csv"
    cases = {
        "field-count": "line 2: expected 5 fields, got 4; "
                       "line 3: expected 5 fields, got 6",
        "bad-days": "line 2: day 'zero' is not an integer; line 3: day -4 is negative; "
                    "line 4: day '1.5' is not an integer",
        "day-spellings": "line 2: day '+3' is not an integer; "
                         "line 3: day ' 3' is not an integer; "
                         "line 4: day '٣' is not an integer; "
                         "line 5: day '3_0' is not an integer; "
                         "line 6: day '-0' is not an integer; "
                         "line 7: day '3 ' is not an integer",
        "huge-day": f"line 2: day {2**63} exceeds 2**63 - 1",
        "many-bad-rows": "line 11: day 'x' is not an integer; more follow",
    }
    for name, fragment in cases.items():
        path.write_text(MALFORMED[name], encoding="utf-8")
        with pytest.raises(EdgeFileError, match="malformed rows") as err:
            read_edge_file(path)
        assert fragment in str(err.value)


@pytest.mark.parametrize("offset", [10, 300_000], ids=["first-chunk", "later-chunk"])
def test_undecodable_bytes_raise_the_row_parser_error(tmp_path, offset):
    rows = "".join(f"u{i},n{i % 7},{i // 1000},1,0\n" for i in range(offset // 10))
    path = tmp_path / "edges.csv"
    path.write_bytes((HEADER + rows).encode("ascii") + b"u\xff,n1,0,1,0\n")
    with pytest.raises(EdgeFileError) as want:
        row_parse(path)
    with pytest.raises(EdgeFileError) as got:
        read_edge_file(path)
    assert str(got.value) == str(want.value)
    assert "unreadable edge file" in str(got.value)


def test_writer_quoting_round_trips(tmp_path):
    edges = [
        TransactionEdge(user="u,1", node='n"1', day=0, hits={"a": 1}),
        TransactionEdge(user='"u2"', node="n,,2", day=2, hits={"b": 1}),
        TransactionEdge(user="u3", node="n\n3", day=2, hits={}),
        TransactionEdge(user="u4\x00", node="n4", day=5, hits={"a": 1, "b": 1}),
    ]
    path = tmp_path / "edges.csv"
    write_edge_file(path, edges, ["a", "b"])
    signals, columns = read_edge_file(path)
    assert signals == ["a", "b"]
    assert list(columns) == edges


def test_large_file_crosses_chunks(tmp_path):
    """A file of many default-size chunks reads the same both ways."""
    rng = np.random.default_rng(3)
    n = 40_000
    users = rng.integers(0, 5000, n)
    nodes = rng.integers(0, 300, n)
    days = np.sort(rng.integers(0, 20, n))
    bits = rng.random((2, n)) < 0.1
    path = tmp_path / "edges.csv"
    path.write_text(HEADER + "".join(
        f"user{u},node{v},{d},{int(a)},{int(b)}\n"
        for u, v, d, a, b in zip(users, nodes, days, *bits)), encoding="utf-8")
    signals, columns = read_edge_file(path)
    assert path.stat().st_size > 3 * edgefile._CHUNK_BYTES
    assert list(columns) == row_parse(path)[1]
    assert np.array_equal(columns.day, days)
    assert np.array_equal(columns.hits, bits)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("name", ["plain", "quoted-ids"])
def test_reader_accepts_a_pipe(tmp_path, name):
    """A file that cannot seek is read by the row parser alone."""
    text = VALID[name][0]
    path = tmp_path / "edges.csv"
    path.write_text(text, encoding="utf-8")
    read_fd, write_fd = os.pipe()
    os.write(write_fd, text.encode("utf-8"))
    os.close(write_fd)
    try:
        signals, columns = read_edge_file(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)
    assert (signals, list(columns)) == row_parse(path)


# Ids and day texts that every path reads the same way.
CORPUS_IDS = ["u1", "n2", "üser", "用户", "节点", "u x", "n\x85y", "t\tab", " ", "l\u2028s"]
CORPUS_DAYS = ["0", "7", "12", "03", "007", "0000000000000000012"]
# Kinds of line the split path must hand to the row parser, which reads the
# over-limit and bytes-over-limit ones and rejects the others.
CORPUS_BAD = ["fields", "compensating-fields", "empty-id", "bit", "day", "over-limit",
              "bytes-over-limit", "field-over-limit"]


def corpus_file(rng, limit):
    """(text, True when every line is one the split path must read) of one
    seeded edge file: a header of 0 to 3 signals, up to 91 characters so
    that it spans chunks, then valid rows, blank lines and lines of exactly
    ``limit`` bytes, and in half the files one to three lines of the
    ``CORPUS_BAD`` kinds."""
    signals = [f"{'s' * rng.randint(1, 24)}{k}" for k in range(rng.randint(0, 3))]
    width = 3 + len(signals)

    def row(user=None):
        user = rng.choice(CORPUS_IDS) + str(rng.randint(0, 9)) if user is None else user
        return [user, rng.choice(CORPUS_IDS), rng.choice(CORPUS_DAYS),
                *(rng.choice("01") for _ in signals)]

    def sized(chars, prefix=""):
        """A row whose line is ``chars`` characters, all ASCII but
        ``prefix``, its user id padded."""
        fields = ["", "n", "0", *(rng.choice("01") for _ in signals)]
        rest = len(",".join(fields)) + len(prefix)
        return [prefix + "u" * (chars - rest), *fields[1:]]

    lines = [",".join(["user", "node", "day", *signals])]
    for _ in range(rng.randint(0, 40)):
        kind = rng.random()
        if kind < 0.1:
            lines.append("")
        elif kind < 0.15:
            lines.append(",".join(sized(limit)))
        else:
            lines.append(",".join(row()))
    valid = rng.random() < 0.5
    for _ in range(0 if valid else rng.choice([1, 1, 2, 3])):
        fields, bad = row(), rng.choice(CORPUS_BAD)
        if bad == "fields":
            fields = fields[:-1] if rng.random() < 0.5 else [*fields, "0"]
        elif bad == "compensating-fields":
            # Bit-like fields throughout, so only the comma count per line is wrong.
            at = rng.randint(1, len(lines))
            lines[at:at] = [",".join(rng.choice("01") for _ in range(count))
                            for count in (width - 1, width + 1)]
            continue
        elif bad == "empty-id":
            fields[rng.randint(0, 1)] = ""
        elif bad == "bit" and width > 3:
            fields[rng.randrange(3, width)] = rng.choice(
                ["2", "true", " 1", "", "01", "10", "١"])
        elif bad == "day":
            fields[2] = rng.choice(["x", "-4", "1.5", "", str(2**63), "+3", " 3", "٣",
                                    "3_0", "-0", "4 "])
        elif bad == "over-limit":
            fields = sized(limit + 1)
        elif bad == "bytes-over-limit":
            fields = sized(limit, prefix="é")
        elif bad == "field-over-limit":
            fields[0] = "u" * (limit + 1)
        lines.insert(rng.randint(1, len(lines)), ",".join(fields))
    text = "\n".join(lines) + ("\n" if rng.random() < 0.8 else "")
    return text, valid


@pytest.fixture
def small_field_limit():
    """A csv field limit of 100, so over-long lines stay small."""
    old = csv.field_size_limit(100)
    yield 100
    csv.field_size_limit(old)


def test_random_corpus_split_path_equals_row_parser(tmp_path, chunk, small_field_limit):
    """The split path gives the row parser's edges or None, and
    ``read_edge_file`` the row parser's result or its exact error text."""
    rng = random.Random(20)
    path = tmp_path / "edges.csv"
    outcomes = {"split": 0, "row parser": 0, "error": 0}
    for _ in range(400):
        text, valid = corpus_file(rng, small_field_limit)
        path.write_bytes(text.encode("utf-8"))
        split = split_parse(path)
        assert split is not None or not valid, text
        try:
            want = row_parse(path)
        except EdgeFileError as exc:
            assert split is None, text
            with pytest.raises(EdgeFileError) as got:
                read_edge_file(path)
            assert str(got.value) == str(exc)
            outcomes["error"] += 1
            continue
        if split is not None:
            assert (split[0], list(split[1])) == want, text
        outcomes["split" if split is not None else "row parser"] += 1
        signals, columns = read_edge_file(path)
        assert (signals, list(columns)) == want
    assert min(outcomes.values()) >= 5, outcomes


def day_read(path):
    """``read_edge_days``' batches as (signals, ``hit_rows`` of each batch
    in turn), once each batch is checked to hold one day, other than the
    batch before's, and to code the users of its hit rows only."""
    signals, days = read_edge_days(path)
    rows, last = [], None
    for batch in days:
        assert batch.signals == tuple(signals)
        assert len(batch) and (batch.day == batch.day[0]).all()
        assert batch.day[0] != last
        last = batch.day[0]
        rows += hit_rows(batch, uncoded=True)
    return signals, rows


def file_read(path):
    """``read_edge_file``'s result as (signals, ``hit_rows`` of the
    columns)."""
    signals, columns = read_edge_file(path)
    return signals, hit_rows(columns)


def read_either(read, path):
    """(signals, edges as a list) from ``read``, or the text of the
    ``EdgeFileError`` it raises."""
    try:
        signals, edges = read(path)
    except EdgeFileError as exc:
        return str(exc)
    return signals, list(edges)


@pytest.mark.parametrize("name", [*VALID, *MALFORMED])
def test_day_reader_equals_read_edge_file(tmp_path, chunk, name):
    text = VALID[name][0] if name in VALID else MALFORMED[name]
    path = tmp_path / "edges.csv"
    path.write_bytes(text.encode("utf-8"))
    want = read_either(file_read, path)
    assert isinstance(want, str) == (name in MALFORMED)
    assert read_either(day_read, path) == want


def test_random_corpus_day_reader_equals_read_edge_file(tmp_path, chunk,
                                                        small_field_limit):
    rng = random.Random(21)
    path = tmp_path / "edges.csv"
    errors = 0
    for _ in range(400):
        text, _ = corpus_file(rng, small_field_limit)
        path.write_bytes(text.encode("utf-8"))
        want = read_either(file_read, path)
        assert read_either(day_read, path) == want, text
        errors += isinstance(want, str)
    assert 5 <= errors <= 395


@st.composite
def edge_files(draw):
    """Small edge files as bytes, valid or not: odd ids, quotes, CR and
    blank lines, bad widths and bits, odd day texts, a bad byte. A file
    draws how often it takes an odd value, from never to one time in
    three, so that valid files, files only the row parser reads and
    invalid files all come up."""
    odds = draw(st.sampled_from([0, 0, 40, 10, 3]))

    def pick(usual, odd):
        return draw(st.sampled_from(
            odd if odds and draw(st.integers(1, odds)) == 1 else usual))

    lines = [pick([HEADER.rstrip("\n")], ["user,node,day,a,a", 'user,node,day,"a",b',
                                         "user,node,day,a,b,c", "user,node"])]
    for _ in range(draw(st.integers(0, 12))):
        ids = [pick(["u1", "u2", "n1", "ü"],
                    ["", '"u,1"', 'n"1', '"n""1"', " u1", "u\x00"]) for _ in "un"]
        day = pick(["0", "1", "2"], ["+1", " 1", "1_0", "-0", "١", "-1", "x", "1.5",
                                    str(2**63), ""])
        bits = pick([["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
                    [["1"], ["0", "1", "1"], ["2", "0"], ["", "1"], ['"1"', "0"]])
        lines.append(",".join([*ids, day, *bits]))
    data = "".join(line + pick(["\n"], ["\r\n", "\r", "\n\n", ""])
                   for line in lines).encode("utf-8")
    if draw(st.integers(0, 19)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


CHUNK_SIZES = st.sampled_from([1, 5, 16, 40, 1 << 18])


@given(data=edge_files(), size=CHUNK_SIZES)
def test_day_reader_equals_read_edge_file_on_generated_files(tmp_path, data, size):
    """On any small file and chunk size, ``read_edge_days`` gives the
    columns of ``read_edge_file`` with the users of hit rows only, or the
    same error text."""
    path = tmp_path / "edges.csv"
    path.write_bytes(data)
    with mock.patch.object(edgefile, "_CHUNK_BYTES", size):
        assert read_either(day_read, path) == read_either(file_read, path)


# Ids of 1, 7, 8, 9, 16 and 17 bytes, around the 8-byte words of the split
# path's keys: sharing their first 8 or 16 bytes, or with a multibyte
# character across byte 8 or 16.
KEY_IDS = ["u", "uvwxyz7", "sharedpf", "sharedpfa", "sharedpfb", "sharedp\u00e9",
           "sharedp\u00e9x", "\u7528\u6237\u7528", "sharedpfsharedpf", "sharedpfsharedpfa",
           "sharedpfsharedp\u00e9", "sharedpfsharedp\u00e9x"]
# Day texts with leading zeros, over 8 bytes too, up to 2**63 - 1.
KEY_DAYS = ["0", "00", "1", "01", "007", "7", "0000000000000000007", "9223372036854775807",
            "0009223372036854775807"]


@st.composite
def valid_edge_files(draw):
    """Small edge files that every reader must read, as bytes: ids from
    ``KEY_IDS`` or drawn from ASCII and multibyte characters, days from
    ``KEY_DAYS``, and blank lines."""
    ids = st.one_of(st.sampled_from(KEY_IDS), st.text(
        st.sampled_from("ab \t\x85\u00e9\u7528"), min_size=1, max_size=9))
    lines = [HEADER]
    for _ in range(draw(st.integers(0, 12))):
        lines.append(",".join([draw(ids), draw(ids), draw(st.sampled_from(KEY_DAYS)),
                               *draw(st.lists(st.sampled_from("01"), min_size=2,
                                              max_size=2))])
                     + draw(st.sampled_from(["\n", "\n", "\n\n"])))
    return "".join(lines).encode("utf-8")


@settings(max_examples=150)
@given(data=valid_edge_files(), size=CHUNK_SIZES)
def test_split_path_equals_row_parser_on_generated_files(tmp_path, data, size):
    """On any small valid file and chunk size, the split path reads the
    whole file and gives the row parser's columns."""
    path = tmp_path / "edges.csv"
    path.write_bytes(data)
    with mock.patch.object(edgefile, "_CHUNK_BYTES", size):
        assert split_parse(path) == row_parse(path)


# Lines that only the row parser reads, or that stop every reader.
HANDOVER_LINES = {
    "quoted": '"u,q",n""q,{day},1,0\n'.encode(),
    "cr": "uc,nc,{day},0,1\r\n".encode(),
    "undecodable": b"u\xff,n1,{day},1,0\n",
}


@pytest.mark.parametrize("bad_row", [False, True], ids=["valid", "bad-row"])
@pytest.mark.parametrize("where", ["start", "middle", "last"])
@pytest.mark.parametrize("kind", list(HANDOVER_LINES))
def test_row_parser_takes_over_from_the_chunk_it_cannot_split(
        tmp_path, chunk, monkeypatch, kind, where, bad_row):
    """The split path hands the row parser only the rest of the file, from
    the first line of the chunk it gave up on. Both readers then give the
    row parser's columns, or its exact error text, with lines numbered
    from the top of the file."""
    size = edgefile._CHUNK_BYTES
    n = max(40, size // 26)  # lines of 66 bytes or so: two and a half chunks
    rows = [f"user{i % 97:030},node{i % 13:020},{i * 10 // n},{i % 2},{i % 3 // 2}\n"
            .encode() for i in range(n)]
    at = {"start": 0, "middle": n // 2, "last": n}[where]
    day = str(min(at, n - 1) * 10 // n).encode()
    rows.insert(at, HANDOVER_LINES[kind].replace(b"{day}", day))
    if bad_row:
        rows.insert(at + 1, b"ux,nx," + day + b",1,2\n")
    header = HEADER.encode()
    path = tmp_path / "edges.csv"
    path.write_bytes(header + b"".join(rows))
    try:
        want = row_parse(path)
    except EdgeFileError as exc:
        want = str(exc)
    assert isinstance(want, str) == (bad_row or kind == "undecodable")

    starts = []
    row_parts = edgefile._row_parts

    def spy(path, reader, signals=None, line=1):
        starts.append(line)
        return row_parts(path, reader, signals, line)

    monkeypatch.setattr(edgefile, "_row_parts", spy)
    assert read_either(read_edge_file, path) == want
    if not isinstance(want, str):
        want = want[0], hit_rows(EdgeColumns.from_edges(want[1], want[0]))
    assert read_either(day_read, path) == want
    if kind == "undecodable":
        # Each read ends reading again from the top, for the error text of
        # a whole-file read.
        assert starts[-1] == 1 and starts.count(1) == 2
        return
    assert starts and starts[0] <= at + 2  # the header is line 1
    if sum(map(len, rows[:at])) >= size:  # not in the header's chunk
        assert starts[0] > 2


# Day 0 has hit users u1 and u3 and a row of u2 without a hit; day 1 has
# no hit row at all.
DAYS = HEADER + ("u1,n1,0,1,0\nu2,n1,0,0,0\nu1,n2,0,0,1\nu3,n2,0,1,1\n"
                 "u2,n1,1,0,0\nu4,n2,1,0,0\n")


class TestDayBatches:
    """``read_edge_days`` codes the users of hit rows only; a row without
    a user is never named."""

    def batches(self, tmp_path, text=DAYS):
        path = tmp_path / "edges.csv"
        path.write_text(text)
        signals, days = read_edge_days(path)
        return signals, list(days)

    def test_user_table_is_the_days_hit_users(self, tmp_path):
        _, (first, second) = self.batches(tmp_path)
        assert first.users == ["u1", "u3"]
        assert first.user_code.tolist() == [0, -1, 0, 1]
        assert first.users_with_hits("a") == {"u1", "u3"}
        assert first.users_with_hits("b") == {"u1", "u3"}
        assert second.users == [] and second.user_code.tolist() == [-1, -1]
        assert second.users_with_hits("a") == set()

    def test_per_edge_access_on_an_uncoded_row_raises(self, tmp_path):
        _, (first, second) = self.batches(tmp_path)
        assert first[0] == TransactionEdge("u1", "n1", 0, {"a": 1})
        assert list(first[2:]) == [TransactionEdge("u1", "n2", 0, {"b": 1}),
                                   TransactionEdge("u3", "n2", 0, {"a": 1, "b": 1})]
        for access in (lambda: first[1], lambda: first[-3], lambda: list(first),
                       lambda: list(second), lambda: first[3] in first):
            with pytest.raises(ValueError, match="no user id"):
                access()

    def test_iteration_checks_every_block(self, tmp_path):
        rows = ["u,n,0,1,0\n"] * 5000
        rows[4500] = "u,n,0,0,0\n"
        _, (batch,) = self.batches(tmp_path, HEADER + "".join(rows))
        assert list(batch[:4500]) == [TransactionEdge("u", "n", 0, {"a": 1})] * 4500
        with pytest.raises(ValueError, match="no user id"):
            list(batch)

    def test_write_edge_file_refuses_a_day_batch(self, tmp_path):
        signals, (first, _) = self.batches(tmp_path)
        target = tmp_path / "out.csv"
        target.write_bytes(b"earlier\n")
        with pytest.raises(ValueError, match="no user id"):
            write_edge_file(target, first, signals)
        assert target.read_bytes() == b"earlier\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["edges.csv", "out.csv"]
        assert write_edge_file(target, first[2:], signals) == 2
        assert target.read_text() == HEADER + "u1,n2,0,0,1\nu3,n2,0,1,1\n"


class TestEdgeColumns:
    def edges(self):
        return [
            TransactionEdge(user="u1", node="n1", day=0, hits={"a": 1}),
            TransactionEdge(user="u2", node="n1", day=0, hits={}),
            TransactionEdge(user="u1", node="n2", day=3, hits={"a": 1, "b": 1}),
            TransactionEdge(user="u3", node="n1", day=4, hits={"b": 1}),
        ]

    def test_sequence_of_edges(self):
        edges = self.edges()
        columns = EdgeColumns.from_edges(edges, ["a", "b"])
        assert len(columns) == 4
        assert list(columns) == edges
        assert [columns[i] for i in range(-4, 4)] == edges + edges
        assert columns[np.int64(2)] == edges[2]
        for index in (4, -5):
            with pytest.raises(IndexError):
                columns[index]
        assert edges[1] in columns and columns.index(edges[2]) == 2

    def test_slices_are_columns(self):
        edges = self.edges()
        columns = EdgeColumns.from_edges(edges, ["a", "b"])
        for part in (slice(1, 3), slice(None, None, 2), slice(-2, None), slice(3, 1)):
            sliced = columns[part]
            assert isinstance(sliced, EdgeColumns)
            assert list(sliced) == edges[part]
            assert sliced.users is columns.users

    def test_bisect_by_day(self):
        columns = EdgeColumns.from_edges(self.edges(), ["a", "b"])
        day = attrgetter("day")
        bounds = [bisect_right(columns, d, key=day) for d in range(6)]
        assert bounds == [2, 2, 2, 3, 4, 4]

    def test_from_edges_keeps_columns_and_rejects_unknown_signals(self):
        columns = EdgeColumns.from_edges(self.edges(), ["a", "b"])
        assert EdgeColumns.from_edges(columns, ["z"]) is columns
        for hits in ({"c": 1}, {"c": 0}):
            edge = TransactionEdge(user="u", node="n", day=0, hits=hits)
            with pytest.raises(UnknownSignalError):
                EdgeColumns.from_edges([edge], ["a", "b"])

    def test_ids_stored_once(self):
        columns = EdgeColumns.from_edges(self.edges(), ["a", "b"])
        assert columns.users == ["u1", "u2", "u3"]
        assert columns.nodes == ["n1", "n2"]
        assert columns.user_code.tolist() == [0, 1, 0, 2]
        assert columns.hits.shape == (2, 4)

    def test_ids_differing_by_trailing_nuls_stay_distinct(self):
        edges = [TransactionEdge(user=u, node="n", day=0, hits={"a": 1})
                 for u in ("u", "u\x00", "u\x00\x00", "u")]
        columns = EdgeColumns.from_edges(edges, ["a"])
        assert columns.users == ["u", "u\x00", "u\x00\x00"]
        assert columns.users_with_hits("a") == {"u", "u\x00", "u\x00\x00"}
        assert list(columns) == edges

    def test_hits_under_maps_signals_by_name(self):
        columns = EdgeColumns.from_edges(self.edges(), ["a", "b"])
        assert columns.hits_under(["b", "c", "a"]).tolist() == [
            columns.hits[1].tolist(), [False] * 4, columns.hits[0].tolist()]
        assert columns[:2].hits_under(["a"]).tolist() == [[True, False]]
        with pytest.raises(UnknownSignalError, match="'b'"):
            columns.hits_under(["a"])

    def test_users_with_hits(self):
        columns = EdgeColumns.from_edges(self.edges(), ["a", "b"])
        assert columns.users_with_hits("a") == {"u1"}
        assert columns.users_with_hits("b") == {"u1", "u3"}
        assert columns[1:2].users_with_hits("a") == set()
        assert columns.users_with_hits("ghost") == set()
