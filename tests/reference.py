"""Test-side helpers: reference oracles, a checkpoint-split engine run, a
write that fails half-way, the columns the day reader keeps and edge
columns built from tuples.

``StreamEngine.ingest_columns`` is the package's one fold of edges into
counters; per-edge ``StreamEngine.ingest`` queues edges into it.
``reference_fold`` builds the same per-node tallies without the engine,
so it is an independent oracle: a counting bug in the engine cannot also
hide in it; ``tallies`` reads the engine's own from its checkpoint
payload. Likewise the engine takes its baseline from the sums of its
count columns and scores whole columns at once, while
``reference_baseline`` adds up tallies node by node and
``reference_scores`` scores node by node with the scalar ``shrink`` and
``z_score``.
"""

import builtins

from signalamp import model
from signalamp.amplify import NodeScore, shrink, z_score
from signalamp.engine import StreamEngine
from signalamp.errors import NoBaselineError
from signalamp.model import EdgeColumns, GlobalBaseline


def crash_mid_write(monkeypatch):
    """Make every file that ``model.replace_on_success`` opens write half
    the text of its first ``write`` call, then raise
    ``OSError("simulated crash")``."""

    def open_crashing(*args, **kwargs):
        fh = builtins.open(*args, **kwargs)
        write = fh.write

        def half_write(text):
            write(text[: len(text) // 2])
            raise OSError("simulated crash")

        fh.write = half_write
        return fh

    monkeypatch.setattr(model, "open", open_crashing, raising=False)


def hit_rows(columns, uncoded=False):
    """What ``edgefile.read_edge_days`` keeps of ``columns``, as one
    (node, day, hit bits, user) tuple per row, the user None on a row
    without a hit. With ``uncoded``, the columns must code the users of the
    hit rows only: exactly the other rows have user code -1, and the user
    table lists each hit user once and nothing else."""
    hit = columns.hits.any(axis=0).tolist()
    codes = columns.user_code.tolist()
    users = [columns.users[code] if h else None for code, h in zip(codes, hit)]
    if uncoded:
        assert [code == -1 for code in codes] == [not h for h in hit]
        assert sorted(columns.users) == sorted({u for u in users if u is not None})
    return list(zip([columns.nodes[code] for code in columns.node_code.tolist()],
                    columns.day.tolist(), columns.hits.T.tolist(), users))


def edge_columns(signals, rows):
    """``EdgeColumns`` of (user, node, day, bits) ``rows``, ``bits`` holding
    one hit bit per signal of ``signals``."""
    return EdgeColumns.from_rows(
        signals, [user for user, _, _, _ in rows], [node for _, node, _, _ in rows],
        [day for _, _, day, _ in rows],
        [(k, row) for row, (_, _, _, bits) in enumerate(rows)
         for k, bit in enumerate(bits) if bit])


def reference_fold(edges):
    """Map each node to its tally: (trials, hits), with ``hits`` mapping
    each signal the node has a hit on to its count."""
    tallies = {}
    for edge in edges:
        trials, hits = tallies.get(edge.node, (0, {}))
        for signal, bit in edge.hits.items():
            if bit:
                hits[signal] = hits.get(signal, 0) + 1
        tallies[edge.node] = (trials + 1, hits)
    return tallies


def tallies(engine):
    """``reference_fold``'s tallies of the active nodes of ``engine``, added
    up from the days of its checkpoint payload (format v2)."""
    nodes = v1_payload(engine.checkpoint_payload())["nodes"]
    return {node: (entry["t"], entry["s"]) for node, entry in nodes.items()}


def reference_baseline(nodes, signal):
    """Population totals for one signal over the tallies ``nodes`` with at
    least one transaction, raising what ``StreamEngine.baseline`` raises on
    an empty window."""
    active = [(trials, hits) for trials, hits in nodes.values() if trials >= 1]
    transactions = sum(trials for trials, _ in active)
    if not transactions:
        raise NoBaselineError(f"window is empty for signal {signal!r}")
    hits = sum(held.get(signal, 0) for _, held in active)
    return GlobalBaseline(signal, hits, transactions, len(active))


def reference_users(edges):
    """Map each node to its per-signal hit counts by user, hit nodes only."""
    users = {}
    for edge in edges:
        for signal, bit in edge.hits.items():
            if bit:
                table = users.setdefault(edge.node, {}).setdefault(signal, {})
                table[edge.user] = table.get(edge.user, 0) + 1
    return users


def reference_scores(nodes, baseline):
    """Scalar scores of every node of the tallies ``nodes`` with a
    transaction, by (-z, node)."""
    rate = baseline.rate
    scores = []
    for node, (trials, held) in nodes.items():
        if trials < 1:
            continue
        hits = held.get(baseline.signal, 0)
        shrunk = shrink(hits, trials, rate, baseline.prior_strength)
        scores.append(NodeScore(
            node=node,
            signal=baseline.signal,
            hits=hits,
            trials=trials,
            raw_rate=hits / trials,
            shrunk_rate=shrunk,
            z=z_score(shrunk, rate, trials),
        ))
    scores.sort(key=lambda sc: (-sc.z, sc.node))
    return scores


def split_run(registry, head, tail, path):
    """Ingest ``head``, checkpoint to ``path``, resume, then ingest ``tail``."""
    engine = StreamEngine(registry)
    for edge in head:
        engine.ingest(edge)
    engine.save_checkpoint(path)
    resumed = StreamEngine.load_checkpoint(path)
    for edge in tail:
        resumed.ingest(edge)
    return resumed


def v1_payload(payload):
    """A format v2 checkpoint payload as format v1 held the same state.

    v1 keyed every count by id: a node table of trials, nonzero hits and
    per-user hit tables, the same per buffered day of a trailing window,
    and window totals. The engine no longer writes v1 but still loads it,
    so tests build v1 files from v2 ones here.
    """
    signals = [entry["signal"] for entry in payload["signals"]]
    nodes, users = payload["nodes"], payload["users"]

    def table(entries):
        out = {}
        for entry in entries:
            counts, rows = entry["counts"], entry["users"]
            m, r = len(counts) // (2 + len(signals)), len(rows) // 4
            for code, trials, *hits in zip(*(counts[i * m:(i + 1) * m]
                                             for i in range(2 + len(signals)))):
                held = out.setdefault(nodes[code], {"s": {}, "t": 0, "users": {}})
                held["t"] += trials
                for signal, count in zip(signals, hits):
                    if count:
                        held["s"][signal] = held["s"].get(signal, 0) + count
            for code, k, user, count in zip(*(rows[i * r:(i + 1) * r]
                                              for i in range(4))):
                named = out[nodes[code]]["users"].setdefault(signals[k], {})
                named[users[user]] = named.get(users[user], 0) + count
        return out

    days = payload["days"]
    node_table = table(days.values())
    return {
        "current_day": payload["current_day"],
        "day_buffers": ({day: table([entry]) for day, entry in days.items()}
                        if payload["window"]["mode"] == "trailing" else {}),
        "evicted_through": payload["evicted_through"],
        "format_version": 1,
        "nodes": node_table,
        "signals": payload["signals"],
        "totals": {
            "active_nodes": len(node_table),
            "hits": {signal: sum(e["s"].get(signal, 0) for e in node_table.values())
                     for signal in signals},
            "transactions": sum(e["t"] for e in node_table.values()),
        },
        "track_users": True,
        "window": payload["window"],
    }
