"""Test-side helpers: reference oracles and a checkpoint-split engine run.

``StreamEngine.ingest`` is the package's only way to fold edges into
counters. ``reference_fold`` builds the same tallies without the engine,
so it is an independent oracle: a counting bug in the engine cannot also
hide in it. Likewise the package scores whole columns at once, and
``reference_scores`` scores node by node with the scalar ``shrink`` and
``z_score``.
"""

from signalamp.amplify import NodeScore, shrink, z_score
from signalamp.engine import StreamEngine
from signalamp.model import NodeAccumulator


def reference_fold(edges):
    """Map each node to a ``NodeAccumulator`` of its trials and hits."""
    trials = {}
    hits = {}
    for edge in edges:
        trials[edge.node] = trials.get(edge.node, 0) + 1
        per_node = hits.setdefault(edge.node, {})
        for signal, bit in edge.hits.items():
            if bit:
                per_node[signal] = per_node.get(signal, 0) + 1
    return {node: NodeAccumulator(node, t, hits[node]) for node, t in trials.items()}


def reference_users(edges):
    """Map each node to its per-signal hit counts by user, hit nodes only."""
    users = {}
    for edge in edges:
        for signal, bit in edge.hits.items():
            if bit:
                table = users.setdefault(edge.node, {}).setdefault(signal, {})
                table[edge.user] = table.get(edge.user, 0) + 1
    return users


def reference_scores(accs, baseline):
    """Scalar scores of every node with a transaction, by (-z, node)."""
    rate = baseline.rate
    scores = []
    for acc in accs:
        if acc.trials < 1:
            continue
        hits = acc.hits.get(baseline.signal, 0)
        shrunk = shrink(hits, acc.trials, rate, baseline.prior_strength)
        scores.append(NodeScore(
            node=acc.node,
            signal=baseline.signal,
            hits=hits,
            trials=acc.trials,
            raw_rate=hits / acc.trials,
            shrunk_rate=shrunk,
            z=z_score(shrunk, rate, acc.trials),
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
