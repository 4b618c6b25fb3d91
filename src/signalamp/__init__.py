"""Weak-signal amplification over bipartite transaction graphs.

Cheap per-transaction binary features are individually too noisy to act
on. Aggregated at the convergence nodes the traffic funnels into, shrunk
toward the population rate, and tested as proportions, they become
node-level adjudications precise enough to flag whole cohorts at once.

The top-level names are the library API the README documents; everything
else is imported from its submodule (``signalamp.engine``,
``signalamp.detect``, ...).
"""

from .amplify import compute_baseline, score_all, shrink, z_score
from .backtest import run_backtest
from .engine import StreamEngine, replay_daily
from .model import SignalRegistry, TransactionEdge

__all__ = [
    "SignalRegistry",
    "StreamEngine",
    "TransactionEdge",
    "replay_daily",
    "run_backtest",
    "shrink",
    "z_score",
    "compute_baseline",
    "score_all",
]

__version__ = "0.1.0"
