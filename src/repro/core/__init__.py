"""The paper's contribution: gossip-based discovery processes on dynamic graphs.

* :class:`repro.core.push.PushDiscovery` — the triangulation (push) process.
* :class:`repro.core.pull.PullDiscovery` — the two-hop walk (pull) process.
* :class:`repro.core.directed.DirectedTwoHopWalk` — the directed two-hop walk.
* :mod:`repro.core.subset` — group discovery restricted to an induced subgraph.
* :mod:`repro.core.variants` — robustness ablations (lossy introductions,
  partial participation) from the paper's conclusion.
"""

from repro.core.base import (
    BatchProposals,
    DiscoveryProcess,
    RoundResult,
    UpdateSemantics,
    id_bits,
)
from repro.core.push import PushDiscovery
from repro.core.pull import PullDiscovery
from repro.core.directed import DirectedTwoHopWalk
from repro.core.metrics import MetricsRecorder, RoundMetrics
from repro.core.subset import SubsetDiscovery
from repro.core.variants import FaultyPushDiscovery, FaultyPullDiscovery
from repro.core.scheduler import (
    ActivationSchedule,
    FullActivation,
    BernoulliActivation,
    FixedSubsetActivation,
    RoundRobinActivation,
    PoissonLikeActivation,
    ScheduledProcess,
)

__all__ = [
    "ActivationSchedule",
    "FullActivation",
    "BernoulliActivation",
    "FixedSubsetActivation",
    "RoundRobinActivation",
    "PoissonLikeActivation",
    "ScheduledProcess",
    "BatchProposals",
    "DiscoveryProcess",
    "RoundResult",
    "UpdateSemantics",
    "id_bits",
    "PushDiscovery",
    "PullDiscovery",
    "DirectedTwoHopWalk",
    "SubsetDiscovery",
    "FaultyPushDiscovery",
    "FaultyPullDiscovery",
    "MetricsRecorder",
    "RoundMetrics",
]
