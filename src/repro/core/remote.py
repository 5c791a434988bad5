"""Edge-offloaded Bayesian optimization (the paper's §VI overhead remedy).

"The Bayesian Optimization algorithm can be executed on a local edge
server to eliminate its overhead from local computations ... by uploading
the obtained performance from the cost calculator to the server and
downloading the next configuration to test ... The payload for exchanging
such information is in the order of a few Bytes."

:class:`RemoteOptimizerProxy` wraps a :class:`~repro.bo.optimizer.
BayesianOptimizer` living "on the server": every ``ask``/``tell`` crosses
a simulated network link, accounting round-trip time and payload bytes,
while the device-side compute cost of the GP drops to zero. The proxy is
drop-in compatible with :class:`~repro.core.algorithm.HBOIteration`
(same ask/tell/space surface), so a controller can be pointed at an edge
server with one argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.bo.optimizer import BayesianOptimizer, Observation, OptimizerState, SpaceLike
from repro.edge.link import NetworkLink
from repro.obs import runtime as obs
from repro.rng import SeedLike, make_rng

__all__ = ["OffloadStats", "RemoteOptimizerProxy"]


@dataclass
class OffloadStats:
    """Network accounting for one activation's worth of BO traffic."""

    exchanges: int = 0
    bytes_up: int = 0
    bytes_down: int = 0
    network_ms: float = 0.0
    #: Exchanges that carried a batch of observations (``warm_start``):
    #: the batching amortizes per-exchange framing and round trips across
    #: the whole payload.
    batched_exchanges: int = 0
    #: Observations shipped inside batched exchanges.
    batched_observations: int = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_up + self.bytes_down


class RemoteOptimizerProxy:
    """Ask/tell facade over an optimizer running on an edge server.

    The serialized payloads are what the paper describes: a configuration
    vector down (N+1 float32 values) and a scalar cost up (one float32
    plus the echoed vector) — a few dozen bytes per control period.
    """

    #: float32 per coordinate + a small framing overhead.
    _FRAME_BYTES = 16

    def __init__(
        self,
        optimizer: BayesianOptimizer,
        link: Optional[NetworkLink] = None,
        seed: SeedLike = None,
    ) -> None:
        self._optimizer = optimizer
        self.link = link if link is not None else NetworkLink()
        self.stats = OffloadStats()
        self._rng = make_rng(seed)

    # ------------------------------------------------- optimizer interface

    @property
    def space(self) -> SpaceLike:
        return self._optimizer.space

    @property
    def state(self) -> OptimizerState:
        return self._optimizer.state

    @property
    def n_observations(self) -> int:
        return self._optimizer.n_observations

    @property
    def in_initial_phase(self) -> bool:
        return self._optimizer.in_initial_phase

    def _vector_bytes(self) -> int:
        return 4 * self.space.dim + self._FRAME_BYTES

    def _record_exchange(self, kind: str, payload_bytes: int, transfer_ms: float) -> None:
        obs.counter("remote_exchanges", kind=kind).inc()
        obs.histogram("remote_payload_bytes").observe(payload_bytes)
        obs.histogram("remote_network_ms").observe(transfer_ms)

    def ask(self) -> np.ndarray:
        """Download the next configuration from the server."""
        z = self._optimizer.ask()
        payload = self._vector_bytes()
        self.stats.exchanges += 1
        self.stats.bytes_down += payload
        self.stats.bytes_up += self._FRAME_BYTES  # the request frame
        transfer = self.link.transfer_ms(payload, self._rng)
        self.stats.network_ms += transfer
        self._record_exchange("ask", payload, transfer)
        return z

    def tell(self, z: np.ndarray, cost: float) -> None:
        """Upload the measured cost of a configuration."""
        payload = self._vector_bytes() + 4  # echoed vector + float32 cost
        self.stats.exchanges += 1
        self.stats.bytes_up += payload
        self.stats.bytes_down += self._FRAME_BYTES  # the ack
        transfer = self.link.transfer_ms(payload, self._rng)
        self.stats.network_ms += transfer
        self._record_exchange("tell", payload, transfer)
        self._optimizer.tell(z, cost)

    def _batched_payload_bytes(self, n_observations: int) -> int:
        """Upload size of ``n_observations`` (vector, cost) pairs shipped
        in one exchange: one shared frame instead of one per observation."""
        per_observation = 4 * self.space.dim + 4  # float32 vector + cost
        return n_observations * per_observation + self._FRAME_BYTES

    def _account_batch(self, n_observations: int) -> None:
        payload = self._batched_payload_bytes(n_observations)
        self.stats.exchanges += 1
        self.stats.batched_exchanges += 1
        self.stats.batched_observations += n_observations
        self.stats.bytes_up += payload
        self.stats.bytes_down += self._FRAME_BYTES  # the ack
        transfer = self.link.transfer_ms(payload, self._rng)
        self.stats.network_ms += transfer
        self._record_exchange("batch", payload, transfer)

    def warm_start(self, observations: Sequence[Observation]) -> int:
        """Ship donor observations to the server-side optimizer.

        The transfer is one batched exchange: one shared frame and one
        round trip for the whole batch; see
        :meth:`~repro.bo.optimizer.BayesianOptimizer.warm_start`.
        """
        if observations:
            self._account_batch(len(observations))
        return self._optimizer.warm_start(observations)

    def best(self) -> Observation:
        return self._optimizer.best()
