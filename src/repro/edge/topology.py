"""Multi-server edge topology: named nodes, assignments, outages, drift.

PR 5 gave the fleet exactly one :class:`~repro.edge.server.EdgeServer`
and granted every session a link unconditionally. This module turns that
singleton into a routed topology: N heterogeneous nodes, each pairing a
server capacity model with its own nominal link parameters, a per-node
admission policy, and live state (utilization, bandwidth scale, outage
flag) that placement and migration policies read. The topology also owns
the session → node assignment table, so attach/detach bookkeeping lives
in one place instead of being scattered across fleet sessions.

Deliberately passive: the topology never draws randomness, never prices
a task itself (candidate pricing goes through
:func:`repro.edge.share.offload_price_ms`, the single float-op source),
and never decides *where* a session goes — that is
:mod:`repro.edge.placement`. It only answers "what nodes exist, who is
on them, and would this one admit another tenant?". Keeping it passive
is what lets a 1-node topology with admission disabled reproduce the
PR 5 singleton byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.edge.admission import (
    OPEN_ADMISSION,
    AdmissionConfig,
    AdmissionDecision,
    decide,
    shed_plan,
    utilization,
)
from repro.edge.link import LinkConfig, WirelessLink
from repro.edge.server import EdgeServer, EdgeServerConfig
from repro.edge.share import EdgeShare
from repro.errors import EdgeError, UnknownTenantError


@dataclass(frozen=True)
class EdgeNodeConfig:
    """One edge server site: capacity, its own link, where it sits.

    ``distance`` is an abstract 1-D coordinate (hop count, RF distance —
    unitless) the ``nearest`` placement policy ranks by; it has no effect
    on pricing, which only ever sees the link parameters.
    """

    server: EdgeServerConfig = field(default_factory=EdgeServerConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    distance: float = 0.0

    @property
    def name(self) -> str:
        return self.server.name

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise EdgeError(f"distance must be >= 0, got {self.distance}")


@dataclass(frozen=True)
class MigrationConfig:
    """Hysteresis bounds on mid-run server switching.

    A session migrates only when a candidate node prices its offload at
    least ``hysteresis`` cheaper (fractionally) than its current node,
    and only after ``dwell_ticks`` scheduler ticks on the current node —
    both guards exist to stop drift-induced flapping between two nearly
    equal servers.
    """

    enabled: bool = True
    #: Candidate must be this fraction cheaper than the current node.
    hysteresis: float = 0.2
    #: Minimum scheduler ticks on a node before migrating away.
    dwell_ticks: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.hysteresis < 1.0:
            raise EdgeError(
                f"hysteresis must be in [0, 1), got {self.hysteresis}"
            )
        if self.dwell_ticks < 0:
            raise EdgeError(
                f"dwell_ticks must be >= 0, got {self.dwell_ticks}"
            )


@dataclass(frozen=True)
class EdgeTopologyConfig:
    """The full serving topology: node list plus migration policy."""

    nodes: Tuple[EdgeNodeConfig, ...]
    migration: MigrationConfig = field(default_factory=MigrationConfig)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise EdgeError("a topology needs at least one node")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise EdgeError(f"duplicate node names in topology: {names}")

    @property
    def is_singleton(self) -> bool:
        """True for the degenerate PR 5-equivalent shape: one node, open
        admission, migration off — the fleet's ``--edge`` shape. The
        fleet suppresses topology reporting for it so a 1-server run
        renders byte-identically to the PR 5 singleton edge server."""
        return (
            len(self.nodes) == 1
            and not self.nodes[0].admission.enabled
            and not self.migration.enabled
        )

    @staticmethod
    def single(
        server: Optional[EdgeServerConfig] = None,
        link: Optional[LinkConfig] = None,
    ) -> "EdgeTopologyConfig":
        """The degenerate 1-node topology equivalent to the PR 5 singleton.

        Admission is open and migration disabled, so every session lands
        on the sole node unconditionally — the exact semantics of the
        single shared :class:`~repro.edge.server.EdgeServer`.
        """
        return EdgeTopologyConfig(
            nodes=(
                EdgeNodeConfig(
                    server=server if server is not None else EdgeServerConfig(),
                    link=link if link is not None else LinkConfig(),
                    admission=OPEN_ADMISSION,
                ),
            ),
            migration=MigrationConfig(enabled=False),
        )


def default_topology(
    n_servers: int,
    migration: Optional[MigrationConfig] = None,
    admission: Optional[AdmissionConfig] = None,
) -> EdgeTopologyConfig:
    """A deterministic heterogeneous N-node topology.

    Pure function of its arguments — no randomness — so two processes
    building ``default_topology(4)`` get identical configs. Nodes
    alternate between beefy/near and lean/far so every placement policy
    has something to disagree about: capacity and speedup shrink with
    the index while distance and RTT grow.
    """
    if n_servers < 1:
        raise EdgeError(f"n_servers must be >= 1, got {n_servers}")
    base = EdgeServerConfig()
    base_link = LinkConfig()
    nodes = []
    for i in range(n_servers):
        shrink = 1.0 - 0.15 * (i % 4)
        nodes.append(
            EdgeNodeConfig(
                server=EdgeServerConfig(
                    capacity_streams=base.capacity_streams * shrink,
                    queue_exponent=base.queue_exponent,
                    speedup=base.speedup * shrink,
                    name=f"edge-{i}",
                ),
                link=LinkConfig(
                    bytes_per_ms=base_link.bytes_per_ms * shrink,
                    rtt_ms=base_link.rtt_ms + 2.0 * i,
                    drift_sigma=base_link.drift_sigma,
                    min_scale=base_link.min_scale,
                    max_scale=base_link.max_scale,
                ),
                admission=(
                    admission if admission is not None else AdmissionConfig()
                ),
                distance=10.0 * i,
            )
        )
    return EdgeTopologyConfig(
        nodes=tuple(nodes),
        migration=migration if migration is not None else MigrationConfig(),
    )


class EdgeNode:
    """Live state of one topology node: server, attached links, health."""

    def __init__(self, config: EdgeNodeConfig) -> None:
        self.config = config
        self.server = EdgeServer(config.server)
        self._bandwidth_scale = 1.0
        self._outage = False
        self._links: Dict[str, WirelessLink] = {}

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def in_outage(self) -> bool:
        return self._outage

    @property
    def bandwidth_scale(self) -> float:
        """Node-side scale applied on top of each session link's drift."""
        return self._bandwidth_scale

    @property
    def utilization(self) -> float:
        """Live demand over capacity, the admission policies' input."""
        return utilization(
            self.server.total_streams, self.config.server.capacity_streams
        )

    def pricing_share(self, extern_streams: float) -> EdgeShare:
        """The snapshot a *candidate* session would price this node with.

        Uses the node's nominal link at the node-side bandwidth scale —
        a prospective tenant has no drift trace here yet, so the node's
        cell-level state is the best available estimate.
        """
        return EdgeShare(
            capacity_streams=self.config.server.capacity_streams,
            queue_exponent=self.config.server.queue_exponent,
            extern_streams=extern_streams,
            rtt_ms=self.config.link.rtt_ms,
            bytes_per_ms=self.config.link.bytes_per_ms
            * self._bandwidth_scale,
            speedup=self.config.server.speedup,
        )

    def set_bandwidth_scale(self, scale: float) -> None:
        """Apply a cell-level bandwidth change to this node.

        Clamps to the node link's ``[min_scale, max_scale]`` band and
        forces every attached session link to the same scale (their
        per-session drift walks continue from there), modelling a shared
        backhaul event rather than per-device fading.
        """
        clamped = min(
            max(scale, self.config.link.min_scale), self.config.link.max_scale
        )
        self._bandwidth_scale = clamped
        for link in self._links.values():
            link.set_bandwidth_scale(
                min(
                    max(clamped, link.config.min_scale),
                    link.config.max_scale,
                )
            )

    def set_outage(self, outage: bool) -> None:
        """Mark the node down (or back up). Placement skips down nodes;
        the scheduler sheds every tenant of a node that goes down."""
        self._outage = bool(outage)

    def attach(self, session_id: str, link: WirelessLink) -> None:
        """Register a tenant and adopt its link into the node's cell."""
        self.server.register(session_id)
        self._links[session_id] = link

    def detach(self, session_id: str) -> None:
        self.server.release(session_id)
        del self._links[session_id]

    def tenants(self) -> Tuple[Tuple[str, float], ...]:
        """(tenant, demand) pairs in registration order, for shedding."""
        snapshot = self.server.snapshot()
        return tuple(
            (tenant, snapshot[tenant]) for tenant in self.server.tenant_ids
        )


class EdgeTopology:
    """N live nodes plus the session → node assignment table."""

    def __init__(self, config: EdgeTopologyConfig) -> None:
        self.config = config
        self._nodes: Dict[str, EdgeNode] = {}
        for node_config in config.nodes:
            self._nodes[node_config.name] = EdgeNode(node_config)
        self._assignment: Dict[str, str] = {}

    @property
    def nodes(self) -> Tuple[EdgeNode, ...]:
        """Nodes in config order — the deterministic tie-break order every
        placement policy uses."""
        return tuple(self._nodes.values())

    def node(self, name: str) -> EdgeNode:
        if name not in self._nodes:
            raise EdgeError(
                f"unknown node {name!r}; topology has {sorted(self._nodes)}"
            )
        return self._nodes[name]

    def assignment_of(self, session_id: str) -> Optional[str]:
        return self._assignment.get(session_id)

    def admit(
        self, node_name: str, est_streams: float
    ) -> AdmissionDecision:
        """Would ``node_name`` accept an arrival of ``est_streams``?

        Outages reject regardless of the admission policy — a down node
        cannot serve even if its queue is empty.
        """
        node = self.node(node_name)
        if node.in_outage:
            return AdmissionDecision(
                admitted=False,
                server=node_name,
                utilization=node.utilization,
                reason="node is in outage",
            )
        return decide(
            node.config.admission,
            node_name,
            node.server.total_streams,
            est_streams,
            node.config.server.capacity_streams,
        )

    def attach(
        self, session_id: str, node_name: str, link: WirelessLink
    ) -> EdgeNode:
        """Bind a session to a node (the placement decision, executed)."""
        if session_id in self._assignment:
            raise EdgeError(
                f"session {session_id!r} is already attached to "
                f"{self._assignment[session_id]!r}"
            )
        node = self.node(node_name)
        node.attach(session_id, link)
        self._assignment[session_id] = node_name
        return node

    def detach(self, session_id: str) -> str:
        """Unbind a session; returns the node it left.

        Raises :class:`~repro.errors.UnknownTenantError` for sessions the
        topology does not hold — the same stale-handle contract as
        :meth:`repro.edge.server.EdgeServer.release`.
        """
        if session_id not in self._assignment:
            raise UnknownTenantError(session_id, "<topology>", "detach")
        node_name = self._assignment.pop(session_id)
        self._nodes[node_name].detach(session_id)
        return node_name

    def shed_candidates(self, node_name: str) -> Tuple[str, ...]:
        """Tenants a saturated node should push back to their devices,
        newest first (empty when under the shed threshold)."""
        node = self.node(node_name)
        return shed_plan(
            node.config.admission,
            node.tenants(),
            node.config.server.capacity_streams,
        )
