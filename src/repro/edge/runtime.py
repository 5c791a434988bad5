"""Per-session edge runtime: server tenancy + link trace + extension.

An :class:`EdgeRuntime` is the one handle a device simulator needs to
offload: it registers the session as a tenant of a (possibly shared)
:class:`~repro.edge.server.EdgeServer`, owns the session's
:class:`~repro.edge.link.WirelessLink` drift trace, and produces the
:class:`~repro.edge.share.EdgeShare` snapshots both pricing paths
consume. :func:`extend_taskset` adds the nominal ``EDGE`` isolation
latency to each profile so Algorithm 1's priority queue can rank the
edge choice against Table I's on-device columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.device.profiles import StaticProfile
from repro.device.resources import Resource
from repro.edge.link import LinkConfig, WirelessLink
from repro.edge.server import EdgeServer, EdgeServerConfig
from repro.edge.share import (
    EdgeShare,
    edge_demand,
    edge_queue_ms,
    edge_slowdown,
    edge_total_ms,
    edge_tx_ms,
)
from repro.errors import EdgeError
from repro.models.tasks import TaskSet
from repro.obs import runtime as obs
from repro.rng import SeedLike


@dataclass(frozen=True)
class EdgeConfig:
    """Top-level switch for the edge subsystem.

    Passing one of these anywhere (``repro tune --edge``, an edge
    topology node, ``build_system(edge=...)``) turns the fourth resource
    on; omitting it leaves every code path byte-identical to a
    device-only build.
    """

    server: EdgeServerConfig = field(default_factory=EdgeServerConfig)
    link: LinkConfig = field(default_factory=LinkConfig)


def nominal_share(config: EdgeConfig, extern_streams: float = 0.0) -> EdgeShare:
    """The pricing snapshot at nominal link state (bandwidth scale 1)."""
    return EdgeShare(
        capacity_streams=config.server.capacity_streams,
        queue_exponent=config.server.queue_exponent,
        extern_streams=extern_streams,
        rtt_ms=config.link.rtt_ms,
        bytes_per_ms=config.link.bytes_per_ms,
        speedup=config.server.speedup,
    )


def extend_profile(profile: StaticProfile, config: EdgeConfig) -> StaticProfile:
    """Add the nominal ``EDGE`` isolation latency to a Table I profile.

    The entry is the contention-free offload latency at nominal link
    state: transfer plus server compute. It feeds Algorithm 1's priority
    queue and the allocator's fallbacks; pricing never reads it (the
    contention model decomposes transfer and compute from the live
    :class:`~repro.edge.share.EdgeShare` instead). Profiles without a
    CPU column cannot be offloaded and pass through unchanged.
    """
    if not profile.supports(Resource.CPU):
        return profile
    share = nominal_share(config)
    iso_ms = edge_total_ms(profile, share)
    return replace(
        profile, latency_ms={**profile.latency_ms, Resource.EDGE: iso_ms}
    )


def extend_taskset(taskset: TaskSet, config: EdgeConfig) -> TaskSet:
    """A copy of ``taskset`` whose profiles carry the ``EDGE`` entry."""
    tasks = [
        replace(task, profile=extend_profile(task.profile, config))
        for task in taskset
    ]
    return TaskSet(name=taskset.name, tasks=tasks)


class EdgeRuntime:
    """One session's live connection to the edge subsystem."""

    def __init__(
        self,
        config: EdgeConfig,
        server: EdgeServer,
        link: WirelessLink,
        session_id: str = "session",
        register: bool = True,
    ) -> None:
        self.config = config
        self.server = server
        self.link = link
        self.session_id = session_id
        self._released = False
        # A topology registers the tenancy itself (EdgeTopology.attach);
        # pass register=False there so the runtime adopts the existing
        # registration instead of raising on the duplicate.
        if register:
            server.register(session_id)

    def set_demand_streams(self, streams: float) -> None:
        """Publish this session's offloaded stream demand to the server."""
        if self._released:
            raise EdgeError(
                f"edge runtime for {self.session_id!r} was already released"
            )
        self.server.set_demand(self.session_id, streams)

    def share(self) -> EdgeShare:
        """The pricing snapshot right now: live link state, live
        external demand."""
        return EdgeShare(
            capacity_streams=self.config.server.capacity_streams,
            queue_exponent=self.config.server.queue_exponent,
            extern_streams=self.server.extern_streams(self.session_id),
            rtt_ms=self.link.rtt_ms,
            bytes_per_ms=self.link.bytes_per_ms,
            speedup=self.config.server.speedup,
        )

    def advance_period(self) -> None:
        """Advance the link drift trace by one control period."""
        self.link.advance_period()

    def record_period(self, offloaded: Sequence[StaticProfile]) -> None:
        """Emit obs metrics for one measured control period."""
        if not offloaded:
            return
        share = self.share()
        own_streams = 0.0
        for profile in offloaded:
            own_streams += edge_demand(profile)
        slow = edge_slowdown(share.extern_streams + own_streams, share)
        obs.counter("edge_offloaded_tasks").inc(len(offloaded))
        for profile in offloaded:
            obs.histogram("link_tx_ms").observe(edge_tx_ms(profile, share))
            obs.histogram("edge_queue_ms").observe(
                edge_queue_ms(profile, share, slow)
            )

    def migrate(
        self, config: EdgeConfig, server: EdgeServer, link: WirelessLink
    ) -> None:
        """Rebind this runtime to another server and link mid-session.

        The caller (the fleet scheduler, via :class:`~repro.edge.topology.
        EdgeTopology`) has already released the old tenancy and registered
        the session on ``server``; this swaps the references the device
        simulator prices through, so the very next :meth:`share` snapshot
        reflects the new node. The taskset's nominal ``EDGE`` latency rows
        keep their admission-time values — they only seed Algorithm 1's
        ranking; pricing always reads the live snapshot.
        """
        if self._released:
            raise EdgeError(
                f"edge runtime for {self.session_id!r} was already released"
            )
        self.config = config
        self.server = server
        self.link = link

    def abandon(self) -> None:
        """Mark the runtime released without touching the server.

        Used when an :class:`~repro.edge.topology.EdgeTopology` already
        detached the tenancy on the session's behalf: the topology, not
        the runtime, releases the server.
        """
        self._released = True


def build_edge_runtime(
    config: Optional[EdgeConfig] = None,
    seed: SeedLike = None,
    session_id: str = "session",
    server: Optional[EdgeServer] = None,
) -> EdgeRuntime:
    """Convenience factory: a runtime with its own server unless one is
    shared in (fleet runs share a single server across sessions)."""
    cfg = config if config is not None else EdgeConfig()
    srv = server if server is not None else EdgeServer(cfg.server)
    link = WirelessLink(cfg.link, seed)
    return EdgeRuntime(cfg, srv, link, session_id=session_id)
