"""Energy model extension (beyond the paper's metrics; eAR heritage).

HBO's predecessor eAR [11] optimized energy; the paper leaves energy out
of its cost but the substrate naturally supports it: every processor has
an idle and a busy power draw, utilization follows from the contention
model's demand streams, and rendering contributes its own draw. This
module estimates average system power and per-period energy so that
energy-aware variants (and the ablation bench) can price configurations.

Powers are rough literature figures for recent flagship SoCs (sustained,
not peak): big-core CPU cluster ~0.3 W idle / ~2.8 W busy, mobile GPU
~0.25 W / ~3.2 W, NPU ~0.1 W / ~1.4 W, plus a display/camera floor.
Absolute watts matter less than the *ordering* they induce between
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.device.contention import ContentionModel
from repro.device.load import SystemLoad, TaskPlacement
from repro.device.resources import Processor, Resource
from repro.device.soc import SoCSpec
from repro.edge.share import (
    EdgeShare,
    edge_payload_bytes,
    edge_total_ms,
    edge_tx_ms,
)
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ProcessorPower:
    """Idle/busy draw of one processor, in watts."""

    idle_w: float
    busy_w: float

    def __post_init__(self) -> None:
        if self.idle_w < 0 or self.busy_w < self.idle_w:
            raise ConfigurationError(
                f"need 0 <= idle ({self.idle_w}) <= busy ({self.busy_w})"
            )

    def at_utilization(self, utilization: float) -> float:
        """Linear idle→busy interpolation at a [0, 1] utilization."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError(
                f"utilization must be in [0, 1], got {utilization}"
            )
        return self.idle_w + (self.busy_w - self.idle_w) * utilization


@dataclass(frozen=True)
class RadioPower:
    """Wireless-radio draw while offloading to the edge.

    LEAF/AIO-style framing: the radio dwells in a high-power active
    state (uplink ``tx_w``, downlink ``rx_w`` — typical Wi-Fi figures)
    only while a transfer is in flight, and falls back to a negligible
    connected-idle floor between frames. A continuously-inferring task
    keeps the radio active for the transfer slice of each inference
    cycle, so its duty cycle is ``tx_ms / total_latency_ms``.
    """

    tx_w: float = 1.1
    rx_w: float = 0.75
    idle_w: float = 0.01

    def __post_init__(self) -> None:
        if self.tx_w < 0 or self.rx_w < 0 or self.idle_w < 0:
            raise ConfigurationError(
                f"radio powers must be >= 0, got tx={self.tx_w} "
                f"rx={self.rx_w} idle={self.idle_w}"
            )

    def radio_power_w(
        self,
        placements: Sequence[TaskPlacement],
        edge: EdgeShare,
        edge_slowdown: float,
    ) -> float:
        """Average radio draw (W) for the EDGE-allocated placements.

        Each offloaded task contributes its transfer duty cycle at a
        tx/rx mix weighted by the up/down payload split; tasks running
        on-device contribute nothing beyond the idle floor.
        """
        total = self.idle_w
        for placement in placements:
            if placement.resource is not Resource.EDGE:
                continue
            profile = placement.profile
            tx_ms = edge_tx_ms(profile, edge)
            cycle_ms = edge_total_ms(profile, edge, edge_slowdown)
            if cycle_ms <= 0:
                continue
            duty = min(1.0, tx_ms / cycle_ms)
            up_fraction = profile.input_bytes / edge_payload_bytes(profile)
            active_w = up_fraction * self.tx_w + (1.0 - up_fraction) * self.rx_w
            total += duty * active_w
        return total


@dataclass(frozen=True)
class PowerModel:
    """System power as a function of processor utilizations."""

    processors: Mapping[Processor, ProcessorPower] = field(
        default_factory=lambda: {
            Processor.CPU: ProcessorPower(idle_w=0.3, busy_w=2.8),
            Processor.GPU: ProcessorPower(idle_w=0.25, busy_w=3.2),
            Processor.NPU: ProcessorPower(idle_w=0.1, busy_w=1.4),
        }
    )
    #: Display + camera + sensor floor of a live AR session.
    base_w: float = 1.2
    #: Radio accounting for edge offloading; only drawn upon when
    #: ``system_power_w`` is handed an edge share.
    radio: RadioPower = field(default_factory=RadioPower)

    def __post_init__(self) -> None:
        for proc in Processor:
            if proc not in self.processors:
                raise ConfigurationError(f"missing power spec for {proc}")
        if self.base_w < 0:
            raise ConfigurationError(f"base_w must be >= 0, got {self.base_w}")

    def utilizations(
        self,
        soc: SoCSpec,
        placements: Iterable[TaskPlacement],
        load: SystemLoad,
    ) -> Dict[Processor, float]:
        """Per-processor utilization in [0, 1] from the contention state.

        A processor at or beyond its stream capacity is fully busy;
        below it, utilization is the demand/capacity ratio. The GPU adds
        its render load (both channels) to the AI demand.
        """
        state = ContentionModel(soc).processor_state(placements, load)
        utilization: Dict[Processor, float] = {}
        for proc in Processor:
            streams = state.streams[proc]
            if proc is Processor.GPU:
                streams += state.render_gpu_streams
            utilization[proc] = min(1.0, streams / soc.capacity[proc])
        return utilization

    def system_power_w(
        self,
        soc: SoCSpec,
        placements: Iterable[TaskPlacement],
        load: SystemLoad,
        edge: Optional[EdgeShare] = None,
    ) -> float:
        """Average system draw (W) under a placement set and render load.

        With an edge share the radio's transfer duty cycle is added on
        top of the processor draws; ``None`` (the default) reproduces
        the pre-edge figure exactly.
        """
        placements = tuple(placements)
        utilization = self.utilizations(soc, placements, load)
        total = self.base_w
        for proc, u in utilization.items():
            total += self.processors[proc].at_utilization(u)
        if edge is not None:
            state = ContentionModel(soc).processor_state(placements, load, edge)
            total += self.radio.radio_power_w(placements, edge, state.edge_slowdown)
        return total

    def period_energy_j(
        self,
        soc: SoCSpec,
        placements: Iterable[TaskPlacement],
        load: SystemLoad,
        period_s: float,
        edge: Optional[EdgeShare] = None,
    ) -> float:
        """Energy (J) consumed over one control period."""
        if period_s <= 0:
            raise ConfigurationError(f"period_s must be > 0, got {period_s}")
        return self.system_power_w(soc, placements, load, edge=edge) * period_s


def energy_aware_cost(
    quality: float,
    epsilon: float,
    power_w: float,
    w_latency: float = 2.5,
    w_power: float = 0.05,
    reference_power_w: float = 4.0,
) -> float:
    """An energy-extended Eq. 5: φ = −(Q − w·ε − w_p·(P/P_ref − 1)).

    ``w_power`` prices relative power draw against quality; the default
    keeps it a tiebreaker rather than a dominant term, matching the
    paper's positioning of energy as future work.
    """
    if w_power < 0 or reference_power_w <= 0:
        raise ConfigurationError("w_power must be >= 0 and reference_power_w > 0")
    power_term = w_power * (power_w / reference_power_w - 1.0)
    return -(quality - w_latency * epsilon - power_term)
