"""InfiniBand network model: links, flows, max-min sharing, QDR parameters."""

from .fabric import Flow, Link, ScalarFabric, maxmin_rates
from .ibnet import IBNetwork
from .params import NetworkSpec

__all__ = [
    "Flow",
    "IBNetwork",
    "Link",
    "NetworkSpec",
    "ScalarFabric",
    "maxmin_rates",
]
