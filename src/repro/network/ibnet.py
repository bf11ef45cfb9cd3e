"""Cluster-shaped InfiniBand network: per-node HCA links on one switch.

Builds the link graph for a :class:`~repro.cluster.topology.Cluster`:

* ``nic_up:<n>`` / ``nic_dn:<n>`` — the node's HCA send/receive directions.
  Their capacity follows the node's DVFS level (uncore feed limit).
* ``mem:<n>`` — the node's aggregate memory bandwidth, shared by concurrent
  shared-memory copies (the intra-node phase of multi-core collectives).
* ``switch`` — optional aggregate backplane (∞ for a non-blocking crossbar).
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..cluster.topology import Cluster, Node
from ..sim import Environment, Event
from .fabric import Link
from .kernel import VectorFabric
from .params import NetworkSpec


class IBNetwork:
    """The fabric plus the cluster-specific link topology."""

    def __init__(self, env: Environment, cluster: Cluster, spec: Optional[NetworkSpec] = None):
        self.env = env
        self.cluster = cluster
        self.spec = spec or NetworkSpec()
        self.fabric = VectorFabric(env, self.spec)
        self._switch: Optional[Link] = None
        #: Per-node HCA utilisation factor for interrupt-driven ("blocking")
        #: progression: sleeping ranks cannot keep the HCA queues full, so
        #: the achievable node bandwidth drops (set by the MPI job).
        self.progress_factor = {node.node_id: 1.0 for node in cluster.nodes}
        for node in cluster.nodes:
            self._build_node_links(node)
        if not math.isinf(self.spec.switch_oversubscription):
            self._switch = self.fabric.add_link(
                "switch", self.spec.nic_bw * self.spec.switch_oversubscription
            )
        self.n_racks = cluster.spec.racks
        if self.n_racks > 1:
            cap = self.spec.nic_bw * self.spec.rack_uplink_factor
            for rack in range(self.n_racks):
                self.fabric.add_link(f"rack_up:{rack}", cap)
                self.fabric.add_link(f"rack_dn:{rack}", cap)

    def _build_node_links(self, node: Node) -> None:
        spec = self.spec

        def nic_capacity(node=node) -> float:
            return (
                spec.nic_bw
                * spec.nic_dvfs_factor(node.mean_dvfs_ratio)
                * self.progress_factor[node.node_id]
            )

        self.fabric.add_link(f"nic_up:{node.node_id}", spec.nic_bw, nic_capacity)
        self.fabric.add_link(f"nic_dn:{node.node_id}", spec.nic_bw, nic_capacity)
        self.fabric.add_link(f"mem:{node.node_id}", spec.mem_bw_node)

    # -- link lookups ---------------------------------------------------------
    def nic_up(self, node_id: int) -> Link:
        return self.fabric.link(f"nic_up:{node_id}")

    def nic_dn(self, node_id: int) -> Link:
        return self.fabric.link(f"nic_dn:{node_id}")

    def mem(self, node_id: int) -> Link:
        return self.fabric.link(f"mem:{node_id}")

    def rack_up(self, rack: int) -> Link:
        return self.fabric.link(f"rack_up:{rack}")

    def rack_dn(self, rack: int) -> Link:
        return self.fabric.link(f"rack_dn:{rack}")

    def inter_node_path(self, src_node: int, dst_node: int) -> List[Link]:
        """Links a bulk transfer from ``src_node`` to ``dst_node`` crosses.

        Cross-rack traffic additionally traverses both racks' (typically
        oversubscribed) leaf-to-spine uplinks."""
        path = [self.nic_up(src_node), self.nic_dn(dst_node)]
        if self.n_racks > 1:
            src_rack = self.cluster.spec.rack_of_node(src_node)
            dst_rack = self.cluster.spec.rack_of_node(dst_node)
            if src_rack != dst_rack:
                path.insert(1, self.rack_up(src_rack))
                path.insert(2, self.rack_dn(dst_rack))
        if self._switch is not None:
            path.insert(1, self._switch)
        return path

    def loopback_path(self, node_id: int) -> List[Link]:
        """HCA loopback (used intra-node in blocking mode, §II-B)."""
        return [self.nic_up(node_id), self.nic_dn(node_id)]

    # -- transfers -------------------------------------------------------------
    def transfer_inter(
        self,
        src_node: int,
        dst_node: int,
        nbytes: float,
        cpu_cap: float = math.inf,
        label: str = "",
    ) -> Event:
        """Bulk transfer between two nodes (event fires at completion)."""
        if src_node == dst_node:
            path = self.loopback_path(src_node)
        else:
            path = self.inter_node_path(src_node, dst_node)
        return self.fabric.transfer(path, nbytes, cpu_cap=cpu_cap, label=label)

    def transfer_shm(
        self,
        node_id: int,
        nbytes: float,
        pair_cap: float,
        label: str = "",
    ) -> Event:
        """Shared-memory copy on ``node_id``: capped by the pair's copy
        bandwidth and sharing the node's memory link with other copies."""
        return self.fabric.transfer(
            [self.mem(node_id)], nbytes, cpu_cap=pair_cap, label=label
        )

    def dvfs_changed(self, node_id: Optional[int] = None) -> None:
        """Propagate a DVFS change into NIC capacities mid-flight.

        With ``node_id`` given, only that node's HCA links are marked
        changed, so the fabric re-rates just the flows touching them.
        """
        if node_id is None:
            self.fabric.capacities_changed()
        else:
            self.fabric.capacities_changed(
                [self.nic_up(node_id), self.nic_dn(node_id)]
            )
