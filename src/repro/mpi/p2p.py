"""Point-to-point messaging: matching, eager/rendezvous protocols, timing.

The engine reproduces MVAPICH2's two-protocol design:

* **eager** (≤ ``eager_threshold``): the sender fires and forgets; the
  payload travels immediately and is queued as *unexpected* if no receive
  is posted yet.
* **rendezvous** (large): sender and receiver must both arrive; an RTS/CTS
  round-trip precedes the bulk transfer, and both sides complete when the
  RDMA transfer does.

Intra-node messages use the shared-memory channel in polling mode; in
blocking mode they fall back to the HCA loopback (paper §II-B: blocking
mode "falls back to the network loop-back based communication instead of
using the shared-memory channels").
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from ..cluster.affinity import AffinityMap
from ..network.fabric import Link
from ..network.ibnet import IBNetwork
from ..sim import Environment, Event
from ..sim.events import URGENT
from .communicator import Communicator

ANY_SOURCE = -1
ANY_TAG = -1


class ProgressMode(enum.Enum):
    """Message progression strategy (§II-B)."""

    POLLING = "polling"
    BLOCKING = "blocking"


class _Send:
    """One message: its matching envelope, and the protocol's state.

    The eager and rendezvous protocols run as callback chains on this
    record: each step arms the next on the event it waits for.  ``recv``
    is the matched receive (rendezvous only); ``links``/``cap`` are the
    resolved path, kept between the handshake and the bulk transfer.
    """

    __slots__ = ("src", "dst", "tag", "comm_id", "nbytes", "posted_at", "done",
                 "engine", "recv", "links", "cap")

    def __init__(self, src, dst, tag, comm_id, nbytes, posted_at, done, engine):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.comm_id = comm_id
        self.nbytes = nbytes
        self.posted_at = posted_at
        self.done = done
        self.engine = engine
        self.recv: Optional[_Recv] = None
        self.links = ()
        self.cap = 0.0

    # -- eager chain: [wake] -> latency -> [transfer] -> arrive ---------------
    def _eager_start(self, _event: Event) -> None:
        self.engine._deliver_eager(self)

    def _eager_route(self, _event: Optional[Event] = None) -> None:
        engine = self.engine
        latency, self.links, self.cap = engine._path_params(self)
        engine.env.timeout(latency).callbacks.append(self._eager_transfer)

    def _eager_transfer(self, _event: Event) -> None:
        if self.nbytes > 0:
            self.engine.net.fabric.transfer(
                self.links, self.nbytes, cpu_cap=self.cap,
                label=f"e{self.src}->{self.dst}",
            ).callbacks.append(self._eager_arrive)
        else:
            self._eager_arrive(_event)

    def _eager_arrive(self, _event: Event) -> None:
        engine = self.engine
        recv = engine._match_posted_recv(self)
        if recv is not None:
            engine._complete_recv(recv, self)
        else:
            key = (self.comm_id, self.dst)
            engine._unexpected.setdefault(key, []).append(self)

    # -- rendezvous chain: [wake] -> RTS/CTS -> transfer -> complete ----------
    def _rndv_start(self, _event: Event) -> None:
        self.engine._rendezvous(self)

    def _rndv_route(self, _event: Optional[Event] = None) -> None:
        engine = self.engine
        latency, self.links, self.cap = engine._path_params(self)
        # RTS/CTS handshake round-trip before the bulk transfer.
        engine.env.timeout(
            latency * engine.spec.rndv_rtt_factor
        ).callbacks.append(self._rndv_transfer)

    def _rndv_transfer(self, _event: Event) -> None:
        self.engine.net.fabric.transfer(
            self.links, self.nbytes, cpu_cap=self.cap,
            label=f"r{self.src}->{self.dst}",
        ).callbacks.append(self._rndv_complete)

    def _rndv_complete(self, _event: Event) -> None:
        engine = self.engine
        self.done.succeed(engine.env.now)
        engine._complete_recv(self.recv, self)


class _Recv:
    __slots__ = ("src", "dst", "tag", "comm_id", "posted_at", "done")

    def __init__(self, src, dst, tag, comm_id, posted_at, done):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.comm_id = comm_id
        self.posted_at = posted_at
        self.done = done

    def matches(self, src: int, tag: int) -> bool:
        return (self.src in (ANY_SOURCE, src)) and (self.tag in (ANY_TAG, tag))


class MessageEngine:
    """Per-job matching engine and transfer scheduler."""

    def __init__(
        self,
        env: Environment,
        net: IBNetwork,
        affinity: AffinityMap,
        progress: ProgressMode = ProgressMode.POLLING,
        governor=None,
    ):
        self.env = env
        self.net = net
        self.spec = net.spec
        self.affinity = affinity
        self.progress = progress
        #: Optional online power governor (repro.runtime): notified right
        #: before a transfer samples its endpoints' CPU feed rates, so a
        #: countdown-dropped endpoint can be woken (RDMA needs its feed
        #: path) instead of crippling the flow for its whole lifetime.
        self.governor = governor
        # Keyed by (comm_id, dst_world_rank).
        self._posted_recvs: Dict[Tuple[int, int], List[_Recv]] = {}
        self._unexpected: Dict[Tuple[int, int], List[_Send]] = {}
        self._pending_rndv: Dict[Tuple[int, int], List[_Send]] = {}
        #: Link path per (src_node, dst_node).
        self._paths: Dict[Tuple[int, int], Tuple[Link, ...]] = {}
        #: Message counter for observability/tests.
        self.messages_sent = 0

    # -- public API ----------------------------------------------------------
    def post_send(
        self, src: int, dst: int, nbytes: int, tag: int, comm: Communicator
    ) -> Event:
        """Register a send; returns the sender-completion event."""
        if not comm.contains(src) or not comm.contains(dst):
            raise ValueError(f"ranks {src}->{dst} not both in {comm.name}")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if tag < 0:
            raise ValueError("send tag must be >= 0")
        done = self.env.event()
        send = _Send(src, dst, tag, comm.comm_id, nbytes, self.env.now, done, self)
        self.messages_sent += 1
        if nbytes <= self.spec.eager_threshold:
            # Eager: sender completes immediately; payload travels now.
            done.succeed(self.env.now)
            self._start(send._eager_start)
        else:
            recv = self._match_posted_recv(send)
            if recv is not None:
                send.recv = recv
                self._start(send._rndv_start)
            else:
                key = (send.comm_id, send.dst)
                self._pending_rndv.setdefault(key, []).append(send)
        return done

    def post_recv(
        self, dst: int, src: int, tag: int, comm: Communicator
    ) -> Event:
        """Register a receive; the event fires with (src, tag, nbytes)."""
        if not comm.contains(dst):
            raise ValueError(f"rank {dst} not in {comm.name}")
        if src != ANY_SOURCE and not comm.contains(src):
            raise ValueError(f"source {src} not in {comm.name}")
        done = self.env.event()
        recv = _Recv(src, dst, tag, comm.comm_id, self.env.now, done)
        key = (comm.comm_id, dst)
        # 1. Already-arrived eager message?
        arrived = self._unexpected.get(key, [])
        for i, send in enumerate(arrived):
            if recv.matches(send.src, send.tag):
                arrived.pop(i)
                self._complete_recv(recv, send)
                return done
        # 2. Waiting rendezvous sender?
        rndv = self._pending_rndv.get(key, [])
        for i, send in enumerate(rndv):
            if recv.matches(send.src, send.tag):
                rndv.pop(i)
                send.recv = recv
                self._start(send._rndv_start)
                return done
        # 3. Park.
        self._posted_recvs.setdefault(key, []).append(recv)
        return done

    def _start(self, protocol) -> None:
        """Queue a protocol's first step as one URGENT hop at the current
        time: the queue slot a process's start event would take, so
        same-timestamp work keeps its order."""
        hop = self.env.event()
        hop.callbacks.append(protocol)
        hop.succeed(priority=URGENT)

    # -- matching helpers ------------------------------------------------------
    def _match_posted_recv(self, send: _Send) -> Optional[_Recv]:
        key = (send.comm_id, send.dst)
        posted = self._posted_recvs.get(key, [])
        for i, recv in enumerate(posted):
            if recv.matches(send.src, send.tag):
                return posted.pop(i)
        return None

    def _complete_recv(self, recv: _Recv, send: _Send) -> None:
        recv.done.succeed((send.src, send.tag, send.nbytes))

    # -- timing ------------------------------------------------------------------
    def _route(self, src_node: int, dst_node: int) -> Tuple[Link, ...]:
        """The links a message from ``src_node`` to ``dst_node`` crosses."""
        if src_node != dst_node:
            return tuple(self.net.inter_node_path(src_node, dst_node))
        if self.progress is ProgressMode.POLLING:
            return (self.net.mem(src_node),)
        # Blocking mode: HCA loopback.
        return tuple(self.net.loopback_path(src_node))

    def _path_params(self, send: _Send):
        """Resolve (latency, links, cpu_cap) for a message.

        The links depend on the node pair only and are cached per pair;
        the cap follows the endpoint cores' current state."""
        src_core = self.affinity.core_of(send.src)
        dst_core = self.affinity.core_of(send.dst)
        src_node = src_core.node_id
        dst_node = dst_core.node_id
        links = self._paths.get((src_node, dst_node))
        if links is None:
            links = self._paths[src_node, dst_node] = self._route(src_node, dst_node)
        if src_node == dst_node and self.progress is ProgressMode.POLLING:
            fmax = src_core.spec.fmax
            copy_factor = min(
                self.spec.shm_copy_factor(c.frequency_ghz / fmax, c.duty)
                for c in (src_core, dst_core)
            )
            # Cross-socket pairs pay the QPI hop (Nehalem NUMA).
            pair_bw = (
                self.spec.shm_bw
                if src_core.socket_id == dst_core.socket_id
                else self.spec.shm_bw_cross_socket
            )
            return self.spec.shm_latency, links, pair_bw * copy_factor
        # Inter-node, or the blocking-mode loopback.
        pair_speed = min(src_core.speed_factor, dst_core.speed_factor)
        return (self.spec.inter_node_latency, links,
                self.spec.cpu_feed_bw * pair_speed)

    def _wake_endpoints(self, send: _Send) -> float:
        """Give the governor a chance to restore dropped endpoint cores
        before ``_path_params`` samples their feed rates; returns the
        transition time the transfer absorbs (usually none)."""
        return self.governor.transfer_starting(
            self.affinity.core_of(send.src), self.affinity.core_of(send.dst)
        )

    def _deliver_eager(self, send: _Send) -> None:
        """First step of the eager protocol, run at the start hop."""
        if self.governor is not None:
            delay = self._wake_endpoints(send)
            if delay > 0.0:
                self.env.timeout(delay).callbacks.append(send._eager_route)
                return
        send._eager_route()

    def _rendezvous(self, send: _Send) -> None:
        """First step of the rendezvous protocol, run at the start hop
        once sender and receiver have both arrived."""
        if self.governor is not None:
            delay = self._wake_endpoints(send)
            if delay > 0.0:
                self.env.timeout(delay).callbacks.append(send._rndv_route)
                return
        send._rndv_route()

    # -- introspection -------------------------------------------------------------
    def quiescent(self) -> bool:
        """True when no unmatched sends or receives remain (end-of-job check)."""
        return (
            all(not v for v in self._posted_recvs.values())
            and all(not v for v in self._unexpected.values())
            and all(not v for v in self._pending_rndv.values())
        )
