"""UDP sockets on a simulated host.

The stack routes reassembled datagrams to bound sockets.  Send-side CPU
cost (``sock_sendmsg`` plus fragmentation work) is *not* charged here —
the caller charges it, because who pays and under which lock is exactly
the paper's subject; :meth:`UdpStack.send_cost` computes the amount.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, TYPE_CHECKING

from ..errors import ProtocolError
from ..sim import Event
from .ip import fragment_count
from .packet import Datagram

if TYPE_CHECKING:  # pragma: no cover
    from .host import Host

__all__ = ["UdpStack", "UdpSocket"]

#: Portion of the sock_sendmsg cost that is per-fragment (building,
#: checksumming and queueing one IP fragment).  Calibrated with the base
#: so a 6-fragment 8 KB WRITE costs the paper's 50 µs (§3.5).
PER_FRAGMENT_FRACTION = 0.6


class UdpSocket:
    """A bound UDP endpoint with a FIFO receive queue."""

    __slots__ = ("_stack", "port", "_queue", "_waiter", "closed", "on_deliver")

    def __init__(self, stack: "UdpStack", port: int):
        self._stack = stack
        self.port = port
        self._queue: Deque[Datagram] = deque()
        self._waiter: Optional[Event] = None
        self.closed = False
        #: Optional data-ready callback (fired on every delivery), used by
        #: daemons that poll with :meth:`try_recv` instead of blocking.
        self.on_deliver = None

    def sendto(self, dst_host: str, dst_port: int, payload: Any, size: int) -> None:
        """Hand a datagram to the wire (timing handled by the links)."""
        if self.closed:
            raise ProtocolError(f"sendto on closed socket :{self.port}")
        dgram = Datagram(
            src=self._stack.host.name,
            src_port=self.port,
            dst=dst_host,
            dst_port=dst_port,
            payload=payload,
            size=size,
        )
        self._stack.host.port.send_datagram(dgram)

    def recv(self):
        """Generator: next datagram, blocking until one arrives."""
        while not self._queue:
            if self._waiter is None:
                self._waiter = Event(self._stack.host.sim)
            yield self._waiter
        return self._queue.popleft()

    def try_recv(self) -> Optional[Datagram]:
        """Non-blocking receive: a datagram or None."""
        if self._queue:
            return self._queue.popleft()
        return None

    @property
    def pending(self) -> int:
        return len(self._queue)

    def close(self) -> None:
        self.closed = True
        self._stack._unbind(self.port)

    def _deliver(self, dgram: Datagram) -> None:
        self._queue.append(dgram)
        if self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            waiter.trigger()
        if self.on_deliver is not None:
            self.on_deliver()


class UdpStack:
    """Per-host socket table."""

    __slots__ = ("host", "_sockets", "delivered", "dropped_no_socket", "_send_costs")

    def __init__(self, host: "Host"):
        self.host = host
        self._sockets: Dict[int, UdpSocket] = {}
        self.delivered = 0
        self.dropped_no_socket = 0
        #: ``send_cost`` by payload size: the host's ``CpuCosts`` and
        #: ``NetConfig`` are frozen, so the cost never changes.
        self._send_costs: Dict[int, int] = {}

    def socket(self, port: int) -> UdpSocket:
        if port in self._sockets:
            raise ProtocolError(f"{self.host.name}: port {port} already bound")
        sock = UdpSocket(self, port)
        self._sockets[port] = sock
        return sock

    def send_cost(self, payload_bytes: int) -> int:
        """CPU nanoseconds ``sock_sendmsg`` burns for this datagram.

        Split into a fixed socket/UDP portion and a per-IP-fragment
        portion, so jumbo frames genuinely cut the cost (§3.5's
        future-work hypothesis).
        """
        cost = self._send_costs.get(payload_bytes)
        if cost is None:
            total_ref = self.host.costs.sock_sendmsg
            ref_frags = 6  # 8 KB + RPC header at MTU 1500
            per_frag = int(total_ref * PER_FRAGMENT_FRACTION / ref_frags)
            base = total_ref - per_frag * ref_frags
            nfrags = fragment_count(payload_bytes, self.host.port.net)
            cost = self._send_costs[payload_bytes] = base + per_frag * nfrags
        return cost

    def deliver(self, dgram: Datagram) -> None:
        sock = self._sockets.get(dgram.dst_port)
        if sock is None or sock.closed:
            self.dropped_no_socket += 1
            return
        self.delivered += 1
        sock._deliver(dgram)

    def _unbind(self, port: int) -> None:
        self._sockets.pop(port, None)
