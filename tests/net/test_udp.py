"""UDP stack edge cases."""

import pytest

from repro.config import NetConfig
from repro.errors import ProtocolError
from repro.net import Host, Switch
from repro.sim import Simulator


def make_host():
    sim = Simulator()
    switch = Switch(sim)
    host = Host(sim, "h", switch, NetConfig.gigabit())
    Host(sim, "peer", switch, NetConfig.gigabit())
    return sim, host


def test_double_bind_rejected():
    _sim, host = make_host()
    host.udp.socket(2049)
    with pytest.raises(ProtocolError):
        host.udp.socket(2049)


def test_send_on_closed_socket_rejected():
    _sim, host = make_host()
    sock = host.udp.socket(2049)
    sock.close()
    with pytest.raises(ProtocolError):
        sock.sendto("peer", 1, "x", 10)


def test_close_unbinds_port():
    sim, host = make_host()
    sock = host.udp.socket(2049)
    sock.close()
    sock2 = host.udp.socket(2049)  # rebindable after close
    assert sock2 is not sock


def test_delivery_to_closed_socket_dropped():
    sim, host = make_host()
    sock = host.udp.socket(2049)
    peer_sock_port = 9
    sock.close()
    from repro.net.packet import Datagram

    host.udp.deliver(Datagram("peer", peer_sock_port, "h", 2049, "x", 10))
    assert host.udp.dropped_no_socket == 1


def test_try_recv_nonblocking():
    sim, host = make_host()
    sock = host.udp.socket(2049)
    assert sock.try_recv() is None
    from repro.net.packet import Datagram

    host.udp.deliver(Datagram("peer", 9, "h", 2049, "hello", 10))
    dgram = sock.try_recv()
    assert dgram.payload == "hello"
    assert sock.try_recv() is None


def test_on_deliver_callback_fires():
    sim, host = make_host()
    sock = host.udp.socket(2049)
    pings = []
    sock.on_deliver = lambda: pings.append(sim.now)
    from repro.net.packet import Datagram

    host.udp.deliver(Datagram("peer", 9, "h", 2049, "x", 10))
    assert pings == [0]


def test_send_cost_monotone_in_size():
    _sim, host = make_host()
    costs = [host.udp.send_cost(size) for size in (100, 2000, 8392, 30000)]
    assert costs == sorted(costs)
    assert costs[0] > 0


def test_error_delivering_a_received_datagram_propagates(monkeypatch):
    """A failure in the receive path must fail the run, not vanish."""
    from repro.net.udp import UdpStack

    class DeliverFailed(Exception):
        pass

    def deliver(self, dgram):
        raise DeliverFailed(dgram.dst)

    sim, host = make_host()
    monkeypatch.setattr(UdpStack, "deliver", deliver)
    host.udp.socket(2049).sendto("peer", 9, "x", 10)
    with pytest.raises(DeliverFailed, match="peer"):
        sim.run()
