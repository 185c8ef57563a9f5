"""Bridging: in/out/both directions, prefixing, retries, loop freedom."""

import asyncio

import pytest

from sensert import pipe
from sensert.broker import Broker, BridgeRule
from sensert.mqtt_client import MqttClient


def run(coro):
    return asyncio.run(coro)


async def _broker(name="b") -> Broker:
    b = Broker(name=name)
    await b.start("127.0.0.1", 0)
    return b


async def _wait_connected(bridge, timeout=5.0):
    await asyncio.wait_for(bridge.link.up.wait(), timeout)


def test_in_bridge_republishes_locally_same_topic():
    async def main():
        remote = await _broker("ttn")
        local = await _broker("local")
        bridge = local.add_bridge(BridgeRule(
            remote=f"127.0.0.1:{remote.address[1]}", direction="in", filter="v3/+/devices/#"))
        await _wait_connected(bridge)

        sub = await MqttClient.connect(*local.address, client_id="sub")
        await sub.subscribe(["v3/#"])
        pub = await MqttClient.connect(*remote.address, client_id="dev")
        await pub.publish("v3/app/devices/d1/up", b'{"m": 1}')
        topic, payload, _ = await sub.next_message(timeout=3)
        assert topic == "v3/app/devices/d1/up"
        assert payload == b'{"m": 1}'
        await sub.close()
        await pub.close()
        await local.stop()
        await remote.stop()

    run(main())


def test_a_bridged_publish_whose_routing_raises_costs_only_itself():
    """The local broker's publish observer raises on one bridged-in publish:
    the bridge counts it as failed and keeps routing what follows."""
    def observer(from_bridge, topic, payload, t):
        if payload == b"boom":
            raise RuntimeError("observer fails")

    async def main():
        remote = await _broker("remote")
        local = Broker(name="local", publish_observer=observer)
        await local.start("127.0.0.1", 0)
        bridge = local.add_bridge(BridgeRule(
            remote=f"127.0.0.1:{remote.address[1]}", direction="in", filter="t/#"))
        await _wait_connected(bridge)
        sub = await MqttClient.connect(*local.address, client_id="sub")
        await sub.subscribe(["t/#"])
        pub = await MqttClient.connect(*remote.address, client_id="dev")
        for payload in (b"boom", b"ok"):
            await pub.publish("t/1", payload)
        assert await sub.next_message(timeout=3) == ("t/1", b"ok", False)
        assert bridge.sink.failed == 1 and bridge.link.up.is_set()
        for client in (sub, pub):
            await client.close()
        await local.stop()
        await remote.stop()

    run(main())


def test_in_bridge_local_prefix():
    async def main():
        remote = await _broker("remote")
        local = await _broker("local")
        bridge = local.add_bridge(BridgeRule(
            remote=f"127.0.0.1:{remote.address[1]}", direction="in",
            filter="#", local_prefix="ttn"))
        await _wait_connected(bridge)

        sub = await MqttClient.connect(*local.address)
        await sub.subscribe(["ttn/#"])
        pub = await MqttClient.connect(*remote.address)
        await pub.publish("a/b", b"x")
        topic, _, _ = await sub.next_message(timeout=3)
        assert topic == "ttn/a/b"
        await sub.close()
        await pub.close()
        await local.stop()
        await remote.stop()

    run(main())


def test_out_bridge_forwards_to_remote():
    async def main():
        remote = await _broker("remote")
        local = await _broker("local")
        bridge = local.add_bridge(BridgeRule(
            remote=f"127.0.0.1:{remote.address[1]}", direction="out", filter="share/#"))
        await _wait_connected(bridge)

        remote_sub = await MqttClient.connect(*remote.address)
        await remote_sub.subscribe(["share/#"])
        pub = await MqttClient.connect(*local.address)
        await pub.publish("share/x", b"out")
        await pub.publish("keep/x", b"no")  # not matching the bridge filter
        topic, payload, _ = await remote_sub.next_message(timeout=3)
        assert (topic, payload) == ("share/x", b"out")
        with pytest.raises(asyncio.TimeoutError):
            await remote_sub.next_message(timeout=0.3)
        await remote_sub.close()
        await pub.close()
        await local.stop()
        await remote.stop()

    run(main())


def test_bridged_message_not_echoed_back():
    """A message arriving over the bridge is never re-forwarded out of it."""

    async def main():
        remote = await _broker("remote")
        local = await _broker("local")
        bridge = local.add_bridge(BridgeRule(
            remote=f"127.0.0.1:{remote.address[1]}", direction="both", filter="#"))
        await _wait_connected(bridge)

        counter = await MqttClient.connect(*remote.address, client_id="counter")
        await counter.subscribe(["#"])
        local_sub = await MqttClient.connect(*local.address, client_id="lsub")
        await local_sub.subscribe(["#"])

        pub = await MqttClient.connect(*remote.address, client_id="rpub")
        await pub.publish("t/1", b"hello")

        # arrives locally exactly once
        assert (await local_sub.next_message(timeout=3))[1] == b"hello"
        with pytest.raises(asyncio.TimeoutError):
            await local_sub.next_message(timeout=0.4)

        # the remote counting subscriber sees the original only, zero echoes
        assert (await counter.next_message(timeout=3))[1] == b"hello"
        with pytest.raises(asyncio.TimeoutError):
            await counter.next_message(timeout=0.4)

        await counter.close()
        await local_sub.close()
        await pub.close()
        await local.stop()
        await remote.stop()

    run(main())


def test_both_direction_single_publish_finite_deliveries():
    async def main():
        a = await _broker("a")
        b = await _broker("b")
        bridge = a.add_bridge(BridgeRule(
            remote=f"127.0.0.1:{b.address[1]}", direction="both", filter="#"))
        await _wait_connected(bridge)

        sub_a = await MqttClient.connect(*a.address, client_id="sa")
        await sub_a.subscribe(["#"])
        sub_b = await MqttClient.connect(*b.address, client_id="sb")
        await sub_b.subscribe(["#"])

        pub = await MqttClient.connect(*a.address, client_id="pa")
        await pub.publish("loop/test", b"once")
        await asyncio.sleep(0.6)

        got_a = got_b = 0
        try:
            while True:
                await sub_a.next_message(timeout=0.2)
                got_a += 1
        except asyncio.TimeoutError:
            pass
        try:
            while True:
                await sub_b.next_message(timeout=0.2)
                got_b += 1
        except asyncio.TimeoutError:
            pass
        assert got_a == 1  # no storm, no echo copy
        assert got_b == 1
        await sub_a.close()
        await sub_b.close()
        await pub.close()
        await a.stop()
        await b.stop()

    run(main())


def test_bridge_retries_until_remote_appears():
    async def main():
        local = await _broker("local")
        # reserve a port by binding and closing a throwaway server
        probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
        port = probe.sockets[0].getsockname()[1]
        probe.close()
        await probe.wait_closed()

        bridge = local.add_bridge(BridgeRule(
            remote=f"127.0.0.1:{port}", direction="in", filter="#"))
        await asyncio.sleep(0.7)  # at least one failed attempt
        assert not bridge.link.up.is_set()

        remote = Broker(name="late")
        await remote.start("127.0.0.1", port)
        await _wait_connected(bridge, timeout=10)

        sub = await MqttClient.connect(*local.address)
        await sub.subscribe(["#"])
        pub = await MqttClient.connect(*remote.address)
        await pub.publish("t", b"late")
        assert (await sub.next_message(timeout=3))[1] == b"late"
        await sub.close()
        await pub.close()
        await local.stop()
        await remote.stop()

    run(main())


def test_three_broker_aggregation():
    """local bridged In from ttn and zigbee: both feeds converge on local."""

    async def main():
        ttn = await _broker("ttn")
        zig = await _broker("zigbee")
        local = await _broker("local")
        b1 = local.add_bridge(BridgeRule(
            remote=f"127.0.0.1:{ttn.address[1]}", direction="in", filter="v3/#"))
        b2 = local.add_bridge(BridgeRule(
            remote=f"127.0.0.1:{zig.address[1]}", direction="in", filter="zigbee/#"))
        await _wait_connected(b1)
        await _wait_connected(b2)

        sub = await MqttClient.connect(*local.address)
        await sub.subscribe(["#"])
        p1 = await MqttClient.connect(*ttn.address)
        p2 = await MqttClient.connect(*zig.address)
        await p1.publish("v3/app/devices/d1/up", b"1")
        await p2.publish("zigbee/m1/state", b"2")
        got = {(await sub.next_message(timeout=3))[0] for _ in range(2)}
        assert got == {"v3/app/devices/d1/up", "zigbee/m1/state"}
        await sub.close()
        await p1.close()
        await p2.close()
        await local.stop()
        await ttn.stop()
        await zig.stop()

    run(main())


def test_routed_publishes_carry_retain_0():
    """No retained-message store, so RETAIN is 0 towards established
    subscriptions (MQTT-3.3.1-9), locally and over a bridge either way."""

    async def main():
        remote = await _broker("remote")
        local = await _broker("local")
        bridge = local.add_bridge(BridgeRule(
            remote=f"127.0.0.1:{remote.address[1]}", direction="both", filter="t/#"))
        await _wait_connected(bridge)
        local_sub = await MqttClient.connect(*local.address)
        await local_sub.subscribe(["t/#"])
        remote_sub = await MqttClient.connect(*remote.address)
        await remote_sub.subscribe(["t/#"])

        local_pub = await MqttClient.connect(*local.address)
        await local_pub.publish("t/out", b"1", retain=True)
        assert await local_sub.next_message(timeout=3) == ("t/out", b"1", False)
        assert await remote_sub.next_message(timeout=3) == ("t/out", b"1", False)

        remote_pub = await MqttClient.connect(*remote.address)
        await remote_pub.publish("t/in", b"2", retain=True)
        assert await remote_sub.next_message(timeout=3) == ("t/in", b"2", False)
        assert await local_sub.next_message(timeout=3) == ("t/in", b"2", False)

        for c in (local_sub, remote_sub, local_pub, remote_pub):
            await c.close()
        await local.stop()
        await remote.stop()

    run(main())


def test_bridge_in_goes_through_the_client_inbound_queue():
    async def main():
        n = 50
        remote = await _broker("remote")
        local = await _broker("local")
        bridge = local.add_bridge(BridgeRule(
            remote=f"127.0.0.1:{remote.address[1]}", direction="in", filter="#"))
        await _wait_connected(bridge)
        sub = await MqttClient.connect(*local.address)
        await sub.subscribe(["#"])
        pub = await MqttClient.connect(*remote.address)
        for i in range(n):
            await pub.publish(f"d/{i}", b"x")
        got = [(await sub.next_message(timeout=3))[0] for _ in range(n)]
        assert got == [f"d/{i}" for i in range(n)]

        inbound = bridge.link.conn.inbound
        assert (inbound.offered, inbound.delivered, inbound.dropped) == (n, n, 0)
        assert inbound.conserved()
        assert local.pending_frames() == 0
        await sub.close()
        await pub.close()
        await local.stop()
        await remote.stop()

    run(main())


def test_bridge_retries_past_a_peer_that_is_not_mqtt(monkeypatch):
    """A remote that answers HTTP does not end the bridge: it keeps retrying
    and connects once a broker listens there."""
    monkeypatch.setattr(pipe, "BACKOFF_BASE_S", 0.05)

    async def main():
        answered = 0

        async def http_server(reader, writer):
            nonlocal answered
            answered += 1
            writer.write(b"HTTP/1.1 400 Bad Request\r\n\r\n")
            await writer.drain()
            writer.close()

        fake = await asyncio.start_server(http_server, "127.0.0.1", 0)
        port = fake.sockets[0].getsockname()[1]
        local = await _broker("local")
        bridge = local.add_bridge(BridgeRule(
            remote=f"127.0.0.1:{port}", direction="in", filter="#"))
        for _ in range(300):
            if answered >= 2:
                break
            await asyncio.sleep(0.01)
        assert answered >= 2
        fake.close()
        await fake.wait_closed()

        remote = Broker(name="remote")
        await remote.start("127.0.0.1", port)
        await _wait_connected(bridge)
        await local.stop()
        await remote.stop()

    run(main())
