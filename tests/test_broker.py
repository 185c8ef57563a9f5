"""Broker behaviour: loopback pub/sub, routing, grants, faults, load."""

import asyncio
import json
import random
import socket

import pytest

from sensert import wire
from sensert.broker import Broker, BrokerConfig, BridgeRule
from sensert.mqtt_client import MqttClient


def run(coro):
    return asyncio.run(coro)


async def _start_broker(**kw) -> Broker:
    b = Broker(**kw)
    await b.start("127.0.0.1", 0)
    return b


def test_loopback_publish_subscribe():
    async def main():
        broker = await _start_broker()
        host, port = broker.address
        sub = await MqttClient.connect(host, port, client_id="sub")
        assert await sub.subscribe(["tele/#"]) == [0x00]
        pub = await MqttClient.connect(host, port, client_id="pub")
        await pub.publish("tele/p1/SENSOR", b'{"v": 1}')
        topic, payload, retain = await sub.next_message(timeout=2)
        assert (topic, payload, retain) == ("tele/p1/SENSOR", b'{"v": 1}', False)
        await sub.close()
        await pub.close()
        await broker.stop()

    run(main())


def test_two_subscribers_each_get_one_copy():
    async def main():
        broker = await _start_broker()
        host, port = broker.address
        subs = [await MqttClient.connect(host, port, client_id=f"s{i}") for i in range(2)]
        for s in subs:
            await s.subscribe(["tele/#"])
        pub = await MqttClient.connect(host, port)
        await pub.publish("tele/p1/SENSOR", b"x")
        for s in subs:
            topic, payload, _ = await s.next_message(timeout=2)
            assert topic == "tele/p1/SENSOR"
        for s in subs:
            await s.close()
        await pub.close()
        await broker.stop()

    run(main())


def test_overlapping_filters_single_delivery():
    async def main():
        broker = await _start_broker()
        host, port = broker.address
        sub = await MqttClient.connect(host, port, client_id="s")
        await sub.subscribe(["a/#", "a/+"])
        pub = await MqttClient.connect(host, port)
        await pub.publish("a/b", b"1")
        await pub.publish("a/c", b"2")  # marker to prove no duplicate of a/b
        t1, p1, _ = await sub.next_message(timeout=2)
        t2, p2, _ = await sub.next_message(timeout=2)
        assert (t1, p1) == ("a/b", b"1")
        assert (t2, p2) == ("a/c", b"2")
        await sub.close()
        await pub.close()
        await broker.stop()

    run(main())


def test_subscribe_grants_per_filter():
    async def main():
        broker = await _start_broker()
        host, port = broker.address
        c = await MqttClient.connect(host, port)
        assert await c.subscribe(["tele/+/SENSOR"]) == [0x00]
        assert await c.subscribe(["a/#/b"]) == [0x80]
        assert await c.subscribe(["ok/1", "a/#/b", "ok/2"]) == [0x00, 0x80, 0x00]
        await c.close()
        await broker.stop()

    run(main())


def test_unsubscribe_stops_delivery():
    async def main():
        broker = await _start_broker()
        host, port = broker.address
        sub = await MqttClient.connect(host, port)
        await sub.subscribe(["x/#"])
        pub = await MqttClient.connect(host, port)
        await pub.publish("x/1", b"a")
        assert (await sub.next_message(timeout=2))[1] == b"a"
        await sub.unsubscribe(["x/#"])
        await pub.publish("x/2", b"b")
        with pytest.raises(asyncio.TimeoutError):
            await sub.next_message(timeout=0.3)
        await sub.close()
        await pub.close()
        await broker.stop()

    run(main())


def test_no_echo_to_publisher_session():
    async def main():
        broker = await _start_broker()
        host, port = broker.address
        both = await MqttClient.connect(host, port, client_id="both")
        await both.subscribe(["#"])
        other = await MqttClient.connect(host, port, client_id="other")
        await other.subscribe(["#"])
        await both.publish("t", b"self")
        topic, payload, _ = await other.next_message(timeout=2)
        assert payload == b"self"
        # publisher must not hear its own message back on the same link
        with pytest.raises(asyncio.TimeoutError):
            await both.next_message(timeout=0.3)
        await both.close()
        await other.close()
        await broker.stop()

    run(main())


def test_routing_matches_naive_oracle():
    """Randomized session/filter population vs a match-all-sessions oracle."""

    rng = random.Random(7)
    levels = ["a", "b", "c"]

    def random_topic():
        return "/".join(rng.choice(levels) for _ in range(rng.randint(1, 3)))

    def random_filter():
        parts = [rng.choice(levels + ["+"]) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            parts.append("#")
        return "/".join(parts)

    async def main():
        broker = await _start_broker()
        host, port = broker.address
        sessions = []
        expected_filters = []
        for i in range(8):
            c = await MqttClient.connect(host, port, client_id=f"s{i}")
            filters = sorted({random_filter() for _ in range(rng.randint(1, 3))})
            await c.subscribe(filters)
            sessions.append(c)
            expected_filters.append(filters)
        pub = await MqttClient.connect(host, port, client_id="pub")
        topics = [random_topic() for _ in range(60)]
        for t in topics:
            await pub.publish(t, t.encode())
        await pub.publish("end/marker", b"end")  # no subscriber matches this

        await asyncio.sleep(0.4)
        for i, c in enumerate(sessions):
            # oracle: a session receives each topic iff any of its filters match
            want = [t for t in topics if any(wire.topic_matches(f, t) for f in expected_filters[i])]
            got = []
            try:
                while True:
                    topic, _, _ = await c.next_message(timeout=0.15)
                    got.append(topic)
            except asyncio.TimeoutError:
                pass
            assert got == want, f"session {i} filters {expected_filters[i]}"
            await c.close()
        await pub.close()
        await broker.stop()

    run(main())


def test_fault_injection_bad_first_packet():
    async def main():
        broker = await _start_broker()
        host, port = broker.address
        # raw socket sending a reserved packet type as the first bytes
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(bytes([0xF0, 0x00]))
        await writer.drain()
        eof = await reader.read(64)
        assert eof == b""  # broker closed the connection
        writer.close()
        # broker still serves new clients
        c = await MqttClient.connect(host, port)
        await c.subscribe(["#"])
        await c.close()
        await broker.stop()

    run(main())


def test_connect_must_be_first():
    async def main():
        broker = await _start_broker()
        host, port = broker.address
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(wire.encode_packet(wire.Pingreq()))
        await writer.drain()
        assert await reader.read(64) == b""
        writer.close()
        await broker.stop()

    run(main())


def test_session_superseded_by_same_client_id():
    async def main():
        broker = await _start_broker()
        host, port = broker.address
        first = await MqttClient.connect(host, port, client_id="dup")
        await first.subscribe(["#"])
        second = await MqttClient.connect(host, port, client_id="dup")
        await second.subscribe(["#"])
        await asyncio.sleep(0.1)
        assert broker.live_sessions == 1
        pub = await MqttClient.connect(host, port)
        await pub.publish("t", b"x")
        assert (await second.next_message(timeout=2))[1] == b"x"
        await second.close()
        await first.close()
        await pub.close()
        await broker.stop()

    run(main())


def test_keepalive_expiry_disconnects():
    async def main():
        broker = await _start_broker()
        host, port = broker.address
        # keep_alive 1s but no ping task (keep_alive_s=0 disables client pings,
        # so connect with keep_alive 1 and immediately cancel the pinger).
        c = await MqttClient.connect(host, port, client_id="idle", keep_alive_s=1)
        for t in c._tasks[1:]:
            t.cancel()
        await asyncio.sleep(2.3)  # > 1.5 * keep_alive + watchdog period
        assert broker.live_sessions == 0
        await c.close()
        await broker.stop()

    run(main())


def test_load_100_clients_100_messages():
    async def main():
        broker = await _start_broker()
        host, port = broker.address
        clients = []
        for i in range(100):
            clients.append(await MqttClient.connect(host, port, client_id=f"c{i}"))

        async def blast(c, i):
            for k in range(100):
                await c.publish(f"load/{i}", b"%d" % k)

        await asyncio.gather(*(blast(c, i) for i, c in enumerate(clients)))
        await asyncio.sleep(0.2)
        assert broker.stats.msgs_in == 10_000
        for c in clients:
            await c.close()
        await broker.stop()

    run(main())


def test_per_connection_fifo_order():
    async def main():
        broker = await _start_broker()
        host, port = broker.address
        sub = await MqttClient.connect(host, port)
        await sub.subscribe(["seq/#"])
        pub = await MqttClient.connect(host, port)
        n = 500
        for i in range(n):
            await pub.publish("seq/x", b"%d" % i)
        got = [int((await sub.next_message(timeout=2))[1]) for _ in range(n)]
        assert got == list(range(n))
        await sub.close()
        await pub.close()
        await broker.stop()

    run(main())


def test_slow_consumer_does_not_delay_others():
    async def main():
        broker = await _start_broker(max_session_queue=512)
        host, port = broker.address

        # Stalled subscriber: raw TCP socket that never reads after subscribing.
        stalled = socket.create_connection((host, port))
        stalled.sendall(wire.encode_packet(wire.Connect("stalled", keep_alive_s=0)))
        stalled.sendall(wire.encode_packet(wire.Subscribe(1, ("big/#",))))

        healthy = await MqttClient.connect(host, port, client_id="healthy")
        await healthy.subscribe(["big/#"])
        pub = await MqttClient.connect(host, port)

        blob = b"x" * 2048
        n = 3000
        for i in range(n):
            await pub.publish("big/x", blob)
            await asyncio.sleep(0)  # paced: below a healthy consumer's capacity
        received = 0
        try:
            while received < n:
                await healthy.next_message(timeout=3)
                received += 1
        except asyncio.TimeoutError:
            pass
        assert received == n
        assert broker.stats.drops > 0  # stalled session overflowed its queue
        stalled_queue = broker._by_client_id["stalled"].queue
        assert stalled_queue.conserved()
        assert broker.stats.drops == stalled_queue.dropped
        stalled.close()
        await healthy.close()
        await pub.close()
        await broker.stop()

    run(main())


def test_route_publish_returns_delivery_count():
    """Routing-core contract without sockets: count, dedup, origin exclusion."""
    from sensert.broker import Broker, _Subscriber

    async def main():
        broker = Broker()

        def subscriber(*filters):
            sub = _Subscriber(broker.new_link_id(), 16, broker.stats)
            for f in filters:
                sub.filters[f] = wire.validate_filter(f)
            broker.register_subscriber(sub)
            return sub

        s1 = subscriber("tele/#")
        s2 = subscriber("tele/#")
        assert broker.route_publish(0, "tele/p1/SENSOR", b"x") == 2

        s3 = subscriber("a/#", "a/+")  # overlapping filters, one session
        assert broker.route_publish(0, "a/b", b"y") == 1
        assert s3.queue.pending == 1

        # never delivered back over the origin link
        assert broker.route_publish(s1.link_id, "tele/p2/SENSOR", b"z") == 1
        assert s1.queue.pending == 1  # only the first publish
        assert s2.queue.pending == 2

        assert broker.route_publish(0, "nomatch", b"") == 0

    run(main())


def test_broker_config_parsing():
    cfg = BrokerConfig.from_json(
        '{"listen": "127.0.0.1:1883", "bridges": ['
        '{"remote": "127.0.0.1:1884", "direction": "in", "filter": "v3/#", "local_prefix": "ttn"}]}'
    )
    assert cfg.listen_port == 1883
    assert cfg.bridges[0].remote_port == 1884
    assert cfg.bridges[0].local_prefix == "ttn"
    with pytest.raises(ValueError):
        BridgeRule(remote="x:1", direction="sideways")


@pytest.mark.parametrize("remote", ["1883", "127.0.0.1:notaport", "127.0.0.1:65536"])
def test_bad_addresses_fail_when_the_config_is_built(remote):
    with pytest.raises(ValueError):
        BridgeRule(remote=remote, direction="in")
    with pytest.raises(ValueError):
        BrokerConfig(listen=remote)
    with pytest.raises(ValueError):
        BrokerConfig.from_json(json.dumps({"bridges": [{"remote": remote}]}))


def test_publish_in_the_connack_segment_is_not_lost():
    """Bytes read past the CONNACK belong to the next frame."""

    async def main():
        async def peer(reader, writer):
            await reader.read(4096)  # the CONNECT
            writer.write(wire.encode_packet(wire.Connack(return_code=0))
                         + wire.encode_packet(wire.Publish("t", b"early")))
            await writer.drain()
            await reader.read()  # until the client hangs up
            writer.close()

        server = await asyncio.start_server(peer, "127.0.0.1", 0)
        client = await MqttClient.connect(*server.sockets[0].getsockname()[:2], keep_alive_s=0)
        assert await client.next_message(timeout=2) == ("t", b"early", False)
        await client.close()
        server.close()
        await server.wait_closed()

    run(main())
