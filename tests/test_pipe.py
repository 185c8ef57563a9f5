"""The shared pipeline primitives: BoundedQueue, Pump, Sink, Link, parse_addr, now_ms."""

import argparse
import asyncio
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensert import pipe, wire
from sensert.broker import Broker
from sensert.cli import _addr
from sensert.mqtt_client import MqttClient, MqttError
from sensert.pipe import BoundedQueue, Link, Pump, QueueClosed, Sink, now_ms, parse_addr


def run(coro):
    return asyncio.run(coro)


ops = st.lists(st.one_of(
    st.tuples(st.just("put"), st.integers()),
    st.just(("get",)),
    st.just(("peek",)),
    st.just(("close",)),
), max_size=200)


@settings(max_examples=300)
@given(capacity=st.integers(1, 8), overflow=st.sampled_from(["drop_oldest", "drop_newest"]),
       ops=ops)
def test_bounded_queue_matches_list_model(capacity, overflow, ops):
    q = BoundedQueue(capacity, overflow)
    model: list[int] = []
    offered = delivered = dropped = 0
    closed = False
    for op in ops:
        if op[0] == "put":
            offered += 1
            if closed or (len(model) == capacity and overflow == "drop_newest"):
                dropped += 1
                assert q.put(op[1]) is False
            elif len(model) == capacity:
                model.pop(0)
                model.append(op[1])
                dropped += 1
                assert q.put(op[1]) is False
            else:
                model.append(op[1])
                assert q.put(op[1]) is True
        elif op[0] == "get":
            expected = model.pop(0) if model else None
            delivered += expected is not None
            assert q.get_nowait() == expected
        elif op[0] == "peek":
            # the head that the next get_nowait returns; no counter moves
            assert q.peek() == (model[0] if model else None)
        else:
            closed = True
            q.close()
        assert (q.offered, q.delivered, q.dropped, q.pending) == (
            offered, delivered, dropped, len(model))
        assert q.conserved()
    assert [q.get_nowait() for _ in model] == model


def test_get_waits_then_raises_only_once_closed_and_drained():
    async def main():
        q = BoundedQueue(4)
        getter = asyncio.create_task(q.get())
        await asyncio.sleep(0.01)
        assert not getter.done()
        q.put("a")
        q.put("b")
        assert await getter == "a"
        q.close()
        assert await q.get() == "b"  # closing keeps what is queued
        with pytest.raises(QueueClosed):
            await q.get()
        assert q.conserved()

    run(main())


def test_timed_out_get_loses_no_item():
    async def main():
        loop = asyncio.get_running_loop()
        q = BoundedQueue(16)
        got = []
        for i in range(50):
            # the put lands around the timeout: either get returns it or it stays queued
            loop.call_later(0.002, q.put, i)
            try:
                got.append(await asyncio.wait_for(q.get(), 0.002))
            except asyncio.TimeoutError:
                pass
        await asyncio.sleep(0.01)
        while (item := q.get_nowait()) is not None:
            got.append(item)
        assert got == list(range(50))
        assert q.conserved() and q.dropped == 0

    run(main())


class FakeOut:
    """A connection for a Pump: records writes; ``fail`` drains raise, and
    while ``hold`` is set a drain waits on it."""

    def __init__(self, fail: int = 0, hold: asyncio.Event | None = None):
        self.writes: list[bytes] = []
        self.fail = fail
        self.hold = hold

    def write(self, data: bytes) -> None:
        self.writes.append(data)

    async def drain(self) -> None:
        if self.hold is not None:
            await self.hold.wait()
        if self.fail:
            self.fail -= 1
            raise ConnectionResetError("drain failed")


def line(i: int) -> bytes:
    return b"%d\n" % i


def test_pump_writes_each_item_once_in_order_and_returns_once_closed():
    async def main():
        q = BoundedQueue(8)
        pump, out = Pump(q, line), FakeOut()
        task = asyncio.create_task(pump.run(out))
        for i in range(5):
            q.put(i)
        await asyncio.sleep(0.01)
        assert not task.done()  # waiting for the next item
        q.put(5)
        q.close()
        await asyncio.wait_for(task, 1)
        assert out.writes == [line(i) for i in range(6)]  # one write per item
        assert pump.sent == 6
        assert (q.offered, q.delivered, q.dropped, q.pending) == (6, 6, 0, 0)
        await asyncio.wait_for(pump.run(FakeOut()), 1)  # closed and drained: returns at once
        assert pump.sent == 6

    run(main())


def test_pump_keeps_the_item_whose_drain_failed_and_writes_it_first():
    async def main():
        q = BoundedQueue(8)
        for i in range(4):
            q.put(i)
        pump, lost = Pump(q, line), FakeOut(fail=1)
        with pytest.raises(ConnectionResetError):
            await pump.run(lost)
        assert lost.writes == [line(0)]
        assert pump.sent == 0 and (q.delivered, q.pending) == (1, 3)
        q.close()
        out = FakeOut()
        await asyncio.wait_for(pump.run(out), 1)
        assert out.writes == [line(i) for i in range(4)]  # the kept item once, then the rest
        assert pump.sent == 4 and q.delivered == 4 and q.conserved()

    run(main())


def test_pump_cancelled_during_drain_keeps_the_item():
    async def main():
        q = BoundedQueue(8)
        q.put(0)
        q.put(1)
        pump, stalled = Pump(q, line), FakeOut(hold=asyncio.Event())
        task = asyncio.create_task(pump.run(stalled))
        await asyncio.sleep(0.01)
        assert stalled.writes == [line(0)]
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        assert task.cancelled() and pump.sent == 0
        q.close()
        out = FakeOut()
        await asyncio.wait_for(pump.run(out), 1)
        assert out.writes == [line(0), line(1)] and pump.sent == 2

    run(main())


def test_pump_keeps_the_item_when_its_mqtt_client_is_closed():
    """An MqttClient is a pump's connection: a closed client refuses the
    write, and the next client gets the item."""
    async def main():
        broker = Broker()
        await broker.start("127.0.0.1", 0)
        sub = await MqttClient.connect(*broker.address, client_id="sub")
        await sub.subscribe(["t/#"])
        gone = await MqttClient.connect(*broker.address, client_id="gone")
        await gone.close()
        q = BoundedQueue(8)
        q.put(("t/0", b"0"))
        pump = Pump(q, lambda item: wire.encode_packet(wire.Publish(*item)))
        with pytest.raises(MqttError):
            await pump.run(gone)
        q.put(("t/1", b"1"))
        q.close()
        pub = await MqttClient.connect(*broker.address, client_id="pub")
        await asyncio.wait_for(pump.run(pub), 1)
        assert [(await sub.next_message(timeout=1))[:2] for _ in range(2)] == [
            ("t/0", b"0"), ("t/1", b"1")]
        assert pump.sent == 2
        for client in (pub, sub):
            await client.close()
        await broker.stop()

    run(main())


def test_sink_handles_each_item_as_it_is_taken_until_closed():
    """Items are handled in order, and whenever the loop yields, every item
    taken from the queue has been handled: an empty queue means handled."""
    async def main():
        q = BoundedQueue(64)
        seen = []
        task = asyncio.create_task(Sink("s").run(q, seen.append))
        for burst in range(10):
            for i in range(burst):
                q.put((burst, i))
            for _ in range(burst + 2):
                await asyncio.sleep(0)
                assert len(seen) == q.delivered
        assert q.pending == 0 and not task.done()  # waiting for the next item
        q.close()
        await asyncio.wait_for(task, 1)
        assert seen == [(b, i) for b in range(10) for i in range(b)]

    run(main())


def test_sink_logs_and_counts_a_failing_item_and_goes_on(caplog):
    """A handler that raises costs its item only. One sink counts failures
    over every queue it runs."""
    def handle(item):
        if item % 3 == 2:
            raise ValueError(f"bad item {item}")
        seen.append(item)

    async def main():
        sink, queues = Sink("reader"), [BoundedQueue(8), BoundedQueue(8)]
        for q in queues:
            for i in range(6):
                q.put(i)
            q.close()
        await asyncio.wait_for(asyncio.gather(*(sink.run(q, handle) for q in queues)), 1)
        assert sink.failed == 4
        assert all(q.conserved() and q.delivered == 6 for q in queues)

    seen = []
    with caplog.at_level("ERROR", logger="sensert.pipe"):
        run(main())
    assert sorted(seen) == [0, 0, 1, 1, 3, 3, 4, 4]
    failures = [r for r in caplog.records if r.exc_info]
    assert len(failures) == 4
    assert failures[0].getMessage() == "reader: handler failed on 2"
    assert "bad item 2" in caplog.text  # the traceback is in the log


@pytest.mark.parametrize("raw", ["1883", "127.0.0.1:notaport", "h:99999", ":1883",
                                 "h:", "h:-1", "h:\u00b2", 1883])
def test_parse_addr_rejects_what_is_not_host_port(raw):
    with pytest.raises(ValueError):
        parse_addr(raw)


def test_parse_addr_and_the_cli_address_type():
    assert parse_addr("127.0.0.1:0") == ("127.0.0.1", 0)
    assert parse_addr("example.org:65535") == ("example.org", 65535)
    assert _addr("h:1") == ("h", 1)
    with pytest.raises(argparse.ArgumentTypeError):
        _addr("h:99999")


class FakeConn:
    closed = False

    async def close(self):
        self.closed = True


class Served(Exception):
    """Ends Link.run from inside serve(): not a network failure."""


def test_connect_with_backoff_delays(monkeypatch):
    delays = []

    async def fake_sleep(delay):
        delays.append(delay)

    attempts = []

    async def connect():
        attempts.append(len(delays))
        if len(attempts) <= 8:
            raise (ConnectionRefusedError("down") if len(attempts) % 2
                   else asyncio.TimeoutError())
        return FakeConn()

    async def serve(conn):
        raise Served

    async def main():
        monkeypatch.setattr(pipe.asyncio, "sleep", fake_sleep)
        await Link(connect, serve).run()

    with pytest.raises(Served):
        run(main())
    assert attempts[0] == 0  # the first attempt is not delayed
    assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]


def test_connect_with_backoff_propagates_other_errors():
    async def connect():
        raise ValueError("bug, not a network failure")

    with pytest.raises(ValueError):
        run(Link(connect, None).run())


def test_link_delay_resets_after_a_successful_connect(monkeypatch):
    """Three failures, a connection that is lost, two failures: the delays
    start over at 0.5 s, and the lost connection is retried at once."""
    delays = []
    outcomes = iter(["fail", "fail", "fail", "up", "fail", "fail", "up"])
    served = []

    async def fake_sleep(delay):
        delays.append(delay)

    async def connect():
        if next(outcomes) == "fail":
            raise ConnectionRefusedError("down")
        return FakeConn()

    async def serve(conn):
        served.append(conn)
        if len(served) == 1:
            raise ConnectionResetError("lost")
        raise Served

    async def main():
        monkeypatch.setattr(pipe.asyncio, "sleep", fake_sleep)
        await Link(connect, serve).run()

    with pytest.raises(Served):
        run(main())
    assert delays == [0.5, 1.0, 2.0, 0.5, 1.0]
    assert [conn.closed for conn in served] == [True, True]


def test_link_up_and_conn_clear_when_the_connection_fails():
    async def main():
        conns, lose = [], asyncio.Event()

        async def connect():
            if conns:  # the second attempt never completes
                await asyncio.Event().wait()
            conns.append(FakeConn())
            return conns[-1]

        async def serve(conn):
            await lose.wait()
            raise ConnectionResetError("peer went away")

        link = Link(connect, serve)
        task = asyncio.create_task(link.run())
        await asyncio.wait_for(link.up.wait(), 1)
        assert link.conn is conns[0] and not conns[0].closed
        lose.set()
        for _ in range(100):
            if not link.up.is_set():
                break
            await asyncio.sleep(0)
        assert not link.up.is_set() and link.conn is None
        assert conns[0].closed
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)

    run(main())


def test_cancelling_link_run_closes_the_connection():
    async def main():
        conn = FakeConn()

        async def connect():
            return conn

        async def serve(c):
            await asyncio.Event().wait()

        link = Link(connect, serve)
        task = asyncio.create_task(link.run())
        await asyncio.wait_for(link.up.wait(), 1)
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        assert task.cancelled()
        assert conn.closed and link.conn is None and not link.up.is_set()

    run(main())


@pytest.mark.parametrize("outcome", ["connects", "fails"])
def test_link_stop_returns_when_a_connect_swallows_the_cancel(outcome):
    """asyncio.wait_for can swallow a cancel that lands as its inner connect
    completes: the link still stops, and closes a connection it just made."""

    async def main():
        conn, held = FakeConn(), asyncio.Event()

        async def connect():
            held.set()
            try:
                await asyncio.Event().wait()
            except asyncio.CancelledError:
                pass  # swallowed, as wait_for can
            if outcome == "fails":
                raise ConnectionRefusedError("down")
            return conn

        async def serve(c):
            await asyncio.Event().wait()

        link = Link(connect, serve)
        link.start()
        await asyncio.wait_for(held.wait(), 1)
        await asyncio.wait_for(link.stop(), 2)
        assert not link.up.is_set() and link.conn is None
        assert conn.closed == (outcome == "connects")

    run(main())


def test_link_starts_again_after_a_stop():
    async def main():
        conns = []

        async def connect():
            conns.append(FakeConn())
            return conns[-1]

        async def serve(c):
            await asyncio.Event().wait()

        link = Link(connect, serve)
        for _ in range(2):
            link.start()
            link.start()  # a no-op while its task runs
            await asyncio.wait_for(link.up.wait(), 1)
            await link.stop()
            assert not link.up.is_set() and link.conn is None
        assert len(conns) == 2 and all(c.closed for c in conns)

    run(main())


def test_now_ms_is_epoch_ms():
    before = time.time() * 1000
    assert before - 1 <= now_ms() <= time.time() * 1000 + 1


def test_mqtt_client_inbound_overflow_counted():
    async def main():
        broker = Broker()
        await broker.start("127.0.0.1", 0)
        sub = await MqttClient.connect(*broker.address, client_id="sub")
        sub.inbound = BoundedQueue(2, "drop_newest")
        await sub.subscribe(["t"])
        pub = await MqttClient.connect(*broker.address, client_id="pub")
        for i in range(5):
            await pub.publish("t", b"%d" % i)
        for _ in range(100):
            if sub.inbound.offered == 5:
                break
            await asyncio.sleep(0.01)
        assert (sub.inbound.offered, sub.inbound.dropped, sub.inbound.pending) == (5, 3, 2)
        await pub.close()
        await broker.stop()
        await sub.wait_closed()
        # closed, but what was queued is still handed out before the error
        assert [(await sub.next_message(timeout=1))[1] for _ in range(2)] == [b"0", b"1"]
        with pytest.raises(MqttError):
            await sub.next_message(timeout=1)
        assert sub.inbound.conserved()
        await sub.close()

    run(main())
