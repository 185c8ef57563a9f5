"""The shared pipeline primitives: BoundedQueue, Link, now_ms."""

import asyncio
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensert import pipe
from sensert.broker import Broker
from sensert.mqtt_client import MqttClient, MqttError
from sensert.pipe import BoundedQueue, Link, QueueClosed, now_ms


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
