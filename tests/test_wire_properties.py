"""Property tests for the codec: round trips, prefix safety, fuzz, matching."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensert import wire


# Printable topic levels without wildcard/separator characters.
_level = st.text(
    alphabet=st.characters(blacklist_characters="+#/\x00", blacklist_categories=("Cs",)),
    min_size=0,
    max_size=8,
)


@st.composite
def topic_names(draw):
    levels = draw(st.lists(_level, min_size=1, max_size=5))
    raw = "/".join(levels)
    if not raw.encode("utf-8"):
        raw = draw(st.sampled_from(["a", "x/y", "/"]))
    return raw


@st.composite
def topic_filters(draw):
    levels = draw(st.lists(st.one_of(_level, st.sampled_from(["+"])), min_size=1, max_size=5))
    if draw(st.booleans()):
        levels.append("#")
    raw = "/".join(levels)
    if not raw.encode("utf-8"):
        raw = "#"
    return raw


_string = st.text(
    alphabet=st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
    max_size=16,
)


@st.composite
def packets(draw):
    kind = draw(st.integers(min_value=0, max_value=9))
    pid = draw(st.integers(min_value=1, max_value=0xFFFF))
    if kind == 0:
        return wire.Connect(
            client_id=draw(_string),
            keep_alive_s=draw(st.integers(min_value=0, max_value=0xFFFF)),
            clean_session=draw(st.booleans()),
        )
    if kind == 1:
        return wire.Connack(return_code=draw(st.integers(min_value=0, max_value=255)))
    if kind == 2:
        return wire.Publish(
            topic=draw(topic_names()),
            payload=draw(st.binary(max_size=64)),
            retain=draw(st.booleans()),
        )
    if kind == 3:
        return wire.Subscribe(
            packet_id=pid,
            filters=tuple(draw(st.lists(topic_filters(), min_size=1, max_size=4))),
        )
    if kind == 4:
        return wire.Suback(
            packet_id=pid,
            granted=tuple(draw(st.lists(st.sampled_from([0x00, 0x80]), min_size=1, max_size=4))),
        )
    if kind == 5:
        return wire.Unsubscribe(
            packet_id=pid,
            filters=tuple(draw(st.lists(topic_filters(), min_size=1, max_size=4))),
        )
    if kind == 6:
        return wire.Unsuback(packet_id=pid)
    if kind == 7:
        return wire.Pingreq()
    if kind == 8:
        return wire.Pingresp()
    return wire.Disconnect()


@given(packets())
@settings(max_examples=300)
def test_roundtrip_byte_exact(p):
    frame = wire.encode_packet(p)
    decoded, consumed = wire.decode_packet(frame)
    assert decoded == p
    assert consumed == len(frame)
    assert wire.encode_packet(decoded) == frame


@given(packets(), st.data())
@settings(max_examples=150)
def test_prefix_safety(p, data):
    frame = wire.encode_packet(p)
    cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    assert wire.decode_packet(frame[:cut]) is None


@given(st.binary(max_size=96))
@settings(max_examples=400)
def test_no_crash_on_arbitrary_bytes(raw):
    try:
        result = wire.decode_packet(raw)
    except wire.MalformedPacket:
        return
    if result is not None:
        pkt, consumed = result
        assert 0 < consumed <= len(raw)
        # Anything accepted must re-encode to a decodable frame.
        again, _ = wire.decode_packet(wire.encode_packet(pkt))
        assert again == pkt


def test_fuzz_random_frames_never_crash():
    rng = random.Random(0xF02)  # fixed seed
    for _ in range(50_000):
        raw = rng.randbytes(rng.randint(0, 64))
        try:
            result = wire.decode_packet(raw)
        except wire.MalformedPacket:
            continue
        if result is not None:
            pkt, consumed = result
            assert consumed <= len(raw)
            assert wire.decode_packet(wire.encode_packet(pkt))[0] == pkt


# --- exhaustive matching equivalence ------------------------------------------

def _match_reference(fparts, tparts):
    """Independent recursive matcher used as the oracle."""
    if not fparts:
        return not tparts
    head, tail = fparts[0], fparts[1:]
    if head == "#":
        return True
    if not tparts:
        return False
    if head == "+" or head == tparts[0]:
        return _match_reference(tail, tparts[1:])
    return False


def _valid_filter(levels):
    try:
        wire.validate_filter("/".join(levels))
        return True
    except wire.InvalidFilter:
        return False


# "" is a level too: "a//b" has three, and "/" has two empty ones.
_FILTERS = [
    levels
    for depth in range(1, 5)
    for levels in itertools.product(["a", "b", "", "+", "#"], repeat=depth)
    if _valid_filter(levels)
]
_TOPICS = [
    levels
    for depth in range(1, 5)
    for levels in itertools.product(["a", "b", ""], repeat=depth)
]


def test_matching_equivalence_exhaustive():
    filters, topics = _FILTERS, _TOPICS
    checked = 0
    for f in filters:
        for t in topics:
            got = wire.topic_matches("/".join(f), "/".join(t))
            want = _match_reference(list(f), list(t))
            assert got == want, f"filter={f} topic={t}"
            checked += 1
    assert checked > 4_000


def _linear(stored, topic):
    return sorted(v for levels, v in stored if wire.topic_matches(levels, topic))


def _assert_tree_agrees(tree, stored):
    for t in _TOPICS:
        assert sorted(tree.match(t)) == _linear(stored, t), f"topic={t}"


def test_topic_tree_matches_linear_scan_exhaustive():
    """Random filter sets, with duplicates, added and removed in random order."""
    rng = random.Random(0x7EE)
    for _ in range(60):
        tree = wire.TopicTree()
        stored = []  # (levels, value); values are distinct even for equal filters
        for value in range(rng.randint(1, 40)):
            levels = rng.choice(_FILTERS)
            tree.add(levels, value)
            stored.append((levels, value))
            if rng.random() < 0.3:
                levels, gone = stored.pop(rng.randrange(len(stored)))
                tree.remove(levels, gone)
        _assert_tree_agrees(tree, stored)
        while stored:
            levels, gone = stored.pop(rng.randrange(len(stored)))
            tree.remove(levels, gone)
            if rng.random() < 0.2:
                _assert_tree_agrees(tree, stored)
        assert tree.children == {} and tree.values == []
        assert all(tree.match(t) == [] for t in _TOPICS)


@given(st.lists(topic_filters(), min_size=1, max_size=12), st.lists(topic_names(), max_size=12),
       st.data())
@settings(max_examples=200)
def test_topic_tree_matches_linear_scan(filters, topics, data):
    tree = wire.TopicTree()
    stored = [(wire.validate_filter(f), i) for i, f in enumerate(filters)]
    for levels, value in stored:
        tree.add(levels, value)
    removed = data.draw(st.lists(st.sampled_from(stored), unique=True))
    for levels, value in removed:
        tree.remove(levels, value)
    kept = [entry for entry in stored if entry not in removed]
    for topic in topics:
        t = wire.validate_topic(topic)
        assert sorted(tree.match(t)) == _linear(kept, t)
    for levels, value in kept:
        tree.remove(levels, value)
    assert tree.children == {} and tree.values == []


def test_topic_tree_remove_missing_raises():
    tree = wire.TopicTree()
    tree.add(("a", "+"), 1)
    for levels, value in ((("a", "+"), 2), (("a",), 1), (("a", "+", "c"), 1)):
        with pytest.raises(KeyError):
            tree.remove(levels, value)
    assert tree.match(("a", "x")) == [1]
