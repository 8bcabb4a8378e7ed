"""Round-trip and error-path tests for the binary message codec.

The codec backs the parallel backend's cross-partition transport (every
cross-shard message in a partitioned run is encoded and decoded through
it), so the contract here is strict: decode(encode(m)) == m for every
protocol message type, every frame keeps its recorded bytes, types
without a wire layout are rejected, and malformed frames fail with
:class:`CodecError` and nothing else instead of yielding garbage.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.action import ActionId, ActionResult, BlindWrite
from repro.core.messages import (
    PROTOCOL_MESSAGES,
    AbortNotice,
    ActionBatch,
    ClientHello,
    CommitNotice,
    Completion,
    CodecError,
    DrainDone,
    FRAME_LAYOUTS,
    GroupBundle,
    HandoffPrepare,
    HandoffReady,
    HandoffTransfer,
    HandoffWelcome,
    Heartbeat,
    LeaseGrant,
    LeaseHeartbeat,
    LeaseRequest,
    LeaseVote,
    LoadReport,
    MessageCodec,
    OrderedAction,
    PartitionCommit,
    PartitionUpdate,
    PeerForward,
    RegionSync,
    RelayedAction,
    ShardHello,
    SpanAbort,
    SpanForward,
    SpanResult,
    SpanSplice,
    StateUpdate,
    SubmitAction,
    wire_size,
)
from repro.net.network import _Ack, _Packet
from repro.world.geometry import Vec2
from repro.world.movement import MoveAction
from repro.world.walls import Wall, WallField

WALLS = WallField(
    (Wall(0, Vec2(55, 40), Vec2(55, 60)),), width=100.0, height=100.0
)


def codec() -> MessageCodec:
    return MessageCodec(walls=WALLS)


def snap(obj):
    """A structural fingerprint usable for round-trip comparison.

    MoveAction (and friends) deliberately use identity equality, so
    decoded copies can never compare ``==`` to the originals; instead we
    compare recursively by type + fields.  The wall field is collapsed
    to a marker: it never crosses the wire and decode rebinds the
    decoder's own copy.
    """
    if isinstance(obj, WallField):
        return "<walls>"
    if isinstance(obj, (bool, int, float, str, bytes, type(None))):
        return obj
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, tuple(snap(x) for x in obj))
    if isinstance(obj, (set, frozenset)):
        return frozenset(snap(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, snap(v)) for k, v in obj.items()))
    fields = {}
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if hasattr(obj, name):
                fields[name] = getattr(obj, name)
    fields.update(getattr(obj, "__dict__", {}))
    return (
        type(obj).__name__,
        tuple(sorted((k, snap(v)) for k, v in fields.items())),
    )


def move_action(seq: int = 0) -> MoveAction:
    return MoveAction(
        ActionId(3, seq),
        "avatar:3",
        neighbors=frozenset({"avatar:1", "avatar:2"}),
        walls=WALLS,
        duration_s=0.3,
        effect_range=10.0,
        position=Vec2(12.5, 40.25),
        velocity=Vec2(1.0, -2.0),
        cost_ms=7.44,
    )


def blind_write(seq: int = 9) -> BlindWrite:
    return BlindWrite(
        ActionId(-1, seq),
        {"avatar:5": {"x": 1.5, "label": "spawn", "alive": True, "n": None}},
        origin=ActionId(5, 0),
    )


RESULT = ActionResult.of({"avatar:3": {"x": 60.0, "y": 50.0, "bumps": 1}})

#: One representative instance per protocol message type (plus the
#: net-layer ARQ frames that ride through worker bundles).
MESSAGES = [
    SubmitAction(move_action()),
    SubmitAction(blind_write()),
    OrderedAction(7, move_action(1)),
    ActionBatch(
        (OrderedAction(-1, blind_write()), OrderedAction(4, move_action(2))),
        last_installed=3,
    ),
    Completion(4, ActionId(3, 2), RESULT, reporter=3),
    Completion(5, ActionId(3, 3), ActionResult.of({}, aborted=True)),
    AbortNotice(ActionId(2, 11)),
    StateUpdate(RESULT.written, cause=ActionId(3, 2), submitted_at=125.5),
    StateUpdate((), cause=None),
    Heartbeat(sender=6),
    RelayedAction(move_action(3), submitted_at=300.0),
    PeerForward(9, ActionBatch((OrderedAction(1, move_action(4)),))),
    GroupBundle(
        shared=(OrderedAction(2, move_action(5)),),
        members=((1, (0,)), (2, (0, OrderedAction(-1, blind_write(1))))),
        last_installed=2,
    ),
    SpanForward(0, (0, 1), move_action(6)),
    SpanSplice(12, 1, (0, 1), move_action(7)),
    SpanResult(12, ActionId(3, 7), RESULT),
    SpanAbort(13, ActionId(3, 8)),
    HandoffPrepare(2),
    HandoffReady(4),
    HandoffTransfer(
        4, 41.5, interests=frozenset({"avatar:1", "zone:a"}),
        resolved=(ActionId(4, 0), ActionId(4, 1)),
    ),
    HandoffTransfer(4, 41.5, interests=None),
    HandoffWelcome(1, resolved=(ActionId(4, 2),)),
    CommitNotice(0, ActionId(3, 0)),
    CommitNotice(2**60, ActionId(-1, 2**31)),
    LoadReport(shard=0, round=0, cpu_ms=0.0, serialized=0, clients=0),
    LoadReport(
        shard=3, round=2**40, cpu_ms=1.0e9 + 0.5, serialized=-1, clients=64
    ),
    PartitionUpdate(version=1, boundaries=()),
    PartitionUpdate(version=2**62, boundaries=(0.0, 300.25, 1200.0)),
    DrainDone(shard=1, version=4),
    PartitionCommit(version=0),
    RegionSync(version=3, lo=0.0, hi=600.0, entries=()),
    RegionSync(
        version=4,
        lo=-1.5,
        hi=1.0e12,
        entries=(
            ("avatar:1", -1, 0, (("x", 1.5), ("alive", True), ("n", None))),
            ("avatar:2", 2**48, 1, (("label", "spawn"),)),
        ),
    ),
    LeaseHeartbeat(term=0, holder=-1),
    LeaseRequest(term=1, candidate=2),
    LeaseVote(term=1, voter=0, max_gsn=-1),
    LeaseGrant(term=2**31, holder=1, gsn_floor=0),
    ShardHello(shard=2),
    ClientHello(client_id=5, radius=20.0, interests=frozenset({"avatar:5"})),
    ClientHello(client_id=3, radius=0.0, interests=None),
    _Packet(3, 1, SubmitAction(move_action(8))),
    _Packet(0, 0, None),
    _Ack(17),
]

#: The frame bytes of every sample above, in order, recorded before the
#: codec moved to the layout table; each sample must still encode to
#: exactly these bytes.
GOLDEN_FRAMES = [
    # SubmitAction
    (
        "01000000724d0000000000000003000000000000000000000008617661746172"
        "3a3300000002000000086176617461723a31000000086176617461723a323fd3"
        "333333333333402400000000000040290000000000004044200000000000013f"
        "f0000000000000c000000000000000401dc28f5c28f5c3"
    ),
    # SubmitAction
    (
        "010000006742ffffffffffffffff000000000000000900000001000000086176"
        "617461723a35000000040000000178443ff8000000000000000000056c616265"
        "6c5300000005737061776e00000005616c69766554000000016e4e0100000000"
        "000000050000000000000000"
    ),
    # OrderedAction
    (
        "020000007a00000000000000074d000000000000000300000000000000010000"
        "00086176617461723a3300000002000000086176617461723a31000000086176"
        "617461723a323fd3333333333333402400000000000040290000000000004044"
        "200000000000013ff0000000000000c000000000000000401dc28f5c28f5c3"
    ),
    # ActionBatch
    (
        "03000000f5000000000000000300000002ffffffffffffffff42ffffffffffff"
        "ffff000000000000000900000001000000086176617461723a35000000040000"
        "000178443ff8000000000000000000056c6162656c5300000005737061776e00"
        "000005616c69766554000000016e4e0100000000000000050000000000000000"
        "00000000000000044d0000000000000003000000000000000200000008617661"
        "7461723a3300000002000000086176617461723a31000000086176617461723a"
        "323fd33333333333334024000000000000402900000000000040442000000000"
        "00013ff0000000000000c000000000000000401dc28f5c28f5c3"
    ),
    # Completion
    (
        "0400000063000000000000000400000000000000030000000000000002000000"
        "00000000030000000001000000086176617461723a3300000003000000056275"
        "6d7073490000000000000001000000017844404e000000000000000000017944"
        "4049000000000000"
    ),
    # Completion
    (
        "0400000025000000000000000500000000000000030000000000000003ffffff"
        "fffffffffe0100000000"
    ),
    # AbortNotice
    "05000000100000000000000002000000000000000b",
    # StateUpdate
    (
        "060000005b00000001000000086176617461723a33000000030000000562756d"
        "7073490000000000000001000000017844404e00000000000000000001794440"
        "490000000000000100000000000000030000000000000002405f600000000000"
    ),
    # StateUpdate
    "060000000d00000000000000000000000000",
    # Heartbeat
    "07000000080000000000000006",
    # RelayedAction
    (
        "080000007a4072c000000000004d000000000000000300000000000000030000"
        "00086176617461723a3300000002000000086176617461723a31000000086176"
        "617461723a323fd3333333333333402400000000000040290000000000004044"
        "200000000000013ff0000000000000c000000000000000401dc28f5c28f5c3"
    ),
    # PeerForward
    (
        "090000009300000000000000090300000086ffffffffffffffff000000010000"
        "0000000000014d00000000000000030000000000000004000000086176617461"
        "723a3300000002000000086176617461723a31000000086176617461723a323f"
        "d333333333333340240000000000004029000000000000404420000000000001"
        "3ff0000000000000c000000000000000401dc28f5c28f5c3"
    ),
    # GroupBundle
    (
        "0a0000012400000000000000020000000100000000000000024d000000000000"
        "00030000000000000005000000086176617461723a3300000002000000086176"
        "617461723a31000000086176617461723a323fd3333333333333402400000000"
        "000040290000000000004044200000000000013ff0000000000000c000000000"
        "000000401dc28f5c28f5c3000000020000000000000001000000015200000000"
        "0000000000000000000000020000000252000000000000000045ffffffffffff"
        "ffff42ffffffffffffffff000000000000000100000001000000086176617461"
        "723a35000000040000000178443ff8000000000000000000056c6162656c5300"
        "000005737061776e00000005616c69766554000000016e4e0100000000000000"
        "050000000000000000"
    ),
    # SpanForward
    (
        "100000008e000000000000000000000002000000000000000000000000000000"
        "014d00000000000000030000000000000006000000086176617461723a330000"
        "0002000000086176617461723a31000000086176617461723a323fd333333333"
        "3333402400000000000040290000000000004044200000000000013ff0000000"
        "000000c000000000000000401dc28f5c28f5c3"
    ),
    # SpanSplice
    (
        "1100000096000000000000000c00000000000000010000000200000000000000"
        "0000000000000000014d00000000000000030000000000000007000000086176"
        "617461723a3300000002000000086176617461723a3100000008617661746172"
        "3a323fd333333333333340240000000000004029000000000000404420000000"
        "0000013ff0000000000000c000000000000000401dc28f5c28f5c3"
    ),
    # SpanResult
    (
        "120000005b000000000000000c00000000000000030000000000000007000000"
        "0001000000086176617461723a33000000030000000562756d70734900000000"
        "00000001000000017844404e0000000000000000000179444049000000000000"
    ),
    # SpanAbort
    "1300000018000000000000000d00000000000000030000000000000008",
    # HandoffPrepare
    "14000000080000000000000002",
    # HandoffReady
    "15000000080000000000000004",
    # HandoffTransfer
    (
        "160000004f00000000000000044044c000000000000100000002000000086176"
        "617461723a31000000067a6f6e653a6100000002000000000000000400000000"
        "0000000000000000000000040000000000000001"
    ),
    # HandoffTransfer
    "160000001500000000000000044044c000000000000000000000",
    # HandoffWelcome
    (
        "170000001c000000000000000100000001000000000000000400000000000000"
        "02"
    ),
    # CommitNotice
    "2b00000018000000000000000000000000000000030000000000000000",
    # CommitNotice
    "2b000000181000000000000000ffffffffffffffff0000000080000000",
    # LoadReport
    (
        "2000000028000000000000000000000000000000000000000000000000000000"
        "00000000000000000000000000"
    ),
    # LoadReport
    (
        "20000000280000000000000003000001000000000041cdcd6500400000ffffff"
        "ffffffffff0000000000000040"
    ),
    # PartitionUpdate
    "210000000c000000000000000100000000",
    # PartitionUpdate
    (
        "210000002440000000000000000000000300000000000000004072c400000000"
        "004092c00000000000"
    ),
    # DrainDone
    "220000001000000000000000010000000000000004",
    # PartitionCommit
    "23000000080000000000000000",
    # RegionSync
    (
        "240000001c000000000000000300000000000000004082c00000000000000000"
        "00"
    ),
    # RegionSync
    (
        "240000008d0000000000000004bff8000000000000426d1a94a2000000000000"
        "02000000086176617461723a31ffffffffffffffff0000000000000000000000"
        "030000000178443ff800000000000000000005616c69766554000000016e4e00"
        "0000086176617461723a32000100000000000000000000000000010000000100"
        "0000056c6162656c5300000005737061776e"
    ),
    # LeaseHeartbeat
    "25000000100000000000000000ffffffffffffffff",
    # LeaseRequest
    "260000001000000000000000010000000000000002",
    # LeaseVote
    "270000001800000000000000010000000000000000ffffffffffffffff",
    # LeaseGrant
    "2800000018000000008000000000000000000000010000000000000000",
    # ShardHello
    "29000000080000000000000002",
    # ClientHello
    (
        "2a00000021000000000000000540340000000000000100000001000000086176"
        "617461723a35"
    ),
    # ClientHello
    "2a000000110000000000000003000000000000000000",
    # _Packet
    (
        "1800000088000000000000000300000000000000010101000000724d00000000"
        "000000030000000000000008000000086176617461723a330000000200000008"
        "6176617461723a31000000086176617461723a323fd333333333333340240000"
        "0000000040290000000000004044200000000000013ff0000000000000c00000"
        "0000000000401dc28f5c28f5c3"
    ),
    # _Packet
    "18000000110000000000000000000000000000000000",
    # _Ack
    "19000000080000000000000011",
]


@pytest.mark.parametrize(
    "message", MESSAGES, ids=lambda m: type(m).__name__
)
def test_round_trip(message):
    frame = codec().encode(message)
    decoded = codec().decode(frame)
    assert type(decoded) is type(message)
    assert snap(decoded) == snap(message)


def test_round_trip_preserves_wire_size_inputs():
    # The decoded message must be measurable exactly like the original:
    # the traffic meter on the receiving partition bills by wire_size.
    for message in MESSAGES:
        if isinstance(message, (_Packet, _Ack)):
            continue
        decoded = codec().decode(codec().encode(message))
        assert wire_size(decoded) == wire_size(message)


def test_sequence_round_trip():
    frames = codec().encode_sequence(MESSAGES)
    decoded = codec().decode_sequence(frames)
    assert [snap(m) for m in decoded] == [snap(m) for m in MESSAGES]


def test_every_registered_message_type_has_a_round_trip_sample():
    # Exhaustiveness ratchet: registering a message type in
    # PROTOCOL_MESSAGES without adding a boundary-value sample above
    # fails here, keeping the codec-coverage story honest end to end.
    sampled = {type(m) for m in MESSAGES}
    missing = [c.__name__ for c in PROTOCOL_MESSAGES if c not in sampled]
    assert missing == []


def test_every_sample_encodes_to_its_golden_bytes():
    assert len(GOLDEN_FRAMES) == len(MESSAGES)
    for message, golden in zip(MESSAGES, GOLDEN_FRAMES):
        assert codec().encode(message).hex() == golden, type(message).__name__
        decoded = codec().decode(bytes.fromhex(golden))
        assert snap(decoded) == snap(message)


def test_frame_tags_are_unique():
    tags = [row[0] for row in FRAME_LAYOUTS.values()]
    assert len(set(tags)) == len(tags)


def test_unregistered_types_raise_on_encode():
    # Nothing without a row in the layout table reaches the wire: an
    # unregistered message, action or attribute-value type is rejected
    # when it is encoded.
    class Unregistered(BlindWrite):
        pass

    with pytest.raises(CodecError, match="dict"):
        codec().encode({"custom": (1, 2.5, "x")})
    with pytest.raises(CodecError, match="Unregistered"):
        codec().encode(SubmitAction(Unregistered(ActionId(1, 0), {})))
    with pytest.raises(CodecError, match="frozenset"):
        codec().encode(StateUpdate((("avatar:1", (("tags", frozenset()),)),)))


def test_move_frame_is_much_smaller_than_pickle():
    import pickle

    frame = codec().encode(SubmitAction(move_action()))
    assert len(frame) < len(pickle.dumps(SubmitAction(move_action()))) / 4


def test_truncated_frame_raises():
    frame = codec().encode(OrderedAction(7, move_action()))
    for cut in (1, 4, len(frame) // 2, len(frame) - 1):
        with pytest.raises(CodecError):
            codec().decode(frame[:cut])


def test_trailing_bytes_raise():
    frame = codec().encode(Heartbeat(1))
    with pytest.raises(CodecError):
        codec().decode(frame + b"\x00")


def test_unknown_tag_raises():
    frame = bytearray(codec().encode(Heartbeat(1)))
    frame[0] = 99  # unassigned tag
    with pytest.raises(CodecError):
        codec().decode(bytes(frame))


def test_corrupt_body_length_raises():
    frame = bytearray(codec().encode(Heartbeat(1)))
    frame[1:5] = (0xFF, 0xFF, 0xFF, 0xFF)  # body length >> actual
    with pytest.raises(CodecError):
        codec().decode(bytes(frame))


def test_bit_flipped_action_sub_tag_raises():
    # Adversarial/corrupt peers must not be able to smuggle garbage
    # through the inner action frame: an unassigned sub-tag byte (the
    # 'M'/'B' discriminator right after the 5-byte outer header)
    # fails loudly instead of dispatching to the wrong decoder.
    frame = bytearray(codec().encode(SubmitAction(move_action())))
    assert chr(frame[5]) == "M"
    frame[5] ^= 0xFF
    with pytest.raises(CodecError):
        codec().decode(bytes(frame))


def test_oversized_inner_length_raises():
    # A length prefix pointing past the end of the body (here the
    # avatar oid's u32, the first variable-length field of a move
    # frame) must raise, not over-read into adjacent frames.
    frame = bytearray(codec().encode(SubmitAction(move_action())))
    frame[22:26] = (0xFF, 0xFF, 0xFF, 0xFF)
    with pytest.raises(CodecError):
        codec().decode(bytes(frame))


def test_truncated_frame_inside_sequence_raises():
    # decode_sequence walks concatenated frames; a body cut short mid-
    # stream (transport-level truncation) surfaces as a CodecError
    # rather than a silent partial batch.
    frames = codec().encode_sequence(
        [Heartbeat(1), SubmitAction(move_action())]
    )
    for cut in (len(frames) - 1, len(frames) - 8):
        with pytest.raises(CodecError):
            codec().decode_sequence(frames[:cut])


def test_move_decode_without_walls_raises():
    frame = codec().encode(SubmitAction(move_action()))
    with pytest.raises(CodecError):
        MessageCodec(walls=None).decode(frame)


def test_walls_never_cross_the_wire():
    # The wall field is seed-derived and identical everywhere, so moves
    # reference it by token: the frame must stay small no matter how
    # large the field is, and decoding rebinds the decoder's own copy.
    frame = codec().encode(SubmitAction(move_action()))
    assert len(frame) < 256
    decoded = MessageCodec(walls=WALLS).decode(frame)
    assert decoded.action.walls is WALLS


# ----------------------------------------------------------------------
# Hostile frames fail with CodecError and nothing else
# ----------------------------------------------------------------------
def _frame(tag: int, body: bytes) -> bytes:
    return struct.pack(">BI", tag, len(body)) + body


def test_invalid_utf8_in_a_string_field_raises():
    frame = bytearray(
        codec().encode(RegionSync(1, 0.0, 1.0, (("ab", 0, 0, ()),)))
    )
    at = frame.index(b"ab")
    frame[at : at + 2] = b"\xff\xfe"
    with pytest.raises(CodecError):
        codec().decode(bytes(frame))


def test_deeply_nested_frames_raise():
    # 1,000 PeerForwards, each wrapping the next: a 13 KB frame.
    tag = FRAME_LAYOUTS[PeerForward][0]
    frame = codec().encode(Heartbeat(1))
    for _ in range(1000):
        frame = _frame(tag, struct.pack(">q", 0) + frame)
    with pytest.raises(CodecError):
        codec().decode(frame)
    # Nesting the protocol really uses still decodes.
    message = _Packet(0, 0, PeerForward(2, PeerForward(1, Heartbeat(1))))
    assert snap(codec().decode(codec().encode(message))) == snap(message)


def _sync_with_value(value) -> RegionSync:
    return RegionSync(1, 0.0, 1.0, (("a", 0, 0, (("v", value),)),))


def test_deeply_nested_tuple_values_raise():
    frame = codec().encode(_sync_with_value(None))
    assert frame[-1:] == b"N"
    # 5,000 one-item tuples around the None.
    body = frame[5:-1] + b"U\x00\x00\x00\x01" * 5000 + b"N"
    with pytest.raises(CodecError):
        codec().decode(_frame(frame[0], body))
    deep = None
    for _ in range(100):
        deep = (deep,)
    with pytest.raises(CodecError):
        codec().encode(_sync_with_value(deep))
    message = _sync_with_value(((1, ("x", (2.5, None))), True))
    assert codec().decode(codec().encode(message)) == message


#: Derandomized, so tier-1 runs the same examples every time.
FUZZ = settings(
    max_examples=500, derandomize=True, deadline=None, database=None
)
SAMPLE_FRAMES = [codec().encode(message) for message in MESSAGES]


def _decodes_or_raises_codec_error(data: bytes) -> None:
    try:
        codec().decode(data)
    except CodecError:
        pass


@FUZZ
@given(st.binary(max_size=256))
def test_fuzz_arbitrary_bytes(data):
    _decodes_or_raises_codec_error(data)


@FUZZ
@given(
    st.sampled_from(sorted(row[0] for row in FRAME_LAYOUTS.values())),
    st.binary(max_size=256),
)
def test_fuzz_arbitrary_body_under_every_tag(tag, body):
    _decodes_or_raises_codec_error(_frame(tag, body))


@FUZZ
@given(st.data())
def test_fuzz_sample_frames_with_one_byte_flipped(data):
    frame = bytearray(data.draw(st.sampled_from(SAMPLE_FRAMES)))
    at = data.draw(st.integers(0, len(frame) - 1))
    frame[at] ^= data.draw(st.integers(1, 255))
    _decodes_or_raises_codec_error(bytes(frame))


@FUZZ
@given(st.data())
def test_fuzz_sample_frames_truncated(data):
    frame = data.draw(st.sampled_from(SAMPLE_FRAMES))
    cut = data.draw(st.integers(0, len(frame) - 1))
    with pytest.raises(CodecError):
        codec().decode(frame[:cut])
