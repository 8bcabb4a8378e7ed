"""Protocol messages exchanged between clients and the server.

Messages are plain dataclasses; their simulated wire size is computed by
:func:`wire_size` so that the traffic meter (Figure 9) sees realistic
relative magnitudes without a real serialization format.

For transports that really do cross a process boundary (the parallel
shard backend, :mod:`repro.net.backend`) the module also provides
:class:`MessageCodec`, a compact binary encoding driven by one table,
:data:`FRAME_LAYOUTS`: each message type's tag and its fields in wire
order, each field naming a small reusable layout (integers, floats,
strings, action ids, optional values, sequences, records, actions,
nested frames, attribute values).  The encoder and the decoder walk the
same row.  A type with no row is rejected with :class:`CodecError`,
and so is every malformed frame: nothing on the wire is unpickled.
Frames are length-prefixed and self-delimiting, so the same frames can
back a checkpoint or WAL file.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.action import Action, ActionId, ActionResult, BlindWrite
from repro.errors import ProtocolError
from repro.net.network import _Ack, _Packet
from repro.types import ClientId, TimeMs
from repro.world.geometry import Vec2


@dataclass(frozen=True)
class SubmitAction:
    """Client -> server: a freshly created action to be serialized."""

    action: Action


@dataclass(frozen=True)
class OrderedAction:
    """One entry of the server's serialized stream.

    ``pos`` is the action's global order number (its position in the
    server queue); clients apply entries in stream order.
    """

    pos: int
    action: Action


@dataclass(frozen=True)
class ActionBatch:
    """Server -> client: an ordered batch of actions.

    In the basic protocol this is "all actions you have not seen yet";
    in the Incomplete World / First Bound models it is a transitive
    closure (with a blind-write prefix carried as an entry with
    ``pos = -1``) or a proactive push.  ``last_installed`` piggybacks the
    server's commit frontier for client-side garbage collection.
    """

    entries: Tuple[OrderedAction, ...]
    last_installed: int = -1


@dataclass(frozen=True)
class Completion:
    """Client -> server: stable result *u* of an action (Algorithm 4
    step 5), enabling the server to install ζ_S(i)."""

    pos: int
    action_id: ActionId
    result: ActionResult
    #: Which client produced the completion (relevant in the
    #: fault-tolerant mode where every evaluating client responds).
    reporter: ClientId = -2


@dataclass(frozen=True)
class AbortNotice:
    """Server -> originating client: the Information Bound Model dropped
    this action; roll back its optimistic effects."""

    action_id: ActionId


@dataclass(frozen=True)
class CommitNotice:
    """Server -> originating client: this action committed while the
    reactive reply to it was parked by the in-order guard, so its echo
    can no longer be delivered (the entry has left the queue).

    The committed values travel in the blind write sent just before
    this notice on the same FIFO channel; the notice itself retires the
    client's optimistic entry and confirms the submission.  Without it
    the originator would wait for an echo that never comes — a liveness
    gap the schedule-permutation explorer flushed out
    (docs/static_analysis.md)."""

    pos: int
    action_id: ActionId


@dataclass(frozen=True)
class StateUpdate:
    """Server -> client (Central/RING baselines): authoritative values.

    ``cause`` identifies the action whose evaluation produced the
    update, so the originator can measure its response time.
    """

    values: tuple  # canonicalised like ActionResult.written
    cause: Optional[ActionId] = None
    submitted_at: TimeMs = 0.0


@dataclass(frozen=True)
class PeerForward:
    """Server -> relay peer: a batch to pass on to ``final_dst``.

    The Section VII hybrid architecture: the server sends one copy to a
    relay client, which forwards it over a peer link — server egress is
    spent once, the relay pays the second hop.
    """

    final_dst: ClientId
    payload: "ActionBatch"


@dataclass(frozen=True)
class GroupBundle:
    """Server -> relay head: one push cycle's batches for a relay group,
    with shared entries deduplicated (§VII hybrid).

    ``shared`` holds each queued action once; ``members`` maps each
    recipient to a sequence whose items are either an ``int`` (index
    into ``shared``) or an :class:`OrderedAction` carrying a
    member-specific blind write.  The head reconstructs each member's
    :class:`ActionBatch` and forwards it over a peer link (keeping its
    own batch for itself).  On the wire, a shared entry costs its full
    size exactly once and 4 bytes per additional reference — that is
    the egress saving over unicasting overlapping batches.
    """

    shared: Tuple[OrderedAction, ...]
    members: Tuple[Tuple[ClientId, tuple], ...]
    last_installed: int = -1


@dataclass(frozen=True)
class Heartbeat:
    """Client -> server: liveness beacon (Section III-C).

    Heartbeats are sent unreliably on purpose — a heartbeat that the
    lossy network ate carries exactly the information the server needs
    (nothing arrived)."""

    sender: ClientId = -2


@dataclass(frozen=True)
class RelayedAction:
    """Server -> client (Broadcast/RING baselines): a raw forwarded
    action for local evaluation."""

    action: Action
    submitted_at: TimeMs = 0.0


# ----------------------------------------------------------------------
# Sharded deployment (repro.core.sharded): cross-shard forwarding,
# splicing, result distribution, and client handoff.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpanForward:
    """Owner shard -> sequencer: a spanning action awaiting a global
    sequence number.  ``involved`` names every shard whose region the
    action's influence disc intersects (owner included)."""

    owner: int
    involved: Tuple[int, ...]
    action: Action


@dataclass(frozen=True)
class SpanSplice:
    """Sequencer -> involved shards: splice this spanning action into
    your local stream at your next position.  Splices are broadcast in
    strictly ascending ``gsn`` order over FIFO backbone links, which is
    what makes every shard agree on the relative order of spanning
    actions."""

    gsn: int
    owner: int
    involved: Tuple[int, ...]
    action: Action


@dataclass(frozen=True)
class SpanResult:
    """Owner shard -> involved peers: the committed result of a
    spanning action (the originator's completion, relayed)."""

    gsn: int
    action_id: ActionId
    result: ActionResult


@dataclass(frozen=True)
class SpanAbort:
    """Owner shard -> involved peers: the spanning action was aborted
    (orphaned or dropped); peers mark their spliced entry invalid."""

    gsn: int
    action_id: ActionId


@dataclass(frozen=True)
class HandoffPrepare:
    """Shard -> client: your region owner is changing; stop submitting
    to me and acknowledge with :class:`HandoffReady`."""

    new_shard: int


@dataclass(frozen=True)
class HandoffReady:
    """Client -> old shard: I have stopped submitting.  Sent on the
    same FIFO channel as submissions, so receipt proves the shard has
    everything the client ever sent it."""

    client_id: ClientId


@dataclass(frozen=True)
class HandoffTransfer:
    """Old shard -> new shard (backbone): adopt this client.

    ``resolved`` lists the client's action ids the old shard already
    committed or aborted — relayed to the client so it can retire
    pending entries whose stream echoes will never arrive."""

    client_id: ClientId
    radius: float
    interests: Optional[frozenset] = None
    resolved: Tuple[ActionId, ...] = ()


@dataclass(frozen=True)
class HandoffWelcome:
    """New shard -> client: you are mine now; switch your stream."""

    shard: int
    resolved: Tuple[ActionId, ...] = ()


# ----------------------------------------------------------------------
# Elastic rebalancing control plane (repro.core.elastic,
# docs/elasticity.md).  All five travel only between shard servers on
# the fault-free FIFO backbone.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LoadReport:
    """Shard -> controller (shard 0): one load sample — the cpu and
    serialized-count deltas accumulated since the previous sample.
    Every shard reports once per elastic interval; the controller
    evaluates a round once all K reports for it have arrived."""

    shard: int
    round: int
    cpu_ms: float
    serialized: int
    clients: int


@dataclass(frozen=True)
class PartitionUpdate:
    """Controller -> every shard: flip your partition copy to
    ``version`` with interior stripe ``boundaries``.  Receipt opens an
    epoch on the shard: a fence at its current queue position, bulk
    handoffs for clients it no longer owns, and union-of-epochs span
    classification until the version commits."""

    version: int
    boundaries: Tuple[float, ...]


@dataclass(frozen=True)
class DrainDone:
    """Shard -> controller: my fence for ``version`` passed, my region
    syncs went out, and every bulk-handoff transfer has been sent."""

    shard: int
    version: int


@dataclass(frozen=True)
class PartitionCommit:
    """Controller -> every shard: all K shards drained ``version``;
    retire the superseded boundaries from span classification."""

    version: int


@dataclass(frozen=True)
class RegionSync:
    """Losing shard -> gaining shard: committed values of every
    written object inside the transferred x-interval [lo, hi).

    Each entry is ``(oid, stamp_gsn, stamp_local, attrs)`` with attrs
    canonicalised like ``ActionResult.written``.  The stamp is the gsn
    of the last spanning action that wrote the object (-1 if none)
    plus a flag for a later local write; the receiver applies an entry
    only if the stamp is strictly newer than its own, so a sync racing
    a span it already committed never regresses the store."""

    version: int
    lo: float
    hi: float
    entries: Tuple[tuple, ...] = ()


# ----------------------------------------------------------------------
# Control-plane messages (docs/control_plane.md).  Backbone-only, like
# the elastic messages above.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LeaseHeartbeat:
    """Leaseholder -> every shard: I still hold the gsn lease for
    ``term``.  Silence past the lease timeout triggers an election."""

    term: int
    holder: int


@dataclass(frozen=True)
class LeaseRequest:
    """Candidate -> every shard: vote for me as holder of ``term``."""

    term: int
    candidate: int


@dataclass(frozen=True)
class LeaseVote:
    """Voter -> candidate: one vote for ``term``, carrying the highest
    gsn this voter has observed so the winner's floor clears it."""

    term: int
    voter: int
    max_gsn: int


@dataclass(frozen=True)
class LeaseGrant:
    """New holder -> every shard: the round for ``term`` completed;
    ``holder`` sequences from ``gsn_floor`` up.  Receivers re-forward
    any spanning actions the dead holder never spliced."""

    term: int
    holder: int
    gsn_floor: int


@dataclass(frozen=True)
class ShardHello:
    """Restarted shard -> every shard: I am back (recovered from
    checkpoint+WAL).  Receivers clear me from their dead set; the
    leaseholder re-sends the current lease and partition version."""

    shard: int


@dataclass(frozen=True)
class ClientHello:
    """Reconnecting client -> its shard: re-attach me (the protocol
    rejoin path for K > 1, where the classic oracle re-attach would
    target shard 0 regardless of where the avatar lives).  Answered
    with a :class:`HandoffWelcome`; the client retries until one
    arrives, so a hello racing a handoff or a second crash is safe."""

    client_id: ClientId
    radius: float
    interests: Optional[frozenset] = None


# ----------------------------------------------------------------------
# Protocol registry (repro.analysis.protocol, docs/static_analysis.md).
#
# ``PROTOCOL_MESSAGES`` is the closed set of message types the protocol
# conformance analyzer checks senders, handlers, codec tags, and wire
# sizes against; the tuple is parsed *statically* (never imported) by
# the analyzer, so keep it a plain literal of names defined above.
# ----------------------------------------------------------------------
PROTOCOL_MESSAGES = (
    SubmitAction,
    OrderedAction,
    ActionBatch,
    Completion,
    AbortNotice,
    CommitNotice,
    StateUpdate,
    PeerForward,
    GroupBundle,
    Heartbeat,
    RelayedAction,
    SpanForward,
    SpanSplice,
    SpanResult,
    SpanAbort,
    HandoffPrepare,
    HandoffReady,
    HandoffTransfer,
    HandoffWelcome,
    LoadReport,
    PartitionUpdate,
    DrainDone,
    PartitionCommit,
    RegionSync,
    LeaseHeartbeat,
    LeaseRequest,
    LeaseVote,
    LeaseGrant,
    ShardHello,
    ClientHello,
)

#: Messages that only travel *inside* another message's fields (an
#: :class:`OrderedAction` rides in batch/bundle/splice entries) and are
#: therefore consumed structurally, never by an ``isinstance`` dispatch
#: branch of their own.  The flow-graph analyzer exempts these from the
#: every-message-has-a-handler rule but still requires codec coverage.
ENVELOPED_MESSAGES = (OrderedAction,)

#: Conservation accounting the analyzer enforces: every message in a
#: group must be counted on both ends — the dispatch branch handling it
#: bumps ``received`` and every constructor site flows through a sender
#: that bumps ``sent`` — because the quiescence check sums exactly these
#: counters (``repro.net.backend._drive``).  A handler that mutates
#: state without the accounting would let a run go quiescent with
#: control messages still in flight.  Parsed statically, like the
#: registry above.
CONSERVATION_GROUPS = {
    "elastic": {
        "messages": (
            "LoadReport",
            "PartitionUpdate",
            "DrainDone",
            "PartitionCommit",
            "RegionSync",
        ),
        "sent": "elastic_sent",
        "received": "elastic_received",
        "module": "core/sharded.py",
    },
}


def wire_size(message: object) -> int:
    """Simulated size in bytes of a protocol message.

    Sizes: actions self-report (:meth:`Action.wire_size`); results and
    state updates cost 12 bytes per written attribute plus 8 per object;
    fixed headers cover ids and positions.
    """
    if isinstance(message, SubmitAction):
        return 16 + message.action.wire_size()
    if isinstance(message, OrderedAction):
        return 8 + message.action.wire_size()
    if isinstance(message, ActionBatch):
        return 16 + sum(8 + entry.action.wire_size() for entry in message.entries)
    if isinstance(message, Completion):
        return 32 + _result_size(message.result)
    if isinstance(message, AbortNotice):
        return 24
    if isinstance(message, CommitNotice):
        return 32
    if isinstance(message, Heartbeat):
        return 8
    if isinstance(message, StateUpdate):
        return 24 + sum(8 + 12 * len(attrs) for _, attrs in message.values)
    if isinstance(message, RelayedAction):
        return 24 + message.action.wire_size()
    if isinstance(message, PeerForward):
        return 8 + wire_size(message.payload)
    if isinstance(message, GroupBundle):
        size = 16 + sum(8 + entry.action.wire_size() for entry in message.shared)
        for _, items in message.members:
            size += 8
            for item in items:
                if isinstance(item, int):
                    size += 4  # reference into the shared table
                else:
                    size += 8 + item.action.wire_size()
        return size
    if isinstance(message, SpanForward):
        return 24 + 4 * len(message.involved) + message.action.wire_size()
    if isinstance(message, SpanSplice):
        return 32 + 4 * len(message.involved) + message.action.wire_size()
    if isinstance(message, SpanResult):
        return 32 + _result_size(message.result)
    if isinstance(message, SpanAbort):
        return 32
    if isinstance(message, HandoffPrepare):
        return 16
    if isinstance(message, HandoffReady):
        return 16
    if isinstance(message, HandoffTransfer):
        return (
            32
            + 8 * len(message.resolved)
            + (4 * len(message.interests) if message.interests else 0)
        )
    if isinstance(message, HandoffWelcome):
        return 16 + 8 * len(message.resolved)
    if isinstance(message, LoadReport):
        return 32
    if isinstance(message, PartitionUpdate):
        return 16 + 8 * len(message.boundaries)
    if isinstance(message, DrainDone):
        return 16
    if isinstance(message, PartitionCommit):
        return 8
    if isinstance(message, RegionSync):
        return 32 + sum(
            16 + 12 * len(attrs) for _, _, _, attrs in message.entries
        )
    if isinstance(message, LeaseHeartbeat):
        return 12
    if isinstance(message, LeaseRequest):
        return 12
    if isinstance(message, LeaseVote):
        return 16
    if isinstance(message, LeaseGrant):
        return 16
    if isinstance(message, ShardHello):
        return 8
    if isinstance(message, ClientHello):
        return 16 + (4 * len(message.interests) if message.interests else 0)
    raise TypeError(f"not a protocol message: {type(message).__name__}")


def _result_size(result: ActionResult) -> int:
    return sum(8 + 12 * len(attrs) for _, attrs in result.written)


# ----------------------------------------------------------------------
# Binary codec
#
# Every frame's layout is stated once, as a row of FRAME_LAYOUTS: the
# message type, its tag, and its fields in wire order.  Each field
# names one of the small reusable layouts below; MessageCodec.encode
# and MessageCodec._decode_frame walk the same row, so the two
# directions cannot drift.  A layout has ``write(codec, out, value)``,
# which appends the value's bytes, and ``read(codec, reader)``, which
# rebuilds it; the codec carries the decode context.
# ----------------------------------------------------------------------
class CodecError(ProtocolError):
    """A binary frame could not be encoded or decoded.

    Raised for types with no wire layout, truncated or malformed
    frames, unknown tags, invalid UTF-8, nesting deeper than
    :data:`MAX_NESTING`, and decode contexts that lack the world
    geometry a payload references.
    """


#: Deepest nesting the codec accepts, applied separately to frames
#: inside frames (``PeerForward``, the ARQ payload) and to tuples
#: inside attribute values.  The protocol nests at most three frames
#: deep; the cap only keeps a hostile frame from exhausting the stack.
MAX_NESTING = 32

_FRAME_HEADER = struct.Struct(">BI")  # (tag, body length)
_U32 = struct.Struct(">I")
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class _Reader:
    """Cursor over an immutable buffer; every read checks bounds.
    ``depth`` counts the frames enclosing the buffer."""

    __slots__ = ("_view", "_end", "pos", "depth")

    def __init__(self, data, depth: int = 0) -> None:
        self._view = memoryview(data)
        self._end = len(self._view)
        self.pos = 0
        self.depth = depth

    def remaining(self) -> int:
        return self._end - self.pos

    def _advance(self, count: int) -> int:
        start = self.pos
        if count > self._end - start:
            raise CodecError(
                f"truncated frame: wanted {count} bytes at offset "
                f"{start}, have {self._end - start}"
            )
        self.pos = start + count
        return start

    def read(self, count: int) -> memoryview:
        return self._view[self._advance(count) : self.pos]

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack_from(self._view, self._advance(fmt.size))

    def byte(self) -> int:
        return self._view[self._advance(1)]

    def count(self) -> int:
        return self.unpack(_U32)[0]


class _Fixed:
    """A fixed-width struct; a multi-field one rebuilds through ``make``."""

    def __init__(self, fmt: str, make=None) -> None:
        self._struct = struct.Struct(fmt)
        self._make = make

    def write(self, codec, out: bytearray, value) -> None:
        if self._make is None:
            out += self._struct.pack(value)
        else:
            out += self._struct.pack(*value)

    def read(self, codec, r: _Reader):
        fields = r.unpack(self._struct)
        return fields[0] if self._make is None else self._make(*fields)


class _Str:
    """UTF-8 text behind a u32 byte count."""

    def write(self, codec, out: bytearray, text: str) -> None:
        raw = text.encode("utf-8")
        out += _U32.pack(len(raw))
        out += raw

    def read(self, codec, r: _Reader) -> str:
        raw = r.read(r.count())
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"string field is not UTF-8: {exc}") from None


class _Opt:
    """A presence byte, then the value if present (``None`` if not)."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def write(self, codec, out: bytearray, value) -> None:
        if value is None:
            out.append(0)
        else:
            out.append(1)
            self._inner.write(codec, out, value)

    def read(self, codec, r: _Reader):
        return self._inner.read(codec, r) if r.byte() else None


class _Seq:
    """A u32 item count, then the items.  Decodes to a tuple, or with
    ``as_set`` to a frozenset whose items are written sorted."""

    def __init__(self, item, as_set: bool = False) -> None:
        self._item = item
        self._as_set = as_set

    def write(self, codec, out: bytearray, items) -> None:
        if self._as_set:
            items = sorted(items)
        out += _U32.pack(len(items))
        for item in items:
            self._item.write(codec, out, item)

    def read(self, codec, r: _Reader):
        items = [self._item.read(codec, r) for _ in range(r.count())]
        return frozenset(items) if self._as_set else tuple(items)


class _Map:
    """A u32 entry count, then key/value pairs in insertion order."""

    def __init__(self, key, value) -> None:
        self._key = key
        self._value = value

    def write(self, codec, out: bytearray, mapping: dict) -> None:
        out += _U32.pack(len(mapping))
        for key, value in mapping.items():
            self._key.write(codec, out, key)
            self._value.write(codec, out, value)

    def read(self, codec, r: _Reader) -> dict:
        key, value = self._key, self._value
        return {
            key.read(codec, r): value.read(codec, r) for _ in range(r.count())
        }


class _Tuple:
    """A fixed-length tuple, one layout per position."""

    def __init__(self, *items) -> None:
        self._items = items

    def write(self, codec, out: bytearray, value: tuple) -> None:
        if len(value) != len(self._items):
            raise CodecError(f"expected {len(self._items)} items: {value!r}")
        for layout, item in zip(self._items, value):
            layout.write(codec, out, item)

    def read(self, codec, r: _Reader) -> tuple:
        return tuple(layout.read(codec, r) for layout in self._items)


class _Record:
    """Named fields in wire order, rebuilt by keyword through ``make``:
    the record's type, or a factory for a type whose constructor takes
    other arguments."""

    def __init__(self, make, *fields) -> None:
        self.make = make
        self.fields = fields

    def write(self, codec, out: bytearray, value) -> None:
        for name, layout in self.fields:
            layout.write(codec, out, getattr(value, name))

    def read(self, codec, r: _Reader):
        return self.make(
            **{name: layout.read(codec, r) for name, layout in self.fields}
        )


class _Union:
    """A sub-tag byte naming the value's exact type, then that type's
    layout.  ``choices`` returns ``(sub_tag, type, layout)`` rows; it is
    called on first use, so a row may name a type imported late."""

    def __init__(self, choices) -> None:
        self._choices = choices
        self._by_type = self._by_tag = None

    def _resolve(self) -> None:
        rows = self._choices()
        self._by_type = {kind: (tag, layout) for tag, kind, layout in rows}
        self._by_tag = {tag: layout for tag, _, layout in rows}

    def write(self, codec, out: bytearray, value) -> None:
        if self._by_type is None:
            self._resolve()
        choice = self._by_type.get(type(value))
        if choice is None:
            codec._note_fallback(type(value).__name__)
        tag, layout = choice
        out.append(tag)
        layout.write(codec, out, value)

    def read(self, codec, r: _Reader):
        if self._by_tag is None:
            self._resolve()
        tag = r.byte()
        if tag not in self._by_tag:
            raise CodecError(f"unknown sub-tag {tag}")
        return self._by_tag[tag].read(codec, r)


class _Walls:
    """The codec's bound wall field.  It is seed-derived and identical
    on every host, so it never ships: encoding writes nothing, decoding
    rebinds the decoder's own copy."""

    def write(self, codec, out: bytearray, walls) -> None:
        pass

    def read(self, codec, r: _Reader):
        if codec._walls is None:
            raise CodecError("cannot decode MoveAction: no wall field bound")
        return codec._walls


class _Frame:
    """A nested frame, header included."""

    def write(self, codec, out: bytearray, message) -> None:
        out += codec.encode(message)

    def read(self, codec, r: _Reader):
        return codec._decode_frame(r)


_I64 = _Fixed(">q")
_F64 = _Fixed(">d")
_FLAG = _Fixed(">?")
_STR = _Str()
_AID = _Fixed(">qq", ActionId)
_VEC2 = _Fixed(">dd", Vec2)

#: Attribute-value sub-tags: constants, scalars, and tuples.
_CONSTANT_TAGS = {None: ord("N"), True: ord("T"), False: ord("F")}
_CONSTANTS = {tag: value for value, tag in _CONSTANT_TAGS.items()}
_SCALAR_TAGS = {
    int: (ord("I"), _I64), float: (ord("D"), _F64), str: (ord("S"), _STR)
}
_SCALARS = {tag: layout for tag, layout in _SCALAR_TAGS.values()}
_TUPLE_TAG = ord("U")


class _Value:
    """An attribute value: None, a bool, an int64, a float, a str, or a
    tuple of values nested at most :data:`MAX_NESTING` deep."""

    def write(self, codec, out: bytearray, value, depth: int = 0) -> None:
        kind = type(value)
        if value is None or kind is bool:
            out.append(_CONSTANT_TAGS[value])
        elif kind in _SCALAR_TAGS:
            if kind is int and not _INT64_MIN <= value <= _INT64_MAX:
                raise CodecError(f"attribute value {value} overflows int64")
            tag, layout = _SCALAR_TAGS[kind]
            out.append(tag)
            layout.write(codec, out, value)
        elif kind is tuple:
            _check_depth(depth, "tuple values")
            out.append(_TUPLE_TAG)
            out += _U32.pack(len(value))
            for item in value:
                self.write(codec, out, item, depth + 1)
        else:
            codec._note_fallback(kind.__name__)

    def read(self, codec, r: _Reader, depth: int = 0):
        tag = r.byte()
        if tag in _CONSTANTS:
            return _CONSTANTS[tag]
        if tag in _SCALARS:
            return _SCALARS[tag].read(codec, r)
        if tag != _TUPLE_TAG:
            raise CodecError(f"unknown value sub-tag {tag}")
        _check_depth(depth, "tuple values")
        return tuple(self.read(codec, r, depth + 1) for _ in range(r.count()))


def _check_depth(depth: int, what: str) -> None:
    if depth >= MAX_NESTING:
        raise CodecError(f"{what} nested deeper than {MAX_NESTING}")


_VALUE = _Value()
_FRAME = _Frame()
_STR_SET = _Seq(_STR, as_set=True)
#: ``(name, value)`` pairs, and ``(oid, attrs)`` pairs canonicalised
#: like ``ActionResult.written``.
_ATTRS = _Seq(_Tuple(_STR, _VALUE))
_WRITTEN = _Seq(_Tuple(_STR, _ATTRS))
_RESULT = _Record(ActionResult, ("aborted", _FLAG), ("written", _WRITTEN))


def _action_choices() -> tuple:
    # Imported on first use: repro.world imports repro.core.
    from repro.world.movement import MoveAction

    def move(radius, **fields) -> MoveAction:
        try:
            return MoveAction(effect_range=radius, **fields)
        except ProtocolError as exc:
            raise CodecError(f"invalid MoveAction: {exc}") from exc

    def blind(action_id, _values, origin) -> BlindWrite:
        return BlindWrite(action_id, _values, origin=origin)

    return (
        (ord("M"), MoveAction, _Record(
            move, ("walls", _Walls()), ("action_id", _AID),
            ("avatar_oid", _STR), ("neighbors", _STR_SET),
            ("duration_s", _F64), ("radius", _F64), ("position", _VEC2),
            ("velocity", _Opt(_VEC2)), ("cost_ms", _F64),
        )),
        (ord("B"), BlindWrite, _Record(
            blind, ("action_id", _AID),
            ("_values", _Map(_STR, _Map(_STR, _VALUE))),
            ("origin", _Opt(_AID)),
        )),
    )


_ACTION = _Union(_action_choices)
_ENTRY_FIELDS = (("pos", _I64), ("action", _ACTION))
_ENTRY = _Record(OrderedAction, *_ENTRY_FIELDS)
_ENTRIES = _Seq(_ENTRY)
#: A GroupBundle member item: a reference into the shared table, or an
#: entry carrying a member-specific blind write.
_BUNDLE_ITEM = _Union(
    lambda: ((ord("R"), int, _I64), (ord("E"), OrderedAction, _ENTRY))
)
_INVOLVED = _Seq(_I64)
_RESOLVED = _Seq(_AID)

#: The wire layout of every frame: type -> (tag, fields in wire order).
#: Tags are part of the on-wire format: never renumber.  The protocol
#: analyzer (repro.analysis.protocol) reads codec coverage from this
#: literal.
FRAME_LAYOUTS = {
    SubmitAction: (1, ("action", _ACTION)),
    OrderedAction: (2, *_ENTRY_FIELDS),
    ActionBatch: (3, ("last_installed", _I64), ("entries", _ENTRIES)),
    Completion: (4, ("pos", _I64), ("action_id", _AID), ("reporter", _I64),
                 ("result", _RESULT)),
    AbortNotice: (5, ("action_id", _AID)),
    StateUpdate: (6, ("values", _WRITTEN), ("cause", _Opt(_AID)),
                  ("submitted_at", _F64)),
    Heartbeat: (7, ("sender", _I64)),
    RelayedAction: (8, ("submitted_at", _F64), ("action", _ACTION)),
    PeerForward: (9, ("final_dst", _I64), ("payload", _FRAME)),
    GroupBundle: (10, ("last_installed", _I64), ("shared", _ENTRIES),
                  ("members", _Seq(_Tuple(_I64, _Seq(_BUNDLE_ITEM))))),
    SpanForward: (16, ("owner", _I64), ("involved", _INVOLVED),
                  ("action", _ACTION)),
    SpanSplice: (17, ("gsn", _I64), ("owner", _I64), ("involved", _INVOLVED),
                 ("action", _ACTION)),
    SpanResult: (18, ("gsn", _I64), ("action_id", _AID), ("result", _RESULT)),
    SpanAbort: (19, ("gsn", _I64), ("action_id", _AID)),
    HandoffPrepare: (20, ("new_shard", _I64)),
    HandoffReady: (21, ("client_id", _I64)),
    HandoffTransfer: (22, ("client_id", _I64), ("radius", _F64),
                      ("interests", _Opt(_STR_SET)), ("resolved", _RESOLVED)),
    HandoffWelcome: (23, ("shard", _I64), ("resolved", _RESOLVED)),
    _Packet: (24, ("seq", _I64), ("base", _I64), ("payload", _Opt(_FRAME))),
    _Ack: (25, ("upto", _I64)),
    LoadReport: (32, ("shard", _I64), ("round", _I64), ("cpu_ms", _F64),
                 ("serialized", _I64), ("clients", _I64)),
    PartitionUpdate: (33, ("version", _I64), ("boundaries", _Seq(_F64))),
    DrainDone: (34, ("shard", _I64), ("version", _I64)),
    PartitionCommit: (35, ("version", _I64)),
    RegionSync: (36, ("version", _I64), ("lo", _F64), ("hi", _F64),
                 ("entries", _Seq(_Tuple(_STR, _I64, _I64, _ATTRS)))),
    LeaseHeartbeat: (37, ("term", _I64), ("holder", _I64)),
    LeaseRequest: (38, ("term", _I64), ("candidate", _I64)),
    LeaseVote: (39, ("term", _I64), ("voter", _I64), ("max_gsn", _I64)),
    LeaseGrant: (40, ("term", _I64), ("holder", _I64), ("gsn_floor", _I64)),
    ShardHello: (41, ("shard", _I64)),
    ClientHello: (42, ("client_id", _I64), ("radius", _F64),
                  ("interests", _Opt(_STR_SET))),
    CommitNotice: (43, ("pos", _I64), ("action_id", _AID)),
}

_ROWS = {
    kind: (tag, _Record(kind, *fields))
    for kind, (tag, *fields) in FRAME_LAYOUTS.items()
}
_ROWS_BY_TAG = {tag: record for tag, record in _ROWS.values()}


class MessageCodec:
    """Binary encoder/decoder for the protocol messages above.

    A codec is bound to a decode context: the world's
    :class:`~repro.world.walls.WallField`, which move actions reference
    but never ship (it is seed-derived, identical on every host).  The
    encoder is context-free; decoding a move action without a bound
    wall field raises :class:`CodecError`.

    Frames are ``tag:u8 | body_length:u32 | body`` and self-delimiting:
    concatenated frames form a valid stream for
    :meth:`encode_sequence` / :meth:`decode_sequence`.  Decoding fails
    only with :class:`CodecError`.
    """

    def __init__(self, walls=None) -> None:
        self._walls = walls

    def _note_fallback(self, type_name: str) -> None:
        """Reject a message, action or attribute value whose type has
        no wire layout."""
        raise CodecError(f"no wire layout for {type_name}")

    # -- public API -----------------------------------------------------
    def encode(self, message: object) -> bytes:
        """Encode one message as a single self-delimiting frame."""
        row = _ROWS.get(type(message))
        if row is None:
            self._note_fallback(type(message).__name__)
        tag, record = row
        body = bytearray()
        record.write(self, body, message)
        if len(body) > 0xFFFFFFFF:
            raise CodecError(f"frame body too large: {len(body)} bytes")
        return _FRAME_HEADER.pack(tag, len(body)) + body

    def decode(self, data: bytes) -> object:
        """Decode exactly one frame; trailing bytes are an error."""
        reader = _Reader(data)
        message = self._decode_frame(reader)
        if reader.remaining():
            raise CodecError(
                f"{reader.remaining()} trailing bytes after frame"
            )
        return message

    def encode_sequence(self, messages) -> bytes:
        """Concatenate the frames of ``messages`` into one buffer."""
        return b"".join(self.encode(message) for message in messages)

    def decode_sequence(self, data: bytes) -> list:
        """Decode a buffer of concatenated frames into a list."""
        reader = _Reader(data)
        messages = []
        while reader.remaining():
            messages.append(self._decode_frame(reader))
        return messages

    def _decode_frame(self, reader: _Reader) -> object:
        tag, length = reader.unpack(_FRAME_HEADER)
        record = _ROWS_BY_TAG.get(tag)
        if record is None:
            raise CodecError(f"unknown frame tag {tag}")
        _check_depth(reader.depth, "frames")
        body = _Reader(reader.read(length), reader.depth + 1)
        message = record.read(self, body)
        if body.remaining():
            raise CodecError(
                f"tag {tag}: {body.remaining()} undecoded body bytes"
            )
        return message
