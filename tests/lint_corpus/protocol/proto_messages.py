"""Known-bad corpus for the protocol conformance analyzer.

A miniature protocol-definition module: the three registries, a codec
layout table with no row for ``Legacy`` (-> codec-fallback) and a row
for the private ``_Envelope`` (exempt from protocol-unregistered, like
the ARQ layer's rows), an ``Orphan`` message nothing dispatches, and an
unregistered ``Rogue`` class the node module handles anyway.
tests/test_protocol_analysis.py pins the exact finding histogram;
expected_graph.json pins the flow graph extracted from this pair of
files.

Never imported at runtime — analyzed purely as source.
"""


class Ping:
    pass


class Pong:
    pass


class Orphan:
    pass


class Legacy:
    pass


class DeadEnd:
    pass


class Rogue:
    pass


class Inner:
    pass


class _Envelope:
    pass


PROTOCOL_MESSAGES = (Ping, Pong, Orphan, Legacy, DeadEnd)
ENVELOPED_MESSAGES = (Inner,)
CONSERVATION_GROUPS = {
    "pings": {
        "messages": ["Ping"],
        "module": "proto_node.py",
        "sent": "pings_sent",
        "received": "pings_received",
    },
}


FRAME_LAYOUTS = {
    Ping: (1,),
    Pong: (2,),
    Orphan: (3,),
    DeadEnd: (4,),
    _Envelope: (5,),
}
