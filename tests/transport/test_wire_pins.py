"""Pins of the ``eona-msg/1`` wire format and of ``to_dict``.

Every registered wire type encodes one fixed instance to a committed
canonical line, so any change to the codec or the schema dumpers that
moves a byte fails here.  ``to_dict`` must equal
:func:`dataclasses.asdict` down to the container types and must never
hand out the instance's own containers, and decoding resolves a class's
type hints once, not per message.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import typing

import pytest

from repro.core.interfaces import QueryResult
from repro.core.schemas import (
    SCHEMA_VERSION,
    CongestionSignal,
    DemandEstimate,
    PeeringDecision,
    PeeringPointInfo,
    QoeAggregate,
    ServerHintInfo,
    field_plan,
)
from repro.transport import (
    WIRE_VERSION,
    CodecError,
    ErrorReply,
    QueryReply,
    QueryRequest,
    decode,
    encode,
    wire_types,
)

_SIGNAL = CongestionSignal(
    time=7.5, scope="access", congested=True, severity=0.875,
    bottleneck_link="isp->home",
)

#: One fixed instance per wire type.
SAMPLES = {
    "QoeAggregate": QoeAggregate(
        window_start=10.0, window_s=10.0, cdn="cdnA", isp="ispB", sessions=42,
        buffering_ratio=0.125, mean_bitrate_mbps=3.5, join_time_s=1.25,
        abandonment_rate=0.0625,
    ),
    "DemandEstimate": DemandEstimate(
        time=30.0, demand_mbps={"cdnB": 0.0, "cdnA": 120.5}
    ),
    "PeeringPointInfo": PeeringPointInfo(
        peering_node="peer1", cdn="cdnA", capacity_mbps=1000.0,
        load_mbps=850.5, congested=False,
    ),
    "PeeringDecision": PeeringDecision(
        time=12.5, cdn="cdnA", selected_peering="peer2"
    ),
    "CongestionSignal": _SIGNAL,
    "ServerHintInfo": ServerHintInfo(
        cdn="cdnA", server_id="s1", node_id="n3", load=0.5, degraded=True
    ),
    "QueryRequest": QueryRequest(
        owner="isp", requester="appp", query="congestion", msg_id=17,
        params={"window": 2, "tags": ["a", "b"]},
    ),
    "QueryReply": QueryReply(
        msg_id=17, served_at=12.0, query="congestion",
        payload=[_SIGNAL.to_dict()], age_s=2.5,
    ),
    "ErrorReply": ErrorReply(
        msg_id=3, error="AccessDeniedError", message="no grant"
    ),
    "QueryResult": QueryResult(
        query="demand_estimate",
        payload={"time": 30.0, "demand_mbps": {"cdnA": 1.5}},
        age_s=0.0, cause=9,
    ),
}

_HEAD = '{"body": '
_TAIL = ', "schemas": "eona-schemas/1", "type": "%s", "v": "eona-msg/1"}'

#: The canonical body of each sample, as the codec shipped it when the
#: wire format was pinned.
BODIES = {
    "QoeAggregate": (
        '{"abandonment_rate": 0.0625, "buffering_ratio": 0.125, "cdn": "cdnA",'
        ' "isp": "ispB", "join_time_s": 1.25, "mean_bitrate_mbps": 3.5,'
        ' "sessions": 42, "window_s": 10.0, "window_start": 10.0}'
    ),
    "DemandEstimate": '{"demand_mbps": {"cdnA": 120.5, "cdnB": 0.0}, "time": 30.0}',
    "PeeringPointInfo": (
        '{"capacity_mbps": 1000.0, "cdn": "cdnA", "congested": false,'
        ' "load_mbps": 850.5, "peering_node": "peer1"}'
    ),
    "PeeringDecision": '{"cdn": "cdnA", "selected_peering": "peer2", "time": 12.5}',
    "CongestionSignal": (
        '{"bottleneck_link": "isp->home", "congested": true, "scope": "access",'
        ' "severity": 0.875, "time": 7.5}'
    ),
    "ServerHintInfo": (
        '{"cdn": "cdnA", "degraded": true, "load": 0.5, "node_id": "n3",'
        ' "server_id": "s1"}'
    ),
    "QueryRequest": (
        '{"msg_id": 17, "owner": "isp", "params": {"tags": ["a", "b"],'
        ' "window": 2}, "query": "congestion", "requester": "appp"}'
    ),
    "QueryReply": (
        '{"age_s": 2.5, "cause": null, "msg_id": 17, "payload":'
        ' [{"bottleneck_link": "isp->home", "congested": true, "scope": "access",'
        ' "severity": 0.875, "time": 7.5}], "query": "congestion",'
        ' "served_at": 12.0}'
    ),
    "ErrorReply": '{"error": "AccessDeniedError", "message": "no grant", "msg_id": 3}',
    "QueryResult": (
        '{"age_s": 0.0, "cause": 9, "payload": {"demand_mbps": {"cdnA": 1.5},'
        ' "time": 30.0}, "query": "demand_estimate"}'
    ),
}


def _same_tree(left, right):
    """Equal, and of the same container type at every level."""
    assert type(left) is type(right), (left, right)
    if isinstance(left, dict):
        assert list(left) == list(right)
        for key in left:
            _same_tree(left[key], right[key])
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            _same_tree(a, b)
    else:
        assert left == right


def _shared_containers(tree, other):
    """Containers of ``tree`` that are the very objects found in ``other``."""
    seen = set()

    def walk(node):
        if isinstance(node, (dict, list)):
            seen.add(id(node))
            for child in node.values() if isinstance(node, dict) else node:
                walk(child)
        elif isinstance(node, tuple):
            for child in node:
                walk(child)

    walk(other)
    shared = []

    def find(node):
        if isinstance(node, (dict, list)):
            if id(node) in seen:
                shared.append(node)
            for child in node.values() if isinstance(node, dict) else node:
                find(child)
        elif isinstance(node, tuple):
            for child in node:
                find(child)

    find(tree)
    return shared


class TestCanonicalFrames:
    def test_every_wire_type_has_a_pinned_sample(self):
        assert tuple(sorted(SAMPLES)) == wire_types()
        assert tuple(sorted(BODIES)) == wire_types()

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_encode_matches_the_pinned_frame(self, name):
        assert encode(SAMPLES[name]) == _HEAD + BODIES[name] + _TAIL % name

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_decode_inverts_encode(self, name):
        assert decode(encode(SAMPLES[name])) == SAMPLES[name]


_SCHEMA_SAMPLES = [
    sample for sample in SAMPLES.values() if hasattr(sample, "to_dict")
] + [
    QueryReply(
        msg_id=1, served_at=0.0, query="q",
        payload={
            "rows": [{"a": (1, 2.0), "b": [3, {"c": (4,)}]}],
            "t": ("x", ["y"], {"z": None}),
        },
        age_s=0.0,
    ),
    QueryReply(
        msg_id=2, served_at=0.0, query="q", payload=[_SIGNAL, (_SIGNAL,)],
        age_s=0.0,
    ),
]


class TestToDict:
    @pytest.mark.parametrize(
        "sample", _SCHEMA_SAMPLES, ids=lambda s: type(s).__name__
    )
    def test_to_dict_is_asdict(self, sample):
        _same_tree(sample.to_dict(), dataclasses.asdict(sample))

    @pytest.mark.parametrize(
        "sample", _SCHEMA_SAMPLES, ids=lambda s: type(s).__name__
    )
    def test_to_dict_shares_no_container_with_the_instance(self, sample):
        fields = [getattr(sample, f.name) for f in dataclasses.fields(sample)]
        assert _shared_containers(sample.to_dict(), fields) == []

    @pytest.mark.parametrize(
        "sample", _SCHEMA_SAMPLES + [SAMPLES["QueryResult"]],
        ids=lambda s: type(s).__name__,
    )
    def test_encode_is_the_canonical_json_of_asdict(self, sample):
        envelope = {
            "v": WIRE_VERSION, "schemas": SCHEMA_VERSION,
            "type": type(sample).__name__, "body": dataclasses.asdict(sample),
        }
        assert encode(sample) == json.dumps(envelope, sort_keys=True, allow_nan=False)

    def test_a_body_that_is_not_json_is_a_codec_error(self):
        reply = QueryReply(msg_id=1, served_at=0.0, query="q", payload={1, 2}, age_s=0.0)
        with pytest.raises(CodecError, match="not JSON serializable"):
            encode(reply)

    def test_demand_estimate_hands_out_its_own_demand_dict(self):
        estimate = SAMPLES["DemandEstimate"]
        dumped = estimate.to_dict()
        assert dumped["demand_mbps"] == estimate.demand_mbps
        assert dumped["demand_mbps"] is not estimate.demand_mbps
        dumped["demand_mbps"]["cdnA"] = -1.0
        assert estimate.demand_mbps["cdnA"] == 120.5


class TestHintsResolvedOnce:
    def test_decoding_200_frames_resolves_each_class_once(self, monkeypatch):
        frames = [encode(SAMPLES[name]) for name in sorted(SAMPLES)] * 20
        assert len(frames) == 200
        real = typing.get_type_hints
        calls = collections.Counter()

        def counting(obj, *args, **kwargs):
            calls[obj] += 1
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(typing, "get_type_hints", counting)
        field_plan.cache_clear()
        for frame in frames:
            decode(frame)
        assert {type(sample) for sample in SAMPLES.values()} <= set(calls)
        assert max(calls.values()) == 1
