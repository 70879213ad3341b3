"""The ``eona-msg/1`` codec: round trips, coercion, envelope hygiene."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from repro.core.interfaces import QueryResult
from repro.core.schemas import (
    SCHEMA_VERSION,
    CongestionSignal,
    DemandEstimate,
    PeeringDecision,
    PeeringPointInfo,
    QoeAggregate,
    SchemaError,
    ServerHintInfo,
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
from tests.transport.conftest import MiniWorld

finite = st.floats(allow_nan=False, allow_infinity=False)
name = st.text(max_size=20)


class TestEnvelope:
    def test_wire_and_schema_versions_travel_in_every_frame(self):
        frame = json.loads(encode(QueryRequest(
            owner="isp", requester="appp", query="congestion", msg_id=1,
        )))
        assert frame["v"] == WIRE_VERSION == "eona-msg/1"
        assert frame["schemas"] == SCHEMA_VERSION
        assert frame["type"] == "QueryRequest"

    def test_frames_are_canonical_sorted_key_json(self):
        frame = encode(DemandEstimate(time=1.0, demand_mbps={"b": 2.0, "a": 1.0}))
        assert frame == json.dumps(json.loads(frame), sort_keys=True)

    def test_every_registered_wire_type_is_known(self):
        assert {
            "QoeAggregate", "DemandEstimate", "PeeringPointInfo",
            "PeeringDecision", "CongestionSignal", "ServerHintInfo",
            "QueryRequest", "QueryReply", "ErrorReply", "QueryResult",
        } <= set(wire_types())

    @pytest.mark.parametrize("mangle, match", [
        (lambda f: "not json", "frame"),
        (lambda f: json.dumps({"v": "eona-msg/9", "schemas": SCHEMA_VERSION,
                               "type": "QueryRequest", "body": {}}), "version"),
        (lambda f: json.dumps({"v": WIRE_VERSION, "schemas": SCHEMA_VERSION,
                               "type": "Mystery", "body": {}}), "Mystery"),
        (lambda f: json.dumps(json.loads(f)["body"]), "envelope"),
        (lambda f: "[" * 100_000, "nested too deeply"),
    ])
    def test_bad_frames_raise_codec_error(self, mangle, match):
        frame = encode(PeeringDecision(time=1.0, cdn="x", selected_peering="B"))
        with pytest.raises(CodecError, match=match):
            decode(mangle(frame))

    def test_missing_required_field_is_a_codec_error(self):
        frame = json.loads(encode(CongestionSignal(
            time=1.0, scope="access", congested=True, severity=0.5,
        )))
        del frame["body"]["scope"]
        with pytest.raises(CodecError, match="scope"):
            decode(json.dumps(frame))

    def test_nan_payloads_are_rejected_at_encode_time(self):
        with pytest.raises(ValueError):
            encode(PeeringDecision(
                time=float("nan"), cdn="x", selected_peering="B",
            ))


class TestFromDict:
    def test_unknown_keys_are_ignored(self):
        signal = CongestionSignal.from_dict({
            "time": 1.0, "scope": "access", "congested": True,
            "severity": 0.5, "added_in_v2": "future",
        })
        assert signal.scope == "access"

    def test_ints_coerce_to_declared_floats(self):
        estimate = DemandEstimate.from_dict(
            {"time": 3, "demand_mbps": {"x": 5}}
        )
        assert estimate.time == 3.0 and isinstance(estimate.time, float)
        assert estimate.demand_mbps == {"x": 5.0}
        assert isinstance(estimate.demand_mbps["x"], float)

    def test_bool_does_not_pass_as_float(self):
        with pytest.raises(SchemaError, match="severity"):
            CongestionSignal.from_dict({
                "time": 1.0, "scope": "access", "congested": True,
                "severity": True,
            })

    def test_strings_do_not_pass_as_bool(self):
        with pytest.raises(SchemaError, match="congested"):
            CongestionSignal.from_dict({
                "time": 1.0, "scope": "access", "congested": "yes",
                "severity": 0.5,
            })

    def test_defaults_fill_omitted_optional_fields(self):
        signal = CongestionSignal.from_dict({
            "time": 1.0, "scope": "access", "congested": False,
            "severity": 0.0,
        })
        assert signal.bottleneck_link == ""


class TestPayloadRoundTrips:
    """Satellite (a): every I2A/A2I payload survives the wire, exactly."""

    @given(window_start=finite, window_s=finite, cdn=name, isp=name,
           sessions=st.integers(0, 10**9), buffering_ratio=finite,
           mean_bitrate_mbps=finite, join_time_s=finite,
           abandonment_rate=finite)
    def test_qoe_aggregate(self, **kwargs):
        self._roundtrip(QoeAggregate(**kwargs))

    @given(time=finite,
           demand_mbps=st.dictionaries(name, finite, max_size=8))
    def test_demand_estimate(self, **kwargs):
        self._roundtrip(DemandEstimate(**kwargs))

    @given(peering_node=name, cdn=name, capacity_mbps=finite,
           load_mbps=finite, congested=st.booleans())
    def test_peering_point_info(self, **kwargs):
        self._roundtrip(PeeringPointInfo(**kwargs))

    @given(time=finite, cdn=name, selected_peering=name)
    def test_peering_decision(self, **kwargs):
        self._roundtrip(PeeringDecision(**kwargs))

    @given(time=finite, scope=name, congested=st.booleans(),
           severity=finite, bottleneck_link=name)
    def test_congestion_signal(self, **kwargs):
        self._roundtrip(CongestionSignal(**kwargs))

    @given(cdn=name, server_id=name, node_id=name, load=finite,
           degraded=st.booleans())
    def test_server_hint_info(self, **kwargs):
        self._roundtrip(ServerHintInfo(**kwargs))

    @staticmethod
    def _roundtrip(message):
        decoded = decode(encode(message))
        assert decoded == message
        assert type(decoded) is type(message)
        # A second pass is byte-stable (canonical form is a fixpoint).
        assert encode(decoded) == encode(message)


class TestRpcMessages:
    def test_query_request_round_trips_with_params(self):
        request = QueryRequest(
            owner="isp", requester="appp", query="congestion",
            msg_id=42, params={"since": 3, "limit": 10},
        )
        assert decode(encode(request)) == request

    def test_query_reply_flattens_and_rebuilds_a_query_result(self):
        result = QueryResult(
            query="congestion", payload=[{"severity": 0.5}],
            age_s=2.5, cause=17,
        )
        reply = QueryReply.from_result(msg_id=7, served_at=123.0, result=result)
        wired = decode(encode(reply))
        assert wired.served_at == 123.0
        rebuilt = wired.to_result()
        assert rebuilt.query == result.query
        assert rebuilt.payload == result.payload
        assert rebuilt.age_s == result.age_s
        assert rebuilt.cause == result.cause

    def test_error_reply_round_trips(self):
        reply = ErrorReply(msg_id=3, error="AccessDeniedError", message="no")
        assert decode(encode(reply)) == reply


# Hostile-input fuzzing: ``decode`` either returns a registered wire
# object or raises CodecError, and ``GlassService.handle_frame`` (which
# is documented "Never raises") always answers with a frame.  Body keys
# are drawn mostly from real field names and leaves include the names a
# serving world routes on, so drawn frames reach field coercion and the
# service's dispatch, not only the envelope checks.
_WIRE_CLASSES = (
    QoeAggregate, DemandEstimate, PeeringPointInfo, PeeringDecision,
    CongestionSignal, ServerHintInfo, QueryRequest, QueryReply, ErrorReply,
    QueryResult,
)
_FIELD_NAMES = sorted(
    {spec.name for cls in _WIRE_CLASSES for spec in dataclasses.fields(cls)}
)
_ROUTED = ["isp", "appp", "congestion", "__control__", "__ping__",
           "__queries__", "__trace__"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12) | st.sampled_from(_ROUTED),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.sampled_from(_FIELD_NAMES) | st.text(max_size=8), children, max_size=6
    ),
    max_leaves=24,
)


def _envelope(name, body):
    return json.dumps(
        {"v": WIRE_VERSION, "schemas": SCHEMA_VERSION, "type": name, "body": body}
    )


envelopes = st.builds(_envelope, st.sampled_from(wire_types()), json_values)
# Query requests that decode, so the glass and control dispatch see
# hostile owners, queries and params.
_routed = st.sampled_from(_ROUTED)
requests = st.builds(_envelope, st.just("QueryRequest"), st.fixed_dictionaries(
    {"owner": _routed, "requester": _routed, "query": _routed,
     "msg_id": st.integers()},
    optional={"params": st.dictionaries(_routed | name, json_values) | json_values},
))


def _decode_or_codec_error(frame):
    try:
        message = decode(frame)
    except CodecError:
        return
    assert type(message).__name__ in wire_types()


class TestHostileInput:
    @given(frame=st.text())
    def test_decode_of_any_text_is_a_message_or_a_codec_error(self, frame):
        _decode_or_codec_error(frame)

    @given(frame=envelopes | requests)
    def test_decode_of_any_well_formed_envelope_is_a_message_or_a_codec_error(
        self, frame
    ):
        _decode_or_codec_error(frame)

    @given(frame=st.text() | envelopes | requests)
    def test_handle_frame_answers_every_frame(self, frame):
        service = MiniWorld().service
        reply = service.handle_frame(frame)
        assert isinstance(reply, str)
        assert type(decode(reply)) in (QueryReply, ErrorReply)
