"""Frame codec: every USS message survives the wire byte-for-byte."""

import json
import math
import struct

import pytest

from repro.grid.wire import (GRID_WIRE_VERSION, MAX_FRAME_BYTES, WireError,
                             decode_frame, encode_frame, frame_length)
from repro.services.messages import (PolicyExportMessage, UsageDeltaMessage,
                                     UsageResyncRequest)


def _roundtrip(message):
    frame = encode_frame("uss:a", "uss:b", message)
    assert frame_length(frame[:4]) == len(frame) - 4
    src, dst, decoded = decode_frame(frame[4:])
    assert (src, dst) == ("uss:a", "uss:b")
    return decoded


class TestRoundtrip:
    def test_delta(self):
        message = UsageDeltaMessage(
            site="a", sent_at=12.5, interval=30.0, seq=7, full=False,
            user_table=["alice", "bob"], user_idx=[0, 0, 1],
            bin_idx=[0, 3, 1], charges=[1.5, 0.0, 2.25],
            horizon=11.0, boot="deadbeef")
        assert _roundtrip(message) == message

    def test_full_snapshot_restores_int_bin_keys(self):
        message = UsageDeltaMessage(
            site="a", sent_at=1.0, interval=30.0, seq=1, full=True,
            user_table=["alice", "bob"], user_idx=[0, 0, 1],
            bin_idx=[0, 12, 3], charges=[1.5, 2.5, 0.25],
            horizon=0.5, boot="cafe")
        decoded = _roundtrip(message)
        assert decoded == message
        # bin indexes come back as ints, ready for histogram application
        assert all(isinstance(b, int) for b in decoded.bin_idx)

    def test_empty_heartbeat(self):
        message = UsageDeltaMessage(site="a", sent_at=60.0, interval=30.0,
                                    seq=3, full=False)
        assert _roundtrip(message) == message

    def test_resync_request(self):
        message = UsageResyncRequest(site="b", sent_at=90.0, target="a")
        assert _roundtrip(message) == message

    def test_envelope_is_versioned_json(self):
        frame = encode_frame("uss:a", "uss:b",
                             UsageResyncRequest(site="b", sent_at=1.0,
                                                target="a"))
        envelope = json.loads(frame[4:].decode("utf-8"))
        assert envelope["v"] == GRID_WIRE_VERSION
        assert envelope["type"] == "UsageResyncRequest"


class TestRejection:
    def test_non_wire_message_rejected_on_encode(self):
        policy = PolicyExportMessage(source="pds:a", sent_at=1.0)
        with pytest.raises(WireError):
            encode_frame("pds:a", "pds:b", policy)

    def test_garbage_payload(self):
        with pytest.raises(WireError):
            decode_frame(b"\xff\xfe not json")

    def test_non_object_payload(self):
        with pytest.raises(WireError):
            decode_frame(b"[1, 2, 3]")

    def test_unknown_type(self):
        payload = json.dumps({"v": 1, "src": "x", "dst": "y",
                              "type": "EvilMessage", "data": {}}).encode()
        with pytest.raises(WireError):
            decode_frame(payload)

    def test_missing_fields(self):
        payload = json.dumps({"v": 1, "src": "x", "dst": "y",
                              "type": "UsageResyncRequest",
                              "data": {"site": "a"}}).encode()
        with pytest.raises(WireError):
            decode_frame(payload)

    def test_unexpected_fields(self):
        payload = json.dumps({
            "v": 1, "src": "x", "dst": "y", "type": "UsageResyncRequest",
            "data": {"site": "a", "sent_at": 1.0, "target": "b",
                     "surprise": True}}).encode()
        with pytest.raises(WireError):
            decode_frame(payload)

    @pytest.mark.parametrize("value,token", [
        (math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")])
    def test_non_finite_numbers_refused_both_ways(self, value, token):
        message = UsageDeltaMessage(
            site="a", sent_at=1.0, interval=30.0, seq=2, full=False,
            user_table=["alice"], user_idx=[0], bin_idx=[0], charges=[value])
        with pytest.raises(WireError):
            encode_frame("uss:a", "uss:b", message)
        # a peer whose encoder allows the token: the decoder refuses it
        payload = json.dumps({
            "v": 1, "src": "uss:a", "dst": "uss:b",
            "type": "UsageDeltaMessage", "data": message.__dict__}).encode()
        assert token.encode() in payload
        with pytest.raises(WireError):
            decode_frame(payload)

    def test_oversized_declared_length(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(WireError):
            frame_length(header)

    def test_length_within_cap_accepted(self):
        assert frame_length(struct.pack(">I", MAX_FRAME_BYTES)) \
            == MAX_FRAME_BYTES
