"""Unit tests for the service message payloads."""

import pytest

from repro.core.policy import parse_policy
from repro.services.messages import (PolicyExportMessage, UsageDeltaMessage,
                                     UsageResyncRequest)


def full_snapshot(snapshot):
    """A ``full=True`` exchange message carrying ``user -> {bin: charge}``."""
    user_table = list(snapshot)
    user_idx, bin_idx, charges = [], [], []
    for i, bins in enumerate(snapshot.values()):
        for b, c in bins.items():
            user_idx.append(i)
            bin_idx.append(b)
            charges.append(c)
    return UsageDeltaMessage(site="a", sent_at=0.0, interval=60.0, seq=1,
                             full=True, user_table=user_table,
                             user_idx=user_idx, bin_idx=bin_idx,
                             charges=charges)


class TestUsageExchangeMessage:
    """Full histogram snapshots relayed between USS instances."""

    def test_total_charge(self):
        msg = full_snapshot({"u1": {0: 10.0, 1: 20.0}, "u2": {0: 5.0}})
        assert msg.total_charge() == 35.0

    def test_empty_snapshot(self):
        assert full_snapshot({}).total_charge() == 0.0

    def test_frozen(self):
        msg = full_snapshot({})
        with pytest.raises(AttributeError):
            msg.site = "b"


class TestUsageExchangeWireAccounting:
    def test_wire_entries_counts_bins(self):
        msg = full_snapshot({"u1": {0: 10.0, 1: 20.0}, "u2": {0: 5.0}})
        assert msg.wire_entries() == 3

    def test_wire_bytes_grow_with_payload(self):
        small = full_snapshot({"u": {0: 1.0}})
        big = full_snapshot({"u": {b: 1.0 for b in range(10)}})
        assert small.wire_bytes() < big.wire_bytes()


class TestUsageDeltaMessage:
    def delta(self, **kwargs):
        base = dict(site="a", sent_at=1.0, interval=60.0, seq=3, full=False,
                    user_table=["alice", "bob"], user_idx=[0, 0, 1],
                    bin_idx=[0, 1, 0], charges=[10.0, 20.0, 5.0])
        base.update(kwargs)
        return UsageDeltaMessage(**base)

    def test_total_charge(self):
        assert self.delta().total_charge() == 35.0

    def test_wire_entries(self):
        assert self.delta().wire_entries() == 3

    def test_heartbeat_is_tiny(self):
        hb = self.delta(user_table=[], user_idx=[], bin_idx=[], charges=[])
        assert hb.wire_entries() == 0
        assert hb.wire_bytes() < 50


class TestUsageResyncRequest:
    def test_carries_no_entries(self):
        req = UsageResyncRequest(site="b", sent_at=2.0, target="a")
        assert req.wire_entries() == 0
        assert req.wire_bytes() > 0


class TestPolicyExportMessage:
    def test_text_roundtrips_through_parser(self):
        msg = PolicyExportMessage(source="pds", sent_at=1.0,
                                  lines=["/g = 2", "/g/u = 3"])
        tree = parse_policy(msg.text())
        assert tree["/g/u"].weight == 3.0

    def test_empty_lines(self):
        msg = PolicyExportMessage(source="pds", sent_at=1.0)
        assert msg.text() == ""
        assert parse_policy(msg.text()).size() == 1
