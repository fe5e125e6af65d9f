"""Tests for pinning."""

import pytest

from repro.crypto.cid import CID
from repro.errors import PinError
from repro.ipfs.pin import PinManager


class TestPinManager:
    def test_pin_and_check(self):
        pins = PinManager()
        cid = CID.for_data(b"x")
        pins.pin(cid)
        assert cid in pins.recursive

    def test_direct_pin_upgrade_to_recursive(self):
        pins = PinManager()
        cid = CID.for_data(b"x")
        pins.pin(cid, recursive=False)
        pins.pin(cid, recursive=True)
        assert cid in pins.recursive and cid not in pins.direct

    def test_direct_pin_on_recursive_rejected(self):
        pins = PinManager()
        cid = CID.for_data(b"x")
        pins.pin(cid, recursive=True)
        with pytest.raises(PinError):
            pins.pin(cid, recursive=False)
