"""Unit tests for envelopes and payload size estimation."""

from dataclasses import dataclass

from repro.engine import Envelope, estimate_size


@dataclass(frozen=True)
class _Payload:
    body: tuple
    mtype: str = "custom_type"


class TestEnvelope:
    def test_mtype_from_payload_attribute(self):
        env = Envelope(sender="a", dest="b", payload=_Payload(body=(1, 2)), send_time=0.0)
        assert env.mtype == "custom_type"

    def test_mtype_falls_back_to_class_name(self):
        env = Envelope(sender="a", dest="b", payload=("raw",), send_time=0.0)
        assert env.mtype == "tuple"


class TestEstimateSize:
    def test_scalars_are_small(self):
        assert estimate_size(1) == 1

    def test_containers_count_members(self):
        assert estimate_size([1, 2, 3]) == 4
        assert estimate_size({"a": 1}) >= 3

    def test_nested_growth(self):
        small = estimate_size((1,))
        big = estimate_size(tuple(range(50)))
        assert big > small

    def test_dataclass_fields_counted(self):
        small = estimate_size(_Payload(body=()))
        big = estimate_size(_Payload(body=tuple(range(30))))
        assert big > small

    def test_strings_scale(self):
        assert estimate_size("x" * 1600) > estimate_size("x")
