"""Tests for the RTC codec (JSON round-trips and decode errors)."""

import pytest

from repro.core.rtc import compute_rtc
from repro.core.serialize import RtcFormatError, rtc_from_dict, rtc_to_dict

PAPER_GBC = {(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)}


def roundtrip(rtc):
    return rtc_from_dict(rtc_to_dict(rtc))


class TestRoundtrip:
    def test_semantics_preserved(self):
        original = compute_rtc(PAPER_GBC)
        restored = roundtrip(original)
        assert restored.expand() == original.expand()
        assert restored.num_pairs == original.num_pairs
        assert restored.num_sccs == original.num_sccs
        assert restored.num_gr_vertices == original.num_gr_vertices
        assert restored.num_gr_edges == original.num_gr_edges

    def test_reaches_preserved(self):
        original = compute_rtc(PAPER_GBC)
        restored = roundtrip(original)
        for source in range(8):
            for target in range(8):
                assert restored.reaches(source, target) == original.reaches(
                    source, target
                )

    def test_string_vertices(self):
        original = compute_rtc({("a", "b"), ("b", "a"), ("b", "c")})
        restored = roundtrip(original)
        assert restored.expand() == original.expand()

    def test_empty_rtc(self):
        assert roundtrip(compute_rtc(set())).expand() == set()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_rtcs(self, seed):
        import random

        rng = random.Random(seed)
        pairs = {
            (rng.randrange(12), rng.randrange(12))
            for _ in range(rng.randint(1, 30))
        }
        original = compute_rtc(pairs)
        assert roundtrip(original).expand() == original.expand()

    def test_unserialisable_vertices_rejected(self):
        rtc = compute_rtc({((0, 1), (1, 2))})  # tuple vertices
        with pytest.raises(RtcFormatError, match="not JSON-serialisable"):
            rtc_to_dict(rtc)


class TestDecodeErrors:
    def test_wrong_format_marker(self):
        with pytest.raises(RtcFormatError, match="not a repro-rtc"):
            rtc_from_dict({"format": "something-else"})

    def test_wrong_version(self):
        payload = rtc_to_dict(compute_rtc({(0, 1)}))
        payload["version"] = 99
        with pytest.raises(RtcFormatError, match="unsupported version"):
            rtc_from_dict(payload)

    def test_malformed_payload(self):
        with pytest.raises(RtcFormatError, match="malformed"):
            rtc_from_dict({"format": "repro-rtc", "version": 1})

    def test_inconsistent_ids(self):
        payload = rtc_to_dict(compute_rtc({(0, 1)}))
        payload["closure"]["999"] = []
        with pytest.raises(RtcFormatError, match="disagree"):
            rtc_from_dict(payload)
