"""JSON codecs: round trips, decimal exactness, and malformed payloads."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from splinephase import PeriodicSetDescriptor, SampleSet, SplineFunction, UnsignedSamples
from splinephase import jsonio
from splinephase.bspline import MAX_EXPONENT, MAX_NUMBER_TEXT
from splinephase.sequences import is_local_sampling

F = Fraction


class TestFractions:
    def test_accepts_ints_and_strings(self):
        assert jsonio.fraction_from_json(3) == 3
        assert jsonio.fraction_from_json("3/4") == F(3, 4)
        assert jsonio.fraction_from_json("-7/2") == F(-7, 2)

    def test_decimal_strings_are_exact(self):
        assert jsonio.fraction_from_json("0.1") == F(1, 10)

    def test_json_number_literals_decode_exactly(self):
        payload = jsonio.loads('{"window": [0, 1], "points": [0.1, 0.25]}')
        E = jsonio.decode_sample_set(payload)
        assert E.points == (F(1, 10), F(1, 4))

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            jsonio.fraction_from_json("three")
        with pytest.raises(ValueError):
            jsonio.fraction_from_json(True)
        with pytest.raises(ValueError):
            jsonio.fraction_from_json("1/0")

    def test_exponents_and_lengths_are_bounded_before_parsing(self):
        assert jsonio.fraction_from_json("1.5E+3") == 1500
        assert jsonio.fraction_from_json("1e-%d" % MAX_EXPONENT) == F(1, 10**MAX_EXPONENT)
        start = time.perf_counter()
        for text in ("1e-999999999", "1E+1_000_000_000", "2/3e999999999", "1e%d" % (MAX_EXPONENT + 1)):
            with pytest.raises(ValueError, match="exponent"):
                jsonio.fraction_from_json(text)
        with pytest.raises(ValueError, match="longer than"):
            jsonio.fraction_from_json("1" * (MAX_NUMBER_TEXT + 1))
        assert time.perf_counter() - start < 1.0

    def test_output_form(self):
        assert jsonio.fraction_to_json(F(6, 8)) == "3/4"
        assert jsonio.fraction_to_json(F(4, 2)) == "2"


class TestRoundTrips:
    def test_sample_set(self):
        E = SampleSet((F(0), F(1, 3), F(2)), (0, 2))
        assert jsonio.decode_sample_set(jsonio.encode_sample_set(E)) == E

    def test_descriptor(self):
        D = PeriodicSetDescriptor(
            2,
            (F(1, 3), F(3, 2)),
            (("add", F(1, 2)), ("remove", F(1, 3))),
            (0, 2),
        )
        assert jsonio.decode_descriptor(jsonio.encode_descriptor(D)) == D

    def test_descriptor_defaults(self):
        D = jsonio.decode_descriptor({"period": 1, "offsets": ["1/2"]})
        assert D.edits == () and D.edit_window == (0, 0)

    def test_spline(self):
        f = SplineFunction(2, -2, (F(1), F(0), F(-3, 4), F(2)), (0, 2))
        assert jsonio.decode_spline(jsonio.encode_spline(f)) == f

    def test_windowless_spline(self):
        f = SplineFunction(1, 5, (F(1), F(2)))
        assert jsonio.decode_spline(jsonio.encode_spline(f)) == f

    def test_matrix(self):
        mat = ((F(1, 2), F(0)), (F(-3), F(7, 5)))
        assert jsonio.decode_matrix(jsonio.encode_matrix(mat)) == mat

    def test_unsigned_samples(self):
        E = SampleSet((F(1, 2), F(1)), (0, 1))
        s = UnsignedSamples(E, (F(1, 3), F(0)))
        decoded = jsonio.decode_unsigned_samples(
            jsonio.loads(jsonio.dumps({"sample_set": jsonio.encode_sample_set(E), "values": ["1/3", 0]}))
        )
        assert decoded == s

    def test_certificate_encoding(self):
        report = is_local_sampling(SampleSet((F(1, 2),), (0, 2)), 1)
        payload = jsonio.encode_certificate(report)
        assert payload["verdict"] is False
        assert payload["violated"]["condition"] == "cardinality"
        passing = is_local_sampling(SampleSet((F(1, 4), F(3, 4)), (0, 1)), 1)
        assert jsonio.encode_certificate(passing) == {"verdict": True, "violated": None}


class TestBadPayloads:
    def test_sample_set_needs_window_pair(self):
        with pytest.raises(ValueError):
            jsonio.decode_sample_set({"window": [0], "points": []})
        with pytest.raises(ValueError):
            jsonio.decode_sample_set({"window": [0, 1], "points": "x"})
        with pytest.raises(ValueError):
            jsonio.decode_sample_set([1, 2])

    def test_matrix_shape_checks(self):
        with pytest.raises(ValueError):
            jsonio.decode_matrix({"entries": [["1"], ["1", "2"]]})
        with pytest.raises(ValueError):
            jsonio.decode_matrix({"entries": [["1"]], "rows": 2})

    def test_descriptor_checks(self):
        with pytest.raises(ValueError):
            jsonio.decode_descriptor({"period": "1", "offsets": []})
        with pytest.raises(ValueError):
            jsonio.decode_descriptor({"period": 1, "offsets": [], "edits": [{"op": "add"}]})
