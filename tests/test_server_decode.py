"""The daemon's request-body decoder against json.loads, its exact reference.

orjson decodes the bodies of ``/predict``, ``/predict_soft`` and
``/partial_update``.  json.loads decodes the bodies orjson refuses, the
bodies with more than :data:`~repro.server.http.MAX_FAST_BRACKETS`
opening brackets, and, when a fast decode holds a number of magnitude
2**63 or more (an integer literal past 64 bits, which orjson reads as a
float), the body again.  The differential test draws bodies on both
sides of each of those splits and requires each route's checks to give
on the served path exactly what they give on json.loads's output: the
same status and error text, or bit-equal arrays.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.server import http as http_module
from repro.server.app import PredictServer
from repro.server.http import MAX_FAST_BRACKETS, HTTPError, HTTPRequest

SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def server(artifact_on_disk):
    """An unstarted daemon: its body checks need no backend (any width, k=3)."""
    server = PredictServer(artifact_on_disk)
    server._n_clusters = 3
    return server


def outcome(parse):
    """``(status, error text)``, or the parsed values with arrays as exact bytes."""
    try:
        parsed = parse()
    except HTTPError as exc:
        return exc.status, exc.message
    return tuple(
        (value.dtype.str, value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value
        for value in parsed
    )


def assert_decodes_as_the_reference(server, body):
    request = HTTPRequest(method="POST", path="/predict", query="", body=body)
    for parse in (server._parse_points, server._parse_soft, server._parse_update):
        trace = server.telemetry.begin_request("POST", "predict", "decode-test")
        served = outcome(lambda: server._decode(request, trace, parse))
        reference = outcome(lambda: parse(request.reference_json(), True))
        assert served == reference, (parse.__name__, body)


def float_literal(value, spelling):
    if np.isnan(value):
        return "NaN"
    if np.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return repr(value) if spelling == "repr" else spelling % value


#: Every float64 bit pattern, spelled three ways ("%.25g" spells some as
#: integer literals, 2**64 among them).
float_literals = st.builds(
    float_literal,
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.sampled_from(["repr", "%.17e", "%.25g"]),
)


@st.composite
def decimal_literals(draw):
    """Up to 30 digits, a point anywhere or none, an exponent up to ±400 or none."""
    digits = draw(st.text("0123456789", min_size=1, max_size=30))
    point = draw(st.integers(0, len(digits)))
    literal = draw(st.sampled_from(["", "-"])) + (digits[:point].lstrip("0") or "0")
    if digits[point:]:
        literal += "." + digits[point:]
    exponent = draw(st.none() | st.integers(-400, 400))
    if exponent is not None:
        literal += draw(st.sampled_from(["e%d", "E%d", "e%+d"])) % exponent
    return literal


#: Integers next to the edges of int64 and uint64, where orjson starts
#: reading integer literals as floats.
boundary_integers = (
    st.sampled_from([2**63, 2**64, -(2**63)]).flatmap(lambda edge: st.integers(edge - 2, edge + 2))
    | st.integers(-(2**70), 2**70)
).map(str)

literals = st.one_of(
    float_literals,
    decimal_literals(),
    boundary_integers,
    st.integers(-2, 4).map(str),
    st.sampled_from(
        ["-0", "-0.0", "1E5", "0", "1", "true", "false", "null", '"1.5"', "[]",
         "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1.7976931348623159e308"]
    ),
)


@st.composite
def bodies(draw):
    """A point-route body: literal coordinates, maybe ``top_m``, ``labels``, a
    duplicate key and a lone surrogate, in UTF-8 or in a form orjson refuses."""
    width = draw(st.integers(1, 4))
    row = st.lists(literals, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=3))
    if draw(st.booleans()):
        rows[-1] = rows[-1][: draw(st.integers(0, width))]  # maybe ragged
    if draw(st.booleans()):
        members = ['"point": [%s]' % ", ".join(rows[0])]
    else:
        members = ['"points": [%s]' % ", ".join("[%s]" % ", ".join(row) for row in rows)]
    if draw(st.booleans()):
        members.append('"top_m": %s' % draw(literals))
    if draw(st.booleans()):
        labels = draw(st.lists(literals, min_size=len(rows), max_size=len(rows)))
        members.append('"labels": [%s]' % ", ".join(labels))
    if draw(st.booleans()):
        # Both decoders keep the last of a duplicated key.
        members.insert(0, '"%s": [0.5]' % draw(st.sampled_from(["point", "points", "top_m"])))
    if draw(st.booleans()):
        members.append('"note": "\\ud800"')
    text = "{%s}" % ", ".join(draw(st.permutations(members)))
    encoding = draw(st.sampled_from(["utf-8"] * 8 + ["utf-8-sig", "utf-16", "utf-16-le", "utf-32"]))
    return text.encode(encoding)


@settings(max_examples=400, deadline=None)
@given(body=bodies())
@example(body=b'{"point": [18446744073709551616, 0.5]}')
@example(body=b'{"points": [[-9223372036854775809, 0.5]]}')
@example(body=b'{"points": [[0.5, 1.5]], "labels": [18446744073709551616]}')
@example(body=b'{"point": [0.5, 1.5], "top_m": 18446744073709551616}')
@example(body=b'{"point": [true, 100000000000000000000000000000]}')
@example(body=b'{"point": [[1, 18446744073709551616]]}')
@example(body=b'{"point": [1e19, 0.5], "top_m": 2}')
@example(body=b'{"point": [NaN, 0.5]}')
@example(body=b'{"point": [-0, 1E5], "point": [0.5, 2]}')
@example(body=b'\xef\xbb\xbf{"point": [0.5]}')
@example(body=b"")
def test_served_decode_matches_the_json_loads_reference(server, body):
    assert_decodes_as_the_reference(server, body)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(float_literals, min_size=1, max_size=64))
def test_float_rows_parse_bit_for_bit(server, values):
    assert_decodes_as_the_reference(server, ('{"points": [[%s]]}' % ", ".join(values)).encode())


def test_orjson_never_sees_a_body_past_the_bracket_bound(monkeypatch):
    decoded = []
    fast = orjson.loads
    monkeypatch.setattr(
        http_module.orjson, "loads", lambda body: decoded.append(len(body)) or fast(body)
    )
    # ``{"points": [...]}`` holds one ``{`` and a ``[`` per row plus one.
    for n_rows, fast_path in ((MAX_FAST_BRACKETS - 2, True), (MAX_FAST_BRACKETS - 1, False)):
        body = json.dumps({"points": [[row / 7.0] for row in range(n_rows)]}).encode()
        decoded.clear()
        assert HTTPRequest("POST", "/predict", "", body=body).json() == json.loads(body)
        assert decoded == ([len(body)] if fast_path else [])


def test_a_body_too_deep_for_orjson_is_a_400_not_a_crash():
    """orjson 3.8 recurses once per nesting level on the C stack, with no limit.

    A 200,000-deep array overflowed an 8 MiB stack, a segfault that takes
    the daemon down, and a million-deep array (2 MB) or object (6 MB)
    fits under the body limit.  Such bodies go to json.loads, which stops
    at the recursion limit.  The child process keeps a crash to this test.
    """
    code = textwrap.dedent(
        """
        from repro.server.http import HTTPError, HTTPRequest

        depth = 10**6
        for body in (b"[" * depth + b"]" * depth, b'{"a":' * depth + b"1" + b"}" * depth):
            try:
                HTTPRequest("POST", "/predict", "", body=body).json()
            except HTTPError as exc:
                assert exc.status == 400 and "recursion" in exc.message, exc.message
            else:
                raise AssertionError("decoded a million-deep body")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, (completed.returncode, completed.stderr[-2000:])
