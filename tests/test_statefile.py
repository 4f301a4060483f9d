"""The state-file format is locked: the vectorized writer gives the bytes
of ``json.dumps(..., indent=1)``, the vectorized reader the matrix and the
errors of the per-entry reader, and the fixtures regenerate byte for byte."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairinglab as pl
from pairinglab import statefile
from pairinglab.errors import ParseError

REPO = Path(__file__).resolve().parent.parent

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
               1e300, -1e300, 0.1, 1 / 3, 1.0, -1.0, 2.0**53 + 2.0]
floats = st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from(EDGE_FLOATS)
labels = st.none() | st.text() | st.sampled_from(
    ['q"uote', "back\\slash", "new\nline", "café ☃ \U0001f600", '"matrix": 0'])


@st.composite
def states(draw):
    """An unvalidated (tolerance inf) 1-part or bipartite state with
    arbitrary finite entries."""
    dims = draw(st.sampled_from([[1], [2], [3], [4], [1, 2], [2, 2], [2, 3], [3, 1]]))
    d = math.prod(dims)
    parts = draw(st.lists(floats, min_size=2 * d * d, max_size=2 * d * d))
    m = np.array(parts).view(complex).reshape(d, d)
    rho = pl.DensityMatrix(m, math.inf)
    return pl.BipartiteState(rho, *dims) if len(dims) == 2 else rho


def json_bytes(state, label):
    return json.dumps(statefile.state_document(state, label), indent=1) + "\n"


class TestWriter:
    @given(state=states(), label=labels)
    @settings(max_examples=100, deadline=None)
    def test_writes_the_bytes_of_json_dumps(self, state, label):
        assert statefile._state_text(state, label) + "\n" == json_bytes(state, label)

    def test_save_state_file_bytes(self, tmp_path, rng):
        bs = pl.random_bipartite_state(3, 4, rng)
        path = tmp_path / "s.json"
        statefile.save_state(path, bs, label="café \"x\"\n")
        assert path.read_text() == json_bytes(bs, "café \"x\"\n")

    def test_signed_zero_and_subnormal_survive(self, tmp_path):
        m = np.array([[0.5, -0.0 + 5e-324j], [-0.0 - 5e-324j, 0.5]])
        rho = pl.DensityMatrix(m)
        path = tmp_path / "z.json"
        statefile.save_state(path, rho)
        assert path.read_text() == json_bytes(rho, None)
        back = statefile.load_state(path)
        assert back.mat.tobytes() == rho.mat.tobytes()


def number_rows(numbers, d):
    return [[numbers[2 * (i * d + j):2 * (i * d + j) + 2] for j in range(d)]
            for i in range(d)]


class TestFastReader:
    @given(d=st.integers(1, 5), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_per_entry_path_bit_for_bit(self, d, data):
        numbers = data.draw(st.lists(floats | st.integers(-2**62, 2**62),
                                     min_size=2 * d * d, max_size=2 * d * d))
        rows = number_rows(numbers, d)
        fast = statefile._parse_matrix(rows, d)
        slow = statefile._parse_entries(rows, d)
        assert fast.dtype == slow.dtype and fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()

    def test_json_round_trip_keeps_signed_zeros(self):
        rows = json.loads(json.dumps([[[-0.0, 0.0], [0.0, -0.0]], [[1, -0.0], [-0.0, 2]]]))
        fast = statefile._parse_matrix(rows, 2)
        assert fast.tobytes() == statefile._parse_entries(rows, 2).tobytes()
        assert np.signbit(fast.real[0, 0]) and np.signbit(fast.imag[0, 1])


def per_entry_reference(doc):
    """``parse_state`` as it was before the vectorized reader: every entry
    is checked and converted on its own.  A non-finite number, or an
    integer beyond float range, is a parse error at its entry."""
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    dims = doc.get("dims")
    if not (isinstance(dims, list) and len(dims) in (1, 2)
            and all(isinstance(x, int) and x > 0 for x in dims)):
        raise ParseError("dims: expected [d] or [d_A, d_B] of positive integers", "dims")
    rows = doc.get("matrix")
    if not isinstance(rows, list) or not rows:
        raise ParseError("matrix: expected a nonempty nested array", "matrix")
    d = int(np.prod(dims))
    if len(rows) != d:
        raise ParseError(f"matrix: expected {d} rows, got {len(rows)}", "matrix")
    m = np.zeros((d, d), dtype=complex)
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == d):
            raise ParseError(f"matrix[{i}]: expected {d} entries", f"matrix[{i}]")
        for j, val in enumerate(row):
            loc = f"matrix[{i}][{j}]"
            if not (isinstance(val, list) and len(val) == 2):
                raise ParseError(f"{loc}: expected a [re, im] pair", loc)
            re, im = val
            if not all(isinstance(x, (int, float)) for x in (re, im)):
                raise ParseError(f"{loc}: entries must be numbers", loc)
            if not all(abs(x) <= sys.float_info.max for x in (re, im)):
                raise ParseError(f"{loc}: entries must be finite numbers", loc)
            m[i, j] = complex(re, im)
    rho = pl.DensityMatrix(m, 1e-8)
    return pl.BipartiteState(rho, dims[0], dims[1]) if len(dims) == 2 else rho


def outcome(parse, doc):
    try:
        state = parse(doc)
    except Exception as exc:  # the comparison is over the exception itself
        return type(exc), str(exc), getattr(exc, "location", None)
    return type(state), getattr(state, "d_B", None), state.mat.tobytes()


HALF = [0.5, 0]
ZERO = [0, 0]
MALFORMED = {
    "ragged row": [[HALF, ZERO], [ZERO]],
    "ragged entry": [[HALF, [0]], [ZERO, HALF]],
    "row not a list": [[HALF, ZERO], 7],
    "string number": [[[0.5, "0"], ZERO], [ZERO, HALF]],
    "string entry": [[HALF, "ab"], [ZERO, HALF]],
    "none entry": [[None, ZERO], [ZERO, HALF]],
    "none number": [[[0.5, None], ZERO], [ZERO, HALF]],
    "dict entry": [[HALF, {}], [ZERO, HALF]],
    "all bool": [[[True, False], [False, False]], [[False, False], [False, False]]],
    "bool and float": [[[True, 0.0], ZERO], [ZERO, [0.0, 0.0]]],
    "three-element entries": [[[0.5, 0, 0], [0, 0, 0]], [[0, 0, 0], [0.5, 0, 0]]],
    "one three-element entry": [[HALF, [0, 0, 0]], [ZERO, HALF]],
    "nested deeper": [[[[0.5], [0]], [[0], [0]]], [[[0], [0]], [[0.5], [0]]]],
    "uint64": [[[2**63, 2**63], [2**63, 2**63]], [[2**63, 2**63], [2**63, 2**63]]],
    "int beyond uint64": [[[2**70, 0], ZERO], [ZERO, HALF]],
    "int beyond float": [[[10**400, 0], ZERO], [ZERO, HALF]],
    "not a density matrix": [[[1.0, 0], ZERO], [ZERO, [1.0, 0]]],
    "non-finite": [[[float("nan"), 0], ZERO], [ZERO, HALF]],
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_same_outcome_as_the_per_entry_reader(self, name):
        doc = {"dims": [2], "matrix": MALFORMED[name]}
        assert outcome(statefile.parse_state, doc) == outcome(per_entry_reference, doc)

    @pytest.mark.parametrize("doc", [
        [], {"dims": [0], "matrix": [[ZERO]]}, {"dims": [2, 2]}, {"dims": [2], "matrix": []},
        {"dims": [1, 2], "matrix": [[ZERO, ZERO]]}, {"dims": [2], "matrix": [[HALF, ZERO]]},
    ])
    def test_document_level_errors_unchanged(self, doc):
        assert outcome(statefile.parse_state, doc) == outcome(per_entry_reference, doc)
        assert outcome(statefile.parse_state, doc)[0] is ParseError

    def test_messages_name_the_offending_entry(self):
        for name, message in [("ragged row", "matrix[1]: expected 2 entries"),
                              ("string number", "matrix[0][0]: entries must be numbers"),
                              ("none entry", "matrix[0][0]: expected a [re, im] pair"),
                              ("one three-element entry", "matrix[0][1]: expected a [re, im] pair"),
                              ("int beyond float", "matrix[0][0]: entries must be finite numbers"),
                              ("non-finite", "matrix[0][0]: entries must be finite numbers")]:
            with pytest.raises(ParseError) as err:
                statefile.parse_state({"dims": [2], "matrix": MALFORMED[name]})
            assert str(err.value) == message
            assert err.value.location == message.split(":")[0]


class TestFixtures:
    def test_make_fixtures_reproduces_every_fixture(self, tmp_path):
        env = {"PYTHONPATH": str(REPO / "src"), "PATH": ""}
        subprocess.run([sys.executable, str(REPO / "scripts" / "make_fixtures.py"),
                        str(tmp_path)], check=True, env=env, capture_output=True)
        fixtures = sorted(p.name for p in (REPO / "fixtures").glob("*.json"))
        assert fixtures == sorted(p.name for p in tmp_path.glob("*.json"))
        for name in fixtures:
            assert (tmp_path / name).read_bytes() == (REPO / "fixtures" / name).read_bytes(), name

    @pytest.mark.parametrize("name", sorted(p.name for p in (REPO / "fixtures").glob("*.json")))
    def test_fixture_resaves_identically(self, tmp_path, name):
        text = (REPO / "fixtures" / name).read_text()
        state = statefile.load_state(REPO / "fixtures" / name)
        statefile.save_state(tmp_path / name, state, json.loads(text).get("label"))
        assert (tmp_path / name).read_text() == text
