"""The state-file format is locked: the vectorized writer gives the bytes
of ``json.dumps(..., indent=1)``, the vectorized reader the matrix and the
errors of the per-entry reader, the scan of canonical files the matrix of
json.loads (and any other file the json path's outcome), and the fixtures
regenerate byte for byte."""

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
from pairinglab import cli, statefile
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


@st.composite
def sparse_states(draw):
    """An unvalidated state with at most 64 nonzero entries, drawn from the
    edge values, on up to 12 x 12."""
    dims = draw(st.sampled_from([[1], [5], [12], [2, 2], [3, 4], [4, 3], [2, 6]]))
    d = math.prod(dims)
    numbers = np.zeros(2 * d * d)
    count = draw(st.integers(0, min(2 * d * d, 64)))
    where = draw(st.lists(st.integers(0, 2 * d * d - 1), min_size=count, max_size=count,
                          unique=True))
    numbers[where] = draw(st.lists(floats, min_size=count, max_size=count))
    rho = pl.DensityMatrix(numbers.view(complex).reshape(d, d), math.inf)
    return pl.BipartiteState(rho, *dims) if len(dims) == 2 else rho


CANONICAL_LABELS = labels | st.sampled_from(['{"matrix": [[[1.0, 0.0]]]}', "a]\n[b", '"', ""])


def json_path_matrix(data: bytes):
    """(matrix, dims) as json.loads and ``_parse_matrix`` read them."""
    doc = json.loads(data)
    return statefile._parse_matrix(doc["matrix"], math.prod(doc["dims"])), doc["dims"]


class TestCanonicalReader:
    """A file that ``save_state`` wrote is read without json.loads, to the
    bit; anything else takes the json path."""

    @given(state=states() | sparse_states(), label=CANONICAL_LABELS)
    @settings(max_examples=150, deadline=None)
    def test_reads_what_json_reads(self, state, label):
        data = (statefile._state_text(state, label) + "\n").encode()
        got = statefile._canonical_matrix(data)
        assert got is not None  # at most 64 nonzero entries: always scanned
        want = json_path_matrix(data)
        assert got[0].dtype == want[0].dtype and got[0].shape == want[0].shape
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]

    @pytest.mark.parametrize("make", [
        lambda rng: pl.random_canonical_pairing(2, 6, 2, rng, diag_weight=0.3),
        lambda rng: pl.cnot_embed(pl.ginibre_density(4, 4, rng)),
        lambda rng: pl.appendix_a_chain(pl.DensityMatrix(np.ones((2, 2)) / 2), 1).rho3,
        lambda rng: pl.ginibre_density(6, 6, rng),
    ])
    def test_load_state_gives_the_json_paths_state(self, tmp_path, rng, make):
        state = make(rng)
        path = tmp_path / "s.json"
        statefile.save_state(path, state, label='"matrix": [] ]\n')
        got = statefile.load_state(path)
        want = statefile.parse_state(json.loads(path.read_text()))
        assert type(got) is type(want) and got.dim == want.dim
        assert getattr(got, "d_B", None) == getattr(want, "d_B", None)
        assert got.mat.tobytes() == want.mat.tobytes()

    def test_a_dense_file_takes_the_json_path(self, rng):
        # no zero entries: the count of zero entries decides, nothing is scanned
        state = pl.ginibre_density(16, 16, rng)
        assert statefile._canonical_matrix((statefile._state_text(state, None) + "\n").encode()) \
            is None

    @pytest.mark.parametrize("d, entries, parts, scanned", [
        (12, 64, "both", True), (12, 65, "re", False), (12, 65, "im", False),
        (12, 65, "both", False), (40, 80, "both", True), (40, 80, "im", True),
        (40, 81, "re", False), (40, 81, "both", False), (1, 1, "both", True),
    ])
    def test_scan_decision_at_the_nonzero_entry_limit(self, d, entries, parts, scanned):
        # the limit is max(64, 5% of d^2) nonzero entries, not numbers: 64 at
        # d = 12, 80 at d = 40
        g = np.random.Generator(np.random.Philox(d + entries))
        m = np.zeros((d, d), dtype=complex)
        where = g.choice(d * d, entries, replace=False)
        re, im = g.uniform(-1, 1, (2, entries))
        m.flat[where] = {"both": re + 1j * im, "re": re, "im": 1j * im}[parts]
        data = (statefile._state_text(pl.DensityMatrix(m, math.inf), None) + "\n").encode()
        got = statefile._canonical_matrix(data)
        assert (got is not None) == scanned
        if scanned:
            assert got[0].tobytes() == json_path_matrix(data)[0].tobytes()

    @pytest.mark.parametrize("value", [0.5, 0.05, -0.0, 5e-324, 0.0001, 1.0, -5e-324])
    def test_numbers_that_start_like_zero_are_read_bit_for_bit(self, value):
        for d in (1, 3):
            numbers = np.zeros(2 * d * d)
            numbers[::3] = value  # first, real and imaginary parts, row ends
            numbers[-1] = value
            m = numbers.view(complex).reshape(d, d)
            data = (statefile._state_text(pl.DensityMatrix(m, math.inf), None) + "\n").encode()
            got = statefile._canonical_matrix(data)
            assert got is not None
            assert got[0].tobytes() == json_path_matrix(data)[0].tobytes() == m.tobytes()

    def test_zero_matrix_text_is_the_writers(self):
        for d in (1, 2, 5):
            text = statefile._matrix_text(np.zeros((d, d), dtype=complex)).encode()
            assert statefile._scan_matrix(text, d).tobytes() == bytes(16 * d * d)
            assert statefile._scan_matrix(text, d + 1) is None


def mutations(text: str) -> dict:
    """One change each to the canonical file ``text``."""
    key = text.index('"matrix": ')
    zero = text.index("    0.0", key) + 4  # a zero number
    nonzero = text.index("    0.5", key) + 4  # a nonzero one
    tail = text.rindex("\n}")
    out = {
        "space in the head": text[:5] + " " + text[5:],
        "space in the matrix": text[:zero] + " " + text[zero:],
        "space in the tail": text[:tail] + " " + text[tail:],
        "missing newline": text.replace("\n", "", 1),
        "trailing bytes": text + "x",
        "trailing space": text + " ",
        "truncated": text[:len(text) // 2],
        "truncated matrix end": text[:tail - 2] + text[tail:],
        "second matrix key": text[:tail] + ',\n "matrix": 0' + text[tail:],
        "second matrix nest": text[:tail] + ',\n "matrix": [[[1.0, 0.0]]]' + text[tail:],
        "label null": text[:tail] + ',\n "label": null' + text[tail:],
        "extra key": text[:tail] + ',\n "note": 1' + text[tail:],
        "dims of two": text.replace('"dims": [\n  2,\n  2\n ]', '"dims": [\n  4\n ]'),
        "dims wrong": text.replace('"dims": [\n  2,\n  2\n ]', '"dims": [\n  2,\n  3\n ]'),
        "dims float": text.replace('"dims": [\n  2,', '"dims": [\n  2.0,'),
        "crlf": text.replace("\n", "\r\n"),
    }
    for name, token in [("1", "1"), ("-0", "-0"), ("1.0e5", "1.0e5"), ("NaN", "NaN"),
                        ("Infinity", "Infinity"), ("-Infinity", "-Infinity"),
                        ("1e400", "1e400"), ("int beyond float", "1" + "0" * 400),
                        ("-inf", "-inf"), ("0.50", "0.50"), ("00.5", "00.5"), ("1_0", "1_0"),
                        ("+0.5", "+0.5"), ("string", '"0.5"'), ("0", "0"), ("-0.0", "-0.0"),
                        ("0.0 written 0.00", "0.00")]:
        at = zero if name in ("-0", "0", "-0.0", "0.0 written 0.00") else nonzero
        size = len("0.0") if at == zero else len("0.5")
        out[f"token {name}"] = text[:at] + token + text[at + size:]
    return out


def old_load(path):
    """``load_state`` as it was: json.loads of the text, then parse_state."""
    return statefile.parse_state(statefile._read_json(path))


MUTATED_SOURCE = pl.make_mc_state(pl.MCSpec(np.array([[0.5, 0.3], [0.3, 0.5]]), (0, 1), (0, 1)),
                                  2, 2)
MUTATED = mutations(statefile._state_text(MUTATED_SOURCE, 'mc "x"') + "\n")


class TestMutatedCanonicalFiles:
    @pytest.mark.parametrize("name", sorted(MUTATED))
    def test_same_outcome_as_the_json_path(self, tmp_path, name):
        path = tmp_path / "m.json"
        path.write_bytes(MUTATED[name].encode())
        assert MUTATED[name] != statefile._state_text(MUTATED_SOURCE, 'mc "x"') + "\n"
        assert outcome(statefile.load_state, path) == outcome(old_load, path)

    def test_only_files_the_writer_could_write_are_scanned(self):
        text = statefile._state_text(MUTATED_SOURCE, 'mc "x"') + "\n"
        assert statefile._canonical_matrix(text.encode()) is not None
        scanned = [name for name, t in MUTATED.items()
                   if statefile._canonical_matrix(t.encode()) is not None]
        # a 4-dim one-part state, and one with a -0.0 entry
        assert scanned == ["dims of two", "token -0.0"]

    def test_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes((statefile._state_text(MUTATED_SOURCE, "x") + "\n")
                         .encode().replace(b'"x"', b'"\xe9"'))
        with pytest.raises(ParseError, match="not UTF-8"):
            statefile.load_state(path)


def _constructed_files(tmp_path):
    """Every kind of file ``construct`` writes, through the CLI."""
    plus = tmp_path / "plus.json"
    statefile.save_state(plus, pl.DensityMatrix(np.ones((2, 2)) / 2))
    g3 = tmp_path / "g3.json"
    statefile.save_state(g3, pl.ginibre_density(3, 3, pl.RngState(5)))
    real3 = tmp_path / "real3.json"  # positive coherences: phases are L = 1 roots
    psi = np.array([0.3, 0.5, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8])
    statefile.save_state(real3, pl.DensityMatrix(0.6 * np.outer(psi, psi) + 0.4 * np.eye(3) / 3))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"p0": 0.2, "diag": [0.5, 0, 0, 0.5, 0, 0],
                                "blocks": [{"p": 0.8, "coeffs": [[0.5, 0.3], [0.3, 0.5]],
                                            "columns": [1, 2]}]}))
    runs = {
        "mc": ["mc", "--coeffs", "[[0.5,0.3],[0.3,0.5]]", "--a-labels", "0", "1",
               "--b-labels", "0", "1"],
        "qq": ["qubit-qudit", "--spec", str(spec)],
        "cnot-plus": ["cnot-embed", "--input", str(plus)],
        "cnot-g3": ["cnot-embed", "--input", str(g3)],
        "appa-plus": ["appendix-a", "--input", str(plus), "--L", "1"],
        "appa-real3": ["appendix-a", "--input", str(real3), "--L", "1"],
        "tau": ["counterexample", "--name", "tau-remark"],
        "appf": ["counterexample", "--name", "appendix-f"],
        "iso": ["counterexample", "--name", "isotropic", "--p", "0.3"],
    }
    paths = []
    for name, argv in runs.items():
        out = tmp_path / f"{name}.out.json"
        assert cli.main(["construct", *argv, "--out", str(out)]) == 0, name
        paths.append(out)
    return paths


class TestFastPathGuard:
    """Every file the package writes takes the scan: a change to the writer
    that loses it fails here, not silently."""

    def test_constructed_files_and_fixtures_are_scanned(self, tmp_path, monkeypatch, capsys):
        paths = _constructed_files(tmp_path) + sorted((REPO / "fixtures").glob("*.json"))

        def no_fallback(doc):
            raise AssertionError("took the json path")

        monkeypatch.setattr(statefile, "parse_state", no_fallback)
        for path in paths:
            statefile.load_state(path)
