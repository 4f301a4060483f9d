"""The state-file format is locked: the writer gives the reference text
assembled from json.dumps of each entry, the reader the matrix and the
errors of a per-entry reader, a file of the older dense schema one parse
error, and the fixtures regenerate byte for byte."""

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
from pairinglab.errors import ParseError, ValidationError

REPO = Path(__file__).resolve().parent.parent

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
               1e300, -1e300, 0.1, 1 / 3, 1.0, -1.0, 2.0**53 + 2.0]
floats = st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from(EDGE_FLOATS)
labels = st.none() | st.text() | st.sampled_from(
    ['q"uote', "back\\slash", "new\nline", "café ☃ \U0001f600", '"matrix": 0', '"entries": []'])


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


def dims_of(state):
    return [state.d_A, state.d_B] if isinstance(state, pl.BipartiteState) else [state.dim]


def written_entries(state):
    """[i, j, re, im] of each entry whose re or im is not +0.0, by a plain
    loop over the matrix."""
    m = state.mat
    return [[i, j, m[i, j].real, m[i, j].imag] for i in range(m.shape[0])
            for j in range(m.shape[1]) if np.array([m[i, j]]).view(np.uint64).any()]


def json_bytes(state, label):
    """The reference text of a state file: json.dumps of dims, of each entry
    on its own line, and of the label."""
    lines = ",".join("\n  " + json.dumps(e) for e in written_entries(state))
    tail = "" if label is None else ',\n "label": ' + json.dumps(label)
    return '{\n "dims": ' + json.dumps(dims_of(state)) + ',\n "entries": [' + lines \
        + "\n ]" + tail + "\n}\n"


def legacy_bytes(state, label):
    """The dense file an older writer wrote for ``state``, which is no
    longer read."""
    doc = {"dims": dims_of(state), "matrix": [[[z.real, z.imag] for z in row] for row in state.mat]}
    if label is not None:
        doc["label"] = label
    return json.dumps(doc, indent=1) + "\n"


def dense_of(at, values, d: int) -> np.ndarray:
    """The d x d matrix whose entries at the flat indices ``at`` are
    ``values`` and every other +0.0."""
    m = np.zeros(d * d, dtype=complex)
    m[at] = values
    return m.reshape(d, d)


def unvalidated(text: str):
    """(matrix, dims) of a sparse file's text, read without validation."""
    doc = json.loads(text)
    d = math.prod(doc["dims"])
    return dense_of(*statefile._parse_sparse(doc["entries"], d), d), doc["dims"]


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))


def positive_coherences():
    """A 3x3 state whose coherences all have phase 1: an appendix-a input
    at L = 1."""
    psi = np.array([0.3, 0.5, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8])
    return pl.DensityMatrix(0.6 * np.outer(psi, psi) + 0.4 * np.eye(3) / 3)


LARGE_STATES = {  # the sizes the cli-roundtrip benchmark writes and reads
    "appendix-a rho3": lambda: pl.appendix_a_chain(positive_coherences(), 1).rho3,
    "cnot-embed d=12": lambda: pl.cnot_embed(pl.ginibre_density(12, 12, pl.RngState(7))),
    "qubit-qudit 2x64": lambda: pl.make_qubit_qudit_pairing(
        0.1, [0.5, *[0.0] * 63, 0.5, *[0.0] * 63],
        [(0.9 / 24, np.array([[0.6, 0.3], [0.3, 0.4]]), (2 * k + 1, 2 * k + 2))
         for k in range(24)]),
}


class TestWriter:
    @given(state=states() | sparse_states(), label=labels)
    @settings(max_examples=100, deadline=None)
    def test_writes_the_bytes_of_json_dumps(self, state, label):
        assert statefile._state_text(state, label) == json_bytes(state, label)

    @given(state=states() | sparse_states(), label=labels)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_keeps_the_bits_and_skips_plus_zero(self, state, label):
        text = statefile._state_text(state, label)
        m, dims = unvalidated(text)
        assert same_bits(m, state.mat) and dims == dims_of(state)
        doc = json.loads(text)
        assert doc.get("label") == label and doc == statefile.state_document(state, label)
        bits = state.mat.view(np.uint64).reshape(-1, 2)
        assert len(doc["entries"]) == np.count_nonzero(bits.any(1))

    def test_save_state_file_bytes(self, tmp_path, rng):
        bs = pl.random_bipartite_state(3, 4, rng)
        path = tmp_path / "s.json"
        statefile.save_state(path, bs, label="café \"x\"\n")
        assert path.read_text() == json_bytes(bs, "café \"x\"\n")

    @pytest.mark.parametrize("name", sorted(LARGE_STATES))
    def test_benchmark_sized_states(self, tmp_path, name):
        state = LARGE_STATES[name]()
        text = statefile._state_text(state, "x")
        assert text == json_bytes(state, "x") == statefile._state_text(state, "x")
        entries = np.array(json.loads(text)["entries"])  # plain json.loads
        at = (entries[:, 0] * state.dim + entries[:, 1]).astype(int)
        assert same_bits(entries[:, 2:], state.mat.view(float).reshape(-1, 2)[at])
        path = tmp_path / "s.json"
        statefile.save_state(path, state, "x")
        assert same_bits(statefile.load_state(path).mat, state.mat)

    def test_signed_zero_and_subnormal_survive(self, tmp_path):
        m = np.array([[0.5, -0.0 + 5e-324j], [-0.0 - 5e-324j, 0.5]])
        rho = pl.DensityMatrix(m)
        path = tmp_path / "z.json"
        statefile.save_state(path, rho)
        assert path.read_text() == json_bytes(rho, None)
        assert "[1, 0, -0.0, -5e-324]" in path.read_text()
        back = statefile.load_state(path)
        assert same_bits(back.mat, rho.mat)

    def test_plus_zero_entries_are_left_out(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 0], m[1, 2], m[2, 1] = 1.0, -0.0, 0.25j
        text = statefile._state_text(pl.DensityMatrix(m, math.inf), None)
        assert json.loads(text)["entries"] == [[0, 0, 1.0, 0.0], [1, 2, -0.0, 0.0],
                                               [2, 1, 0.0, 0.25]]
        assert "\n  [1, 2, -0.0, 0.0]," in text


def checked_dims(doc):
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    dims = doc.get("dims")
    if not (isinstance(dims, list) and len(dims) in (1, 2)
            and all(type(x) is int and x > 0 for x in dims)):
        raise ParseError("dims: expected [d] or [d_A, d_B] of positive integers", "dims")
    return dims


def finite_numbers(re, im, loc):
    if not all(type(x) in (int, float) for x in (re, im)):
        raise ParseError(f"{loc}: values must be numbers", loc)
    if not all(abs(x) <= sys.float_info.max for x in (re, im)):
        raise ParseError(f"{loc}: values must be finite numbers", loc)
    return complex(re, im)


def validated(m, dims):
    rho = pl.DensityMatrix(m, 1e-8)
    return pl.BipartiteState(rho, dims[0], dims[1]) if len(dims) == 2 else rho


DENSE_SCHEMA = ('matrix: the dense schema is no longer read; list the nonzero entries as '
                '"entries": [[i, j, re, im], ...]')


def sparse_reference(doc):
    """``parse_state`` as a plain loop: each entry is checked and placed on
    its own; a document with a "matrix" key is one parse error."""
    if isinstance(doc, dict) and "matrix" in doc:
        raise ParseError(DENSE_SCHEMA, "matrix")
    dims = checked_dims(doc)
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise ParseError("entries: expected an array of [i, j, re, im]", "entries")
    d = math.prod(dims)
    m = np.zeros((d, d), dtype=complex)
    seen = []
    for k, entry in enumerate(entries):
        loc = f"entries[{k}]"
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ParseError(f"{loc}: expected [i, j, re, im]", loc)
        i, j, re, im = entry
        if type(i) is not int or type(j) is not int:
            raise ParseError(f"{loc}: indices must be integers", loc)
        if not (0 <= i < d and 0 <= j < d):
            raise ParseError(f"{loc}: index ({i}, {j}) out of range for d = {d}", loc)
        if seen and seen[-1] == (i, j):
            raise ParseError(f"{loc}: index ({i}, {j}) is repeated", loc)
        if seen and seen[-1] > (i, j):
            raise ParseError(f"{loc}: index ({i}, {j}) is out of row-major order", loc)
        seen.append((i, j))
        m[i, j] = finite_numbers(re, im, loc)
    return validated(m, dims)


def outcome(parse, doc):
    try:
        state = parse(doc)
    except Exception as exc:  # the comparison is over the exception itself
        return type(exc), str(exc), getattr(exc, "location", None)
    return type(state), getattr(state, "d_B", None), state.mat.tobytes()


HALF = [0.5, 0]
ZERO = [0, 0]
A = [0, 0, 0.5, 0.0]
D = [1, 1, 0.5, 0.0]
DENSE_ROWS = {  # "matrix" values of a 2-dim file of the older dense schema
    "a density matrix": [[HALF, ZERO], [ZERO, HALF]],
    "ragged row": [[HALF, ZERO], [ZERO]],
    "ragged entry": [[HALF, [0]], [ZERO, HALF]],
    "row not a list": [[HALF, ZERO], 7],
    "string number": [[[0.5, "0"], ZERO], [ZERO, HALF]],
    "none entry": [[None, ZERO], [ZERO, HALF]],
    "all bool": [[[True, False], [False, False]], [[False, False], [False, False]]],
    "bool and float": [[[True, 0.0], ZERO], [ZERO, [0.0, 0.0]]],
    "nested deeper": [[[[0.5], [0]], [[0], [0]]], [[[0], [0]], [[0.5], [0]]]],
    "int beyond float": [[[10**400, 0], ZERO], [ZERO, HALF]],
    "not a density matrix": [[[1.0, 0], ZERO], [ZERO, [1.0, 0]]],
    "non-finite": [[[float("nan"), 0], ZERO], [ZERO, HALF]],
    "empty": [],
    "not a list": 0,
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("doc", [
        [], {"dims": [0], "matrix": [[ZERO]]}, {"dims": [2, 2]}, {"dims": [2], "matrix": []},
        {"dims": [1, 2], "matrix": [[ZERO, ZERO]]}, {"dims": [2], "matrix": [[HALF, ZERO]]},
        {"dims": [0], "entries": [A]}, {"dims": [1, 2], "entries": 7}, 7,
    ])
    def test_document_level_errors_unchanged(self, doc):
        assert outcome(statefile.parse_state, doc) == outcome(sparse_reference, doc)
        assert outcome(statefile.parse_state, doc)[0] is ParseError


class TestDenseSchema:
    """A document with a "matrix" key, of the older dense schema, is one
    parse error at "matrix", whatever the matrix, the dims or the entries
    beside it hold."""

    @pytest.mark.parametrize("dims, entries", [([2], None), ([2], [A, D]), ([0], None),
                                               ([1, 2], "x")])
    @pytest.mark.parametrize("name", sorted(DENSE_ROWS))
    def test_is_a_parse_error_at_matrix(self, name, dims, entries):
        doc = {"dims": dims, "matrix": DENSE_ROWS[name]}
        if entries is not None:
            doc["entries"] = entries
        with pytest.raises(ParseError) as err:
            statefile.parse_state(doc)
        assert str(err.value) == DENSE_SCHEMA and err.value.location == "matrix"

    @pytest.mark.parametrize("make", [
        lambda rng: pl.random_canonical_pairing(2, 6, 2, rng, diag_weight=0.3),
        lambda rng: pl.cnot_embed(pl.ginibre_density(4, 4, rng)),
        lambda rng: pl.appendix_a_chain(pl.DensityMatrix(np.ones((2, 2)) / 2), 1).rho3,
        lambda rng: pl.ginibre_density(6, 6, rng),
    ], ids=["pairing", "cnot-embed", "appendix-a", "ginibre"])
    @pytest.mark.parametrize("with_entries", [False, True], ids=["alone", "entries"])
    def test_an_old_file_exits_2_from_every_reader(self, tmp_path, capsys, rng, make,
                                                   with_entries):
        # a file as the older writer wrote it, or with the entries beside its matrix
        state = make(rng)
        doc = json.loads(legacy_bytes(state, "old"))
        if with_entries:
            doc["entries"] = statefile.state_document(state)["entries"]
        path, out = tmp_path / "old.json", tmp_path / "out.json"
        path.write_text(json.dumps(doc))
        for argv in (["measure", str(path)], ["detect", str(path)], ["witness", str(path)],
                     ["construct", "cnot-embed", "--input", str(path), "--out", str(out)]):
            assert cli.main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == f"parse error: {DENSE_SCHEMA}\n" and captured.out == ""
        assert not out.exists()


MALFORMED_ENTRIES = {  # entries of a 2-dim file: (entries, message)
    "three numbers": ([A, [1, 1, 0.5]], "entries[1]: expected [i, j, re, im]"),
    "five numbers": ([A, [1, 1, 0.5, 0.0, 0.0]], "entries[1]: expected [i, j, re, im]"),
    "entry not a list": ([A, 7], "entries[1]: expected [i, j, re, im]"),
    "entry a string": (["abcd", D], "entries[0]: expected [i, j, re, im]"),
    "entry a dict": ([A, {"i": 1, "j": 1, "re": 0.5, "im": 0}],
                     "entries[1]: expected [i, j, re, im]"),
    "float index": ([A, [1.0, 1, 0.5, 0.0]], "entries[1]: indices must be integers"),
    "bool index": ([[False, 0, 0.5, 0.0], D], "entries[0]: indices must be integers"),
    "string index": ([A, [1, "1", 0.5, 0.0]], "entries[1]: indices must be integers"),
    "index out of range": ([A, [1, 2, 0.5, 0.0]],
                           "entries[1]: index (1, 2) out of range for d = 2"),
    "negative index": ([[-1, 0, 0.5, 0.0], D], "entries[0]: index (-1, 0) out of range for d = 2"),
    "index beyond int64": ([A, [2**64, 0, 0.5, 0.0]],
                           f"entries[1]: index ({2**64}, 0) out of range for d = 2"),
    "duplicate index": ([A, A, D], "entries[1]: index (0, 0) is repeated"),
    "out of order": ([D, A], "entries[1]: index (0, 0) is out of row-major order"),
    "string value": ([A, [1, 1, "0.5", 0.0]], "entries[1]: values must be numbers"),
    "bool value": ([A, [1, 1, True, 0.0]], "entries[1]: values must be numbers"),
    "bool values only": ([[0, 0, True, False], D], "entries[0]: values must be numbers"),
    "none value": ([A, [1, 1, 0.5, None]], "entries[1]: values must be numbers"),
    "list value": ([A, [1, 1, [0.5], 0.0]], "entries[1]: values must be numbers"),
    "nan value": ([A, [1, 1, float("nan"), 0.0]], "entries[1]: values must be finite numbers"),
    "infinite value": ([A, [1, 1, 0.5, float("-inf")]],
                       "entries[1]: values must be finite numbers"),
    "int beyond float": ([A, [1, 1, 10**400, 0]], "entries[1]: values must be finite numbers"),
}


class TestBooleans:
    """A JSON true or false is not a number: not a dimension, an index or
    a value."""

    @pytest.mark.parametrize("doc, message", [
        ({"dims": [True, 2], "entries": [[0, 0, 1.0, 0.0]]}, "dims: expected [d] or [d_A"),
        ({"dims": [True], "entries": [[0, 0, 1.0, 0.0]]}, "dims: expected [d] or [d_A"),
        ({"dims": [2], "entries": [[0, 0, 1.0, 0.0], [1, 1, False, 0.0]]},
         "entries[1]: values must be numbers"),
        ({"dims": [2], "entries": [[0, 0, 1.0, False]]}, "entries[0]: values must be numbers"),
    ])
    def test_is_a_parse_error(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["measure", str(path)]) == 2
        assert message in capsys.readouterr().err
        with pytest.raises(ParseError) as err:
            statefile.load_state(path)
        assert str(err.value).startswith(message)


class TestSparseEntries:
    @pytest.mark.parametrize("name", sorted(MALFORMED_ENTRIES))
    def test_messages_name_the_offending_entry(self, tmp_path, capsys, name):
        entries, message = MALFORMED_ENTRIES[name]
        doc = {"dims": [2], "entries": entries}
        with pytest.raises(ParseError) as err:
            statefile.parse_state(doc)
        assert str(err.value) == message and err.value.location == message.split(":")[0]
        assert outcome(statefile.parse_state, doc) == outcome(sparse_reference, doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["measure", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"dims": [2], "entries": [A, D], "matrix": [[HALF, ZERO], [ZERO, HALF]]}, DENSE_SCHEMA),
        ({"dims": [2], "entries": {"0": A}}, "entries: expected an array of [i, j, re, im]"),
        ({"dims": [2], "entries": None}, "entries: expected an array of [i, j, re, im]"),
        ({"dims": [2.0], "entries": [A, D]},
         "dims: expected [d] or [d_A, d_B] of positive integers"),
        ({"dims": [True, 2], "entries": [A, D]},
         "dims: expected [d] or [d_A, d_B] of positive integers"),
    ])
    def test_document_level_errors(self, doc, message):
        with pytest.raises(ParseError) as err:
            statefile.parse_state(doc)
        assert str(err.value) == message
        assert outcome(statefile.parse_state, doc) == outcome(sparse_reference, doc)

    def test_an_empty_list_is_the_zero_matrix(self):
        assert same_bits(dense_of(*statefile._parse_sparse([], 3), 3), np.zeros((3, 3), dtype=complex))
        with pytest.raises(ValidationError):
            statefile.parse_state({"dims": [3], "entries": []})

    @given(d=st.integers(1, 4), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_vectorized_path_matches_the_per_entry_loop(self, d, data):
        numbers = floats | st.integers(-2**70, 2**70)
        at = data.draw(st.lists(st.integers(0, d * d - 1), unique=True, max_size=d * d).map(sorted))
        entries = [[a // d, a % d, *data.draw(st.lists(numbers, min_size=2, max_size=2))]
                   for a in at]
        if entries and data.draw(st.booleans()):  # one entry replaced, most often by a bad one
            index = st.integers(-1, d) | st.sampled_from([0.0, 1.0, True, False, "0", 2**64])
            value = numbers | st.sampled_from([10**400, float("nan"), float("inf"), True, None,
                                               "1", [0.5]])
            entry = st.tuples(index, index, value, value).map(list)
            odd = st.lists(index, max_size=5) | st.sampled_from([7, "abcd", None, {}])
            entries[data.draw(st.integers(0, len(entries) - 1))] = data.draw(entry | odd)
        try:
            at, values = statefile._sparse_entries(entries, d)
        except ParseError:
            assert statefile._sparse_columns(entries, d) is None
            return
        columns = statefile._sparse_columns(entries, d)
        assert (columns is None) == (entries == [])  # the loop reads no entries at no cost
        if columns is not None:
            assert np.array_equal(columns[0], at) and same_bits(columns[1], values)


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


CANONICAL_LABELS = labels | st.sampled_from(['{"entries": [[0, 0, 1.0, 0.0]]}', "a]\n[b", '"', ""])


def reference_matrix(text: str):
    """(matrix, dims) of a sparse file's text: json.loads, then each entry
    placed on its own."""
    doc = json.loads(text)
    d = math.prod(doc["dims"])
    m = np.zeros((d, d), dtype=complex)
    for i, j, re, im in doc["entries"]:
        m[i, j] = complex(re, im)
    return m, doc["dims"]


class TestCanonicalReader:
    """A file that ``save_state`` wrote reads back to the bit of what
    json.loads reads."""

    @given(state=states() | sparse_states(), label=CANONICAL_LABELS)
    @settings(max_examples=150, deadline=None)
    def test_reads_what_json_reads(self, state, label):
        text = statefile._state_text(state, label)
        got, want = unvalidated(text), reference_matrix(text)
        assert got[0].dtype == want[0].dtype and same_bits(got[0], want[0])
        assert got[1] == want[1]

    @pytest.mark.parametrize("value", [0.5, 0.05, -0.0, 5e-324, 0.0001, 1.0, -5e-324, 0.0009,
                                       -0.0001, 1e-05, 1.0000000000000002,
                                       -1.0000000000000002e-300, 100000.00000000001])
    def test_numbers_that_start_like_zero_are_read_bit_for_bit(self, value):
        for d in (1, 3):
            numbers = np.zeros(2 * d * d)
            numbers[::3] = value  # first, real and imaginary parts, row ends
            numbers[-1] = value
            m = numbers.view(complex).reshape(d, d)
            text = statefile._state_text(pl.DensityMatrix(m, math.inf), None)
            got = unvalidated(text)[0]
            assert same_bits(got, reference_matrix(text)[0]) and same_bits(got, m)

    def test_zero_matrix_text_is_the_writers(self):
        for d in (1, 2, 5):
            text = statefile._state_text(pl.DensityMatrix(np.zeros((d, d)), math.inf), None)
            assert text == f'{{\n "dims": [{d}],\n "entries": [\n ]\n}}\n'
            assert same_bits(unvalidated(text)[0], np.zeros((d, d), dtype=complex))


def mutations(text: str) -> dict:
    """One change each to the written file ``text``."""
    key = text.index('"entries": ')
    zero = text.index(", 0.0]", key) + 2  # a zero number
    nonzero = text.index("0.5", key)  # a nonzero one
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
        "second entries key": text[:tail] + ',\n "entries": []' + text[tail:],
        "label null": text[:tail] + ',\n "label": null' + text[tail:],
        "extra key": text[:tail] + ',\n "note": 1' + text[tail:],
        "dims of two": text.replace('"dims": [2, 2]', '"dims": [4]'),
        "dims wrong": text.replace('"dims": [2, 2]', '"dims": [2, 3]'),
        "dims too small": text.replace('"dims": [2, 2]', '"dims": [3]'),
        "dims float": text.replace('"dims": [2, 2]', '"dims": [2.0, 2]'),
        "crlf": text.replace("\n", "\r\n"),
        "entries swapped": text.replace("[0, 3,", "[9, 9,").replace("[3, 0,", "[0, 3,")
                               .replace("[9, 9,", "[3, 0,"),
        "entry repeated": text.replace("[3, 0,", "[0, 3,"),
        "index float": text.replace("[3, 0,", "[3.0, 0,"),
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


def reference_load(path):
    """``load_state`` as a plain loop: the decoded file, then ``sparse_reference``."""
    return sparse_reference(statefile._read_json(path))


MUTATED_SOURCE = pl.make_mc_state(pl.MCSpec(np.array([[0.5, 0.3], [0.3, 0.5]]), (0, 1), (0, 1)),
                                  2, 2)
MUTATED = mutations(statefile._state_text(MUTATED_SOURCE, 'mc "x"'))


class TestMutatedCanonicalFiles:
    @pytest.mark.parametrize("name", sorted(MUTATED))
    def test_same_outcome_as_the_json_path(self, tmp_path, name):
        path = tmp_path / "m.json"
        path.write_bytes(MUTATED[name].encode())
        assert MUTATED[name] != statefile._state_text(MUTATED_SOURCE, 'mc "x"')
        assert outcome(statefile.load_state, path) == outcome(reference_load, path)

    def test_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(statefile._state_text(MUTATED_SOURCE, "x")
                         .encode().replace(b'"x"', b'"\xe9"'))
        with pytest.raises(ParseError, match="not UTF-8"):
            statefile.load_state(path)


class TestDeclaredSize:
    @pytest.mark.parametrize("dims", [[2**40], [2**24], [2**12, 2**12], [2**32, 2**32]])
    def test_a_size_no_allocator_grants_is_a_parse_error(self, tmp_path, capsys, dims):
        # 2^24 x 2^24 complex entries are 4 PiB; 2^40 x 2^40 overflow numpy's
        # size; d = 2^32 * 2^32 would wrap to 0 in int64
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dims": dims, "entries": [[0, 0, 1.0, 0.0]]}))
        d = math.prod(dims)
        with pytest.raises(ParseError, match=f"^dims: no {d} x {d} matrix can be held") as err:
            statefile.load_state(path)
        assert err.value.location == "dims"
        assert cli.main(["measure", str(path)]) == 2
        assert f"dims: no {d} x {d} matrix can be held" in capsys.readouterr().err

    def test_a_large_pure_state_in_a_tiny_file_loads(self, tmp_path):
        path = tmp_path / "pure.json"
        path.write_text(json.dumps({"dims": [2000], "entries": [[0, 0, 1.0, 0.0]]}))
        state = statefile.load_state(path)
        assert state.dim == 2000 and state.mat[0, 0] == 1.0
        assert np.count_nonzero(state.mat) == 1


def _constructed_files(tmp_path):
    """Every kind of file ``construct`` writes, through the CLI."""
    plus = tmp_path / "plus.json"
    statefile.save_state(plus, pl.DensityMatrix(np.ones((2, 2)) / 2))
    g3 = tmp_path / "g3.json"
    statefile.save_state(g3, pl.ginibre_density(3, 3, pl.RngState(5)))
    real3 = tmp_path / "real3.json"
    statefile.save_state(real3, positive_coherences())
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
    """Every file the package writes is read by the vectorized path: a
    change to the writer that loses it fails here, not silently."""

    def test_constructed_files_and_fixtures_are_scanned(self, tmp_path, monkeypatch, capsys):
        paths = _constructed_files(tmp_path) + sorted((REPO / "fixtures").glob("*.json"))

        def no_fallback(*args):
            raise AssertionError("took the per-entry path")

        monkeypatch.setattr(statefile, "_sparse_entries", no_fallback)
        for path in paths:
            assert "matrix" not in json.loads(path.read_text())
            statefile.load_state(path)
