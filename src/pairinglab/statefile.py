"""JSON state files: explicit [re, im] entry pairs, diffable and
bit-exact on round trip.

Schema: {"dims": [d_A, d_B] or [d], "matrix": [[[re, im], ...], ...],
"label": optional string}.
"""

from __future__ import annotations

import cmath
import json
import math
from pathlib import Path

import numpy as np

from .errors import ParseError
from .linalg import BipartiteState, DensityMatrix


def _entry(value, row: int, col: int) -> complex:
    loc = f"matrix[{row}][{col}]"
    if not (isinstance(value, list) and len(value) == 2):
        raise ParseError(f"{loc}: expected a [re, im] pair", loc)
    re, im = value
    if not all(isinstance(x, (int, float)) for x in (re, im)):
        raise ParseError(f"{loc}: entries must be numbers", loc)
    try:
        z = complex(re, im)
        if cmath.isfinite(z):
            return z
    except OverflowError:  # an integer beyond float range
        pass
    raise ParseError(f"{loc}: entries must be finite numbers", loc)


def _parse_entries(rows: list, d: int) -> np.ndarray:
    """The d x d matrix of ``rows``, one checked entry at a time."""
    m = np.zeros((d, d), dtype=complex)
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == d):
            raise ParseError(f"matrix[{i}]: expected {d} entries", f"matrix[{i}]")
        for j, val in enumerate(row):
            m[i, j] = _entry(val, i, j)
    return m


def _parse_matrix(rows: list, d: int) -> np.ndarray:
    """The d x d matrix of ``rows``, converted in one numpy call when every
    entry is a [re, im] pair of finite JSON numbers; anything else goes
    through ``_parse_entries``, which locates the first malformed entry.

    int64 -> float64 rounds as ``float(int)`` does, so both paths give
    bit-identical matrices.
    """
    try:
        arr = np.array(rows)
    except (ValueError, OverflowError):  # ragged rows or out-of-range numbers
        return _parse_entries(rows, d)
    if arr.shape != (d, d, 2) or arr.dtype.kind not in "fi" or not np.isfinite(arr).all():
        return _parse_entries(rows, d)
    return np.ascontiguousarray(arr, dtype=np.float64).view(complex)[..., 0]


def _checked_dims(doc) -> list:
    """The "dims" of a decoded document; ParseError unless the document is
    an object with dims [d] or [d_A, d_B] of positive integers."""
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    dims = doc.get("dims")
    if not (isinstance(dims, list) and len(dims) in (1, 2)
            and all(isinstance(x, int) and x > 0 for x in dims)):
        raise ParseError("dims: expected [d] or [d_A, d_B] of positive integers", "dims")
    return dims


def _state(m: np.ndarray, dims: list) -> DensityMatrix | BipartiteState:
    """The state file's matrix ``m`` on ``dims``, validated."""
    rho = DensityMatrix(m, 1e-8)
    if len(dims) == 2:
        return BipartiteState(rho, dims[0], dims[1])
    return rho


def parse_state(doc: dict) -> DensityMatrix | BipartiteState:
    """Build a validated state from a decoded state-file document (as
    ``json.loads`` returns it: lists, not tuples or arrays)."""
    dims = _checked_dims(doc)
    rows = doc.get("matrix")
    if not isinstance(rows, list) or not rows:
        raise ParseError("matrix: expected a nonempty nested array", "matrix")
    d = int(np.prod(dims))
    if len(rows) != d:
        raise ParseError(f"matrix: expected {d} rows, got {len(rows)}", "matrix")
    return _state(_parse_matrix(rows, d), dims)


def _read(path) -> bytes:
    """The bytes of the file ``path``; ParseError when it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path, text: str) -> None:
    """Write ``text`` to the file ``path``; ParseError when it cannot be
    written."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _json(data: bytes, path):
    """The JSON document in the bytes ``data`` of the file ``path``;
    ParseError when they are not UTF-8 text or not JSON."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    if "\r" in text:  # as reading in text mode does, so error positions stay put
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


def _read_json(path):
    """The decoded JSON document in the file ``path``; ParseError when the
    file cannot be read, is not UTF-8 text or is not JSON."""
    return _json(_read(path), path)


def load_state(path) -> DensityMatrix | BipartiteState:
    """Read and validate a state file.

    A file that is byte for byte what ``save_state`` writes is read by
    ``_canonical_matrix``; any other file is decoded by ``json.loads`` and
    built by ``parse_state``.  Both give the same matrix, bit for bit.

    Raises ParseError on malformed content and ValidationError when the
    matrix is not a density matrix.
    """
    data = _read(path)
    canonical = _canonical_matrix(data)
    if canonical is None:
        return parse_state(_json(data, path))
    return _state(*canonical)


def _dims_and_matrix(state) -> tuple[list, np.ndarray]:
    if isinstance(state, BipartiteState):
        return [state.d_A, state.d_B], state.mat
    return [state.dim], state.mat


def state_document(state: DensityMatrix | BipartiteState, label: str | None = None) -> dict:
    dims, m = _dims_and_matrix(state)
    doc = {
        "dims": dims,
        "matrix": [[[z.real, z.imag] for z in row] for row in m],
    }
    if label is not None:
        doc["label"] = label
    return doc


# What json.dumps(..., indent=1) puts between the numbers of "matrix":
# each number sits on its own line, four levels deep.  The separators are,
# in order, re -> im, entry -> entry, row -> row and end of matrix.
_MATRIX_OPEN = "[\n  [\n   [\n    "
_SEPARATORS = (",\n    ", "\n   ],\n   [\n    ", "\n   ]\n  ],\n  [\n   [\n    ",
               "\n   ]\n  ]\n ]")
_MATRIX_KEY = '"matrix": '


def _matrix_text(m: np.ndarray) -> str:
    """``m`` as json.dumps(..., indent=1) writes its [re, im] nest; ``m`` is
    a state's matrix, so complex128 and finite (``as_complex_matrix``).

    Each distinct float (by bit pattern, so -0.0 stays apart from 0.0) is
    formatted once with ``float.__repr__``, as json does, and joined to
    each separator that can follow it; the text is one ``str.join`` over
    those pieces.  +0.0, the bulk of a structured state, skips the sort.
    """
    d = m.shape[0]
    bits = np.ascontiguousarray(m).view(np.uint64).ravel()
    nonzero = bits != 0
    distinct, inverse = np.unique(bits[nonzero], return_inverse=True)
    reprs = ["0.0", *map(float.__repr__, distinct.view(np.float64).tolist())]
    pieces = np.array([r + sep for sep in _SEPARATORS for r in reprs], dtype=object)
    index = np.zeros(bits.size, dtype=np.intp)
    index[nonzero] = inverse + 1
    index = index.reshape(d, d, 2)
    # which separator follows each number: re -> im, im -> next entry,
    # the last im of a row -> next row, the very last -> end of matrix
    n = len(reprs)
    index[..., 1] += n
    index[:, -1, 1] += n
    index[-1, -1, 1] += n
    return _MATRIX_OPEN + "".join(pieces[index.ravel()].tolist())


def _document_text(dims, label) -> str:
    """json.dumps(..., indent=1) of a state document whose matrix is the
    placeholder 0."""
    doc = {"dims": dims, "matrix": 0}
    if label is not None:
        doc["label"] = label
    return json.dumps(doc, indent=1)


def _state_text(state, label: str | None) -> str:
    """The bytes of json.dumps(state_document(state, label), indent=1),
    with the matrix formatted by ``_matrix_text``."""
    dims, m = _dims_and_matrix(state)
    # a label's quotes are escaped, so the first match is the key itself
    head, tail = _document_text(dims, label).split(_MATRIX_KEY + "0", 1)
    return f"{head}{_MATRIX_KEY}{_matrix_text(m)}{tail}"


def save_state(path, state, label: str | None = None) -> None:
    """Write a state file; float serialization is shortest round-trip
    (<= 17 significant digits), so read-back is bit-exact.  The bytes are
    those of ``json.dumps(state_document(state, label), indent=1)`` plus a
    newline.  ParseError when the file cannot be written."""
    _write(path, _state_text(state, label) + "\n")


# The scan converts each distinct number that is not 0.0 with float() and
# checks it with repr(), about 3-5x what json.loads and np.array spend on a
# number, and spends little on a 0.0.  Measured per matrix text (best of 9,
# one thread, distinct random entries, d = 64 and 144), its time over that
# of json.loads and np.array is 0.45 with 2% of the entries nonzero, 0.95
# with 10%, 1.5 with 20% and 4.7 with all.  So it is taken when at most 5%
# of the entries are nonzero, or at most 64 of them: a small file that then
# costs at most 0.4 ms more (d = 17).  A dense file pays only the count.
_MAX_NONZERO_SHARE = 0.05
_FEW = 64
_ZERO = b"0.0"
# The bytes that float.__repr__ of a nonzero finite float can hold, but no
# separator and not "0.0": each number that is not 0.0 holds one.
_IS_MARK = bytes(c in b"123456789-" for c in range(256))


def _canonical_matrix(data: bytes) -> tuple[np.ndarray, list] | None:
    """(matrix, dims) of the bytes ``data`` of a state file when they are
    exactly what ``save_state`` writes for some state and label; None for
    any other file, and for one with too many nonzero entries to gain.

    Everything but the matrix, with the placeholder 0 in its place, must be
    a document that ``_document_text`` writes again byte for byte, with
    dims that pass ``parse_state``'s check; ``_scan_matrix`` proves the
    rest.
    """
    key = data.find(_MATRIX_KEY.encode())
    start = key + len(_MATRIX_KEY)
    end = data.rfind(_SEPARATORS[-1].encode()) + len(_SEPARATORS[-1])
    if key < 0 or end < start + len(_MATRIX_OPEN):
        return None
    try:
        shell = (data[:start] + b"0" + data[end:]).decode("utf-8")
        doc = json.loads(shell)
        if not isinstance(doc, dict) \
                or shell != _document_text(doc.get("dims"), doc.get("label")) + "\n":
            return None
        dims = _checked_dims(doc)
    except (ValueError, RecursionError, ParseError):
        return None  # the json path reports it as it always has
    d = math.prod(dims)
    zero_entry = b" " + _ZERO + _SEPARATORS[0].encode() + _ZERO + b"\n"
    if d * d - data.count(zero_entry, start, end) > max(_FEW, _MAX_NONZERO_SHARE * d * d):
        return None
    numbers = _scan_matrix(data[start:end], d)
    return None if numbers is None else (numbers.view(complex).reshape(d, d), dims)


def _scan_matrix(text: bytes, d: int) -> np.ndarray | None:
    """The 2 d^2 numbers of the matrix text ``text`` in file order, when it
    is what ``_matrix_text`` writes for a d x d matrix; None otherwise.

    The proof: ``text``, with each number that is not "0.0" put back to
    "0.0", is the text of the zero matrix, and each such number is finite
    and equals ``float.__repr__`` of its value, which rules out NaN,
    infinities, integers and any other spelling.  ``repr`` round trips, so
    the numbers are bit for bit the ones json.loads reads, signed zeros
    included.  Only the numbers that are not "0.0" are converted, each
    distinct one once.
    """
    sep = [s.encode() for s in _SEPARATORS]
    entry = _ZERO + sep[0] + _ZERO
    row = (entry + sep[1]) * (d - 1) + entry
    # every number sits on a line of its own, after four spaces and before
    # a comma or the line's end; the lines holding a mark hold the numbers
    # that are not 0.0
    region = np.frombuffer(text, dtype=np.uint8)
    newlines = np.flatnonzero(region == ord("\n"))
    marks = np.flatnonzero(np.frombuffer(text.translate(_IS_MARK), dtype=bool))
    marks = marks[np.diff(marks, prepend=-2) > 1]  # the first of each run
    lines = np.unique(np.searchsorted(newlines, marks))
    if lines.size and lines[0] == 0:
        return None
    firsts = newlines[lines - 1] + 5  # after the newline and four spaces
    lasts = newlines[lines] - (region[newlines[lines] - 1] == ord(","))
    tokens = [text[a:b] for a, b in zip(firsts.tolist(), lasts.tolist())]
    gaps = zip([0, *lasts.tolist()], [*firsts.tolist(), len(text)])
    if _ZERO.join([text[a:b] for a, b in gaps]) \
            != _MATRIX_OPEN.encode() + (row + sep[2]) * (d - 1) + row + sep[3]:
        return None
    distinct = list(set(tokens))
    try:
        values = list(map(float, distinct))
    except ValueError:
        return None
    # float() takes no comma, so neither join holds one but its own: they
    # are equal exactly when each token is the repr of its value ("-inf"
    # is one, hence the finiteness check)
    if not all(map(math.isfinite, values)) \
            or ",".join(map(float.__repr__, values)).encode() != b",".join(distinct):
        return None
    # a number's offset in the zero matrix's text names its row, entry and
    # part; it is its offset in ``text`` less what the numbers before it add
    excess = lasts - firsts - len(_ZERO)
    i, rest = np.divmod(firsts - (np.cumsum(excess) - excess) - len(_MATRIX_OPEN),
                        len(row) + len(sep[2]))
    j, rest = np.divmod(rest, len(entry) + len(sep[1]))
    numbers = np.zeros(2 * d * d)
    numbers[2 * (i * d + j) + rest // (len(_ZERO) + len(sep[0]))] = \
        list(map(dict(zip(distinct, values)).__getitem__, tokens))
    return numbers
