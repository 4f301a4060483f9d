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

#: the tolerance a state file's matrix is validated at
FILE_TOL = 1e-8


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
    rho = DensityMatrix(m, FILE_TOL)
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


def _write(path, data: bytes) -> None:
    """Write ``data`` to the file ``path``; ParseError when that fails."""
    try:
        Path(path).write_bytes(data)
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


def _dims(state) -> list:
    return [state.d_A, state.d_B] if isinstance(state, BipartiteState) else [state.dim]


def _document(dims: list, matrix, label: str | None) -> dict:
    doc = {"dims": dims, "matrix": matrix}
    if label is not None:
        doc["label"] = label
    return doc


def state_document(state: DensityMatrix | BipartiteState, label: str | None = None) -> dict:
    return _document(_dims(state), [[[z.real, z.imag] for z in row] for row in state.mat], label)


# What json.dumps(..., indent=1) puts between the numbers of "matrix":
# each number sits on its own line, four levels deep.  The separators are,
# in order, re -> im, entry -> entry, row -> row and end of matrix.
_MATRIX_OPEN = b"[\n  [\n   [\n    "
_SEPARATORS = (b",\n    ", b"\n   ],\n   [\n    ", b"\n   ]\n  ],\n  [\n   [\n    ",
               b"\n   ]\n  ]\n ]")
_MATRIX_KEY = '"matrix": '
_ZERO = b"0.0"


def _layout(d: int) -> tuple[int, tuple[int, int, int]]:
    """The length of ``_zero_text(d)``, and the strides by which number
    (i, j, part) begins at len(_MATRIX_OPEN) + (i, j, part) @ strides in it."""
    part, entry, row, end = map(len, _SEPARATORS)
    cell = 2 * len(_ZERO) + part + entry  # an entry and the separator after it
    strides = (d * cell - entry + row, cell, len(_ZERO) + part)
    return len(_MATRIX_OPEN) + d * strides[0] - row + end, strides


def _zero_text(d: int) -> bytes:
    """The [re, im] nest of the d x d zero matrix as ``_matrix_pieces`` writes it."""
    part, entry, row, end = _SEPARATORS
    cells = (_ZERO + part + _ZERO + entry) * (d - 1) + _ZERO + part + _ZERO
    return b"".join([_MATRIX_OPEN, *[cells + row] * (d - 1), cells, end])


def _matrix_pieces(m: np.ndarray) -> list:
    """Pieces whose join is the [re, im] nest of a state's matrix ``m`` as
    json.dumps(..., indent=1) writes it: the zero matrix's text, with the
    numbers that are not +0.0 spliced in at their ``_layout`` offsets, each
    distinct float (by bit pattern) formatted once by ``float.__repr__``."""
    d = m.shape[0]
    bits = np.ascontiguousarray(m).view(np.uint64).ravel()
    flat = np.flatnonzero(bits)
    distinct, inverse = np.unique(bits[flat], return_inverse=True)
    reprs = np.array([repr(x).encode() for x in distinct.view(np.float64).tolist()], dtype=object)
    at = len(_MATRIX_OPEN) + np.dot(_layout(d)[1], np.unravel_index(flat, (d, d, 2)))
    zero = memoryview(_zero_text(d))
    pieces = [zero] * (2 * at.size + 1)
    pieces[::2] = [zero[a:b] for a, b in zip([0, *(at + len(_ZERO)).tolist()],
                                             [*at.tolist(), len(zero)])]
    pieces[1::2] = reprs[inverse].tolist()
    return pieces


def _matrix_text(m: np.ndarray) -> str:
    """The join of ``_matrix_pieces(m)``."""
    return b"".join(_matrix_pieces(m)).decode()


def _state_bytes(state, label: str | None) -> bytes:
    """json.dumps(state_document(state, label), indent=1) and a newline,
    encoded, with the matrix spliced by ``_matrix_pieces``."""
    text = json.dumps(_document(_dims(state), 0, label), indent=1) + "\n"
    cut = text.index(_MATRIX_KEY) + len(_MATRIX_KEY)  # a label's quotes are escaped
    return b"".join([text[:cut].encode(), *_matrix_pieces(state.mat), text[cut + 1:].encode()])


def _state_text(state, label: str | None) -> str:
    """json.dumps(state_document(state, label), indent=1)."""
    return _state_bytes(state, label)[:-1].decode()


def save_state(path, state, label: str | None = None) -> None:
    """Write a state file; float serialization is shortest round-trip
    (<= 17 significant digits), so read-back is bit-exact.  The bytes are
    those of ``json.dumps(state_document(state, label), indent=1)`` plus a
    newline.  ParseError when the file cannot be written."""
    _write(path, _state_bytes(state, label))


# The scan converts each distinct number that is not 0.0 with float() and
# checks it with repr(), several times what json.loads and np.array spend
# on a number.  Its time over theirs per matrix text (best of 25, one
# thread, distinct random entries, d = 64 and 144, two seeds): 0.2 with 2%
# of the entries nonzero, 0.4-0.45 with 5%, 0.7-0.9 with 10%, 1.0-1.7 with
# 20% and 2.8-4.8 with all.  So it is taken when at most 5% of the entries
# are nonzero, or at most 64 of them: a small file that then costs at most
# 0.12 ms more (d = 17).  A dense file pays only the count of its flags.
_MAX_NONZERO_SHARE = 0.05
_FEW = 64


def _canonical_matrix(data: bytes) -> tuple[np.ndarray, list] | None:
    """(matrix, dims) of the bytes ``data`` of a state file when they are
    exactly what ``save_state`` writes for some state and label; None for
    any other file, and for one with too many nonzero entries to gain.

    Everything but the matrix, with the placeholder 0 in its place, must be
    written again byte for byte by json.dumps(..., indent=1), with dims
    that pass ``parse_state``'s check; ``_scan_matrix`` proves the rest.
    """
    key = data.find(_MATRIX_KEY.encode())
    start = key + len(_MATRIX_KEY)
    end = data.rfind(_SEPARATORS[-1]) + len(_SEPARATORS[-1])
    if key < 0 or end < start + len(_MATRIX_OPEN):
        return None
    try:
        shell = (data[:start] + b"0" + data[end:]).decode("utf-8")
        doc = json.loads(shell)
        if not isinstance(doc, dict) or shell != \
                json.dumps(_document(doc.get("dims"), 0, doc.get("label")), indent=1) + "\n":
            return None
        dims = _checked_dims(doc)
    except (ValueError, RecursionError, ParseError):
        return None  # the json path reports it as it always has
    d = math.prod(dims)
    numbers = _scan_matrix(memoryview(data)[start:end], d)
    return None if numbers is None else (numbers.view(complex).reshape(d, d), dims)


def _scan_matrix(text, d: int) -> np.ndarray | None:
    """The 2 d^2 numbers of the matrix text ``text`` (bytes or a view of
    them) in file order when ``_matrix_pieces`` writes it for a d x d
    matrix with at most max(64, 5% of d^2) nonzero entries, else None.

    The zero matrix's text has no digit 1-9 and no "-" (the flags), and any
    other number has one within five bytes of its start, after a space; it
    ends at the next comma or newline.  The proof: ``text``, with each such
    number put back to "0.0", is the zero matrix's text, and each is finite
    and equals ``float.__repr__`` of its value, which rules out NaN,
    infinities, integers and any other spelling.  ``repr`` round trips, so
    the numbers are bit for bit json.loads's, signed zeros included.
    """
    region = np.frombuffer(text, dtype=np.uint8)
    flagged = np.subtract(region, ord("1"), dtype=np.uint8) < 9
    flagged |= region == ord("-")
    size, strides = _layout(d)
    limit = max(_FEW, _MAX_NONZERO_SHARE * d * d)
    # no number is shorter than "0.0", nor has more than 24 flags
    if len(text) < size or np.count_nonzero(flagged) > 48 * limit:
        return None
    # a number's first flag is at least seven bytes after the flags of the
    # number before it, and a later flag more than six after its space
    at = np.flatnonzero(flagged)
    at = at[np.diff(at, prepend=-7) >= 7]
    near = np.take(region, at[:, None] + np.arange(-6, 25), mode="clip")
    space = near[:, 5::-1] == ord(" ")
    first = space.any(1)
    lead, near = space.argmax(1)[first], near[first]
    sizes = lead + ((near[:, 6:] == ord(",")) | (near[:, 6:] == ord("\n"))).argmax(1)
    firsts = at[first] - lead
    # each number's offset in the zero matrix's text, where an entry's two
    # numbers are one stride apart and entries are not
    at = firsts - np.cumsum(sizes - len(_ZERO)) + sizes - len(_ZERO)
    if firsts.size - np.count_nonzero(np.diff(at) == strides[2]) > limit:
        return None
    gaps = zip([0, *(firsts + sizes).tolist()], [*firsts.tolist(), len(text)])
    if _ZERO.join([text[a:b] for a, b in gaps]) != _zero_text(d):
        return None
    window = near.tobytes()
    starts = np.arange(6, near.size, near.shape[1]) - lead
    tokens = [window[a:b] for a, b in zip(starts.tolist(), (starts + sizes).tolist())]
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
    i, rest = np.divmod(at - len(_MATRIX_OPEN), strides[0])
    j, rest = np.divmod(rest, strides[1])
    numbers = np.zeros(2 * d * d)
    numbers[np.ravel_multi_index((i, j, rest // strides[2]), (d, d, 2))] = \
        list(map(dict(zip(distinct, values)).__getitem__, tokens))
    return numbers
