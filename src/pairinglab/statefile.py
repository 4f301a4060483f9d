"""JSON state files: a sparse list of [i, j, re, im] entries, diffable and
bit-exact on round trip.

Schema: {"dims": [d_A, d_B] or [d], "entries": [[i, j, re, im], ...],
"label": optional string}.  ``save_state`` writes one entry per line, in
ascending row-major order, for each entry whose real or imaginary part is
not +0.0 (so -0.0 is kept); every other entry is zero.  A document of the
older dense schema, with a "matrix" key, is a parse error.
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


def _complex(re, im, loc: str) -> complex:
    """complex(re, im) of two decoded JSON numbers; ParseError at ``loc``
    unless both are finite numbers (a boolean is not one)."""
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re, im)):
        raise ParseError(f"{loc}: values must be numbers", loc)
    try:
        z = complex(re, im)
        if cmath.isfinite(z):
            return z
    except OverflowError:  # an integer beyond float range
        pass
    raise ParseError(f"{loc}: values must be finite numbers", loc)


def _sparse_entries(entries: list, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(flat indices i d + j, values) of ``entries``, one checked entry at
    a time."""
    at, values, last = [], [], -1
    for k, entry in enumerate(entries):
        loc = f"entries[{k}]"
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ParseError(f"{loc}: expected [i, j, re, im]", loc)
        i, j, re, im = entry
        if type(i) is not int or type(j) is not int:
            raise ParseError(f"{loc}: indices must be integers", loc)
        if not (0 <= i < d and 0 <= j < d):
            raise ParseError(f"{loc}: index ({i}, {j}) out of range for d = {d}", loc)
        if i * d + j <= last:
            fault = "is repeated" if i * d + j == last else "is out of row-major order"
            raise ParseError(f"{loc}: index ({i}, {j}) {fault}", loc)
        last = i * d + j
        at.append(last)
        values.append(_complex(re, im, loc))
    return np.array(at, dtype=np.int64), np.array(values, dtype=complex)


def _sparse_columns(entries: list, d: int) -> tuple | None:
    """(flat indices i d + j, values) of ``entries`` in a few numpy calls,
    with the numbers ``_sparse_entries`` would give; None when it would
    raise, and for an empty list."""
    try:
        i, j, re, im = zip(*entries)
    except (TypeError, ValueError):  # an entry that is no array, or shorter than four
        return None
    if max(map(len, entries)) != 4 or set(map(type, i + j)) != {int} \
            or not set(map(type, re + im)) <= {int, float}:
        return None
    try:  # an index beyond int64, or a value beyond float range
        rows, cols = (np.fromiter(x, np.int64, len(x)) for x in (i, j))
        values = np.fromiter(re + im, np.float64, 2 * len(re)).reshape(2, -1).T
    except OverflowError:
        return None
    at = rows * d + cols
    if not (np.all((0 <= rows) & (rows < d) & (0 <= cols) & (cols < d))
            and np.isfinite(values).all() and (np.diff(at) > 0).all()):
        return None
    return at, np.ascontiguousarray(values).view(complex).reshape(-1)


def _parse_sparse(entries: list, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(ascending flat indices, values) of a sparse entry list on a d x d
    matrix, in a few numpy calls when ``_sparse_columns`` accepts it;
    anything else goes through ``_sparse_entries``, which locates the
    first malformed entry.

    The state holds only these entries, but builds its dense ``mat`` on
    first access, so dims whose d x d matrix no allocator grants are a
    parse error: the allocation is asked for and dropped untouched, so
    it costs no pass over the matrix."""
    try:
        np.empty((d, d), dtype=complex)
    except (ValueError, MemoryError) as exc:  # a size no allocator grants
        raise ParseError(f"dims: no {d} x {d} matrix can be held ({exc})", "dims") from exc
    columns = _sparse_columns(entries, d)
    return _sparse_entries(entries, d) if columns is None else columns


def _checked_dims(doc) -> list:
    """The "dims" of a decoded document; ParseError unless the document is
    an object with dims [d] or [d_A, d_B] of positive integers."""
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    dims = doc.get("dims")
    if not (isinstance(dims, list) and len(dims) in (1, 2)
            and all(type(x) is int and x > 0 for x in dims)):
        raise ParseError("dims: expected [d] or [d_A, d_B] of positive integers", "dims")
    return dims


def parse_state(doc: dict) -> DensityMatrix | BipartiteState:
    """Build a validated state from a decoded state-file document (as
    ``json.loads`` returns it: lists, not tuples or arrays)."""
    if isinstance(doc, dict) and "matrix" in doc:
        raise ParseError('matrix: the dense schema is no longer read; list the nonzero '
                         'entries as "entries": [[i, j, re, im], ...]', "matrix")
    dims = _checked_dims(doc)
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise ParseError("entries: expected an array of [i, j, re, im]", "entries")
    d = math.prod(dims)
    # the entries are checked as parsed: only the matrix is left to validate
    rho = DensityMatrix._of_entries(d, *_parse_sparse(entries, d), FILE_TOL)
    return BipartiteState(rho, *dims) if len(dims) == 2 else rho


def _write(path, data: bytes) -> None:
    """Write ``data`` to the file ``path``; ParseError when that fails."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _read_json(path):
    """The decoded JSON document in the file ``path``; ParseError when the
    file cannot be read, is not UTF-8 text or is not JSON."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
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


def load_state(path) -> DensityMatrix | BipartiteState:
    """Read and validate a state file: ``json.loads``, then ``parse_state``.

    Raises ParseError on malformed content and ValidationError when the
    matrix is not a density matrix.
    """
    return parse_state(_read_json(path))


def _dims(state) -> list:
    return [state.d_A, state.d_B] if isinstance(state, BipartiteState) else [state.dim]


def _written(state) -> tuple[np.ndarray, np.ndarray]:
    """(flat indices, values) of the entries of ``state`` the writer keeps:
    read off the state's own entries (``linalg._Stack.entries``)."""
    rho = state.rho if isinstance(state, BipartiteState) else state
    return rho._stack().entries()


def state_document(state: DensityMatrix | BipartiteState, label: str | None = None) -> dict:
    """The document ``save_state`` writes, as ``json.loads`` reads it back."""
    at, vals = _written(state)
    i, j = np.divmod(at, state.dim)
    rows = zip(i.tolist(), j.tolist(), vals.real.tolist(), vals.imag.tolist())
    doc = {"dims": _dims(state), "entries": [list(row) for row in rows]}
    if label is not None:
        doc["label"] = label
    return doc


def _state_text(state, label: str | None) -> str:
    """The text of ``state_document(state, label)`` with one entry per
    line; each distinct float (by bit pattern) is formatted once by
    ``float.__repr__``, as json.dumps formats it."""
    at, vals = _written(state)
    distinct, inverse = np.unique(vals.view(np.uint64), return_inverse=True)
    reprs = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    re, im = reprs[inverse.reshape(-1, 2)].T.tolist()
    d = state.dim
    i, j = np.divmod(at, d)
    index = list(map(str, range(d)))
    lines = [f"\n  [{index[a]}, {index[b]}, {x}, {y}]"
             for a, b, x, y in zip(i.tolist(), j.tolist(), re, im)]
    tail = "" if label is None else f',\n "label": {json.dumps(label)}'
    return f'{{\n "dims": {json.dumps(_dims(state))},\n "entries": [{",".join(lines)}\n ]{tail}\n}}\n'


def save_state(path, state, label: str | None = None) -> None:
    """Write a state file; float serialization is shortest round-trip
    (<= 17 significant digits), so read-back is bit-exact.  ParseError
    when the file cannot be written."""
    _write(path, _state_text(state, label).encode())
