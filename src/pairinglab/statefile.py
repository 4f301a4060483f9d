"""JSON state files: explicit [re, im] entry pairs, diffable and
bit-exact on round trip.

Schema: {"dims": [d_A, d_B] or [d], "matrix": [[[re, im], ...], ...],
"label": optional string}.
"""

from __future__ import annotations

import cmath
import json
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


def parse_state(doc: dict) -> DensityMatrix | BipartiteState:
    """Build a validated state from a decoded state-file document (as
    ``json.loads`` returns it: lists, not tuples or arrays)."""
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
    rho = DensityMatrix(_parse_matrix(rows, d), 1e-8)
    if len(dims) == 2:
        return BipartiteState(rho, dims[0], dims[1])
    return rho


def _read_json(path):
    """The decoded JSON document in the file ``path``; ParseError when the
    file cannot be read or is not JSON."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


def load_state(path) -> DensityMatrix | BipartiteState:
    """Read and validate a state file.

    Raises ParseError on malformed content and ValidationError when the
    matrix is not a density matrix.
    """
    return parse_state(_read_json(path))


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


def _state_text(state, label: str | None) -> str:
    """The bytes of json.dumps(state_document(state, label), indent=1),
    with the matrix formatted by ``_matrix_text``."""
    dims, m = _dims_and_matrix(state)
    doc = {"dims": dims, "matrix": 0}
    if label is not None:
        doc["label"] = label
    # a label's quotes are escaped, so the first match is the key itself
    head, tail = json.dumps(doc, indent=1).split('"matrix": 0', 1)
    return f'{head}"matrix": {_matrix_text(m)}{tail}'


def save_state(path, state, label: str | None = None) -> None:
    """Write a state file; float serialization is shortest round-trip
    (<= 17 significant digits), so read-back is bit-exact.  The bytes are
    those of ``json.dumps(state_document(state, label), indent=1)`` plus a
    newline."""
    Path(path).write_text(_state_text(state, label) + "\n")
