"""Reference kernels: fixed work, independent of pairinglab, timed between
the benchmark's ops.

The host's speed drifts by up to 1.8x over seconds to tens of seconds.
Dividing an op's wall time by the time of a reference kernel that the drift
slows in the same way cancels most of it.  Each workload uses the kernel
whose work resembles its own (see ``workloads.REFERENCE``).

Both kernels call the ``eigvalsh`` bound here at import, before a traced
run can wrap numpy's, so tracing never changes their cost.
"""

import json
import time

import numpy as np

_EIGVALSH = np.linalg.eigvalsh
_RNG = np.random.default_rng(0)
_SMALL = [_RNG.standard_normal((d, d)) + 1j * _RNG.standard_normal((d, d)) for d in (4, 6, 9, 12)]
_DENSE = _RNG.standard_normal((160, 160)) + 1j * _RNG.standard_normal((160, 160))
_DENSE = _DENSE @ _DENSE.conj().T


def small_matrices() -> None:
    """Small complex matrices through numpy and LAPACK, then interpreted
    Python that allocates: about 5 ms on the machine in README.md."""
    for _ in range(15):
        for m in _SMALL:
            h = m @ m.conj().T
            h = h / np.trace(h).real
            _EIGVALSH(h)
            float(np.abs(h).sum() - np.abs(np.diag(h)).sum())
    table = {str(i): [i, i * 0.5, (i, "x")] for i in range(900)}
    json.loads(json.dumps(table))
    sorted(table, key=lambda k: table[k][1])


def dense_matrix() -> None:
    """One 160-dim Hermitian matrix copied, diagonalised and summed: about
    3.5 ms on the machine in README.md."""
    h = _DENSE.copy()
    _EIGVALSH(h)
    float(np.abs(h).sum())


def seconds(kernel) -> float:
    """Wall time of one run of ``kernel``."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
