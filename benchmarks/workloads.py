"""The benchmark's three workloads and their output checks.

Each workload turns a seed into a fixed cycle of ops.  An op is a call
into pairinglab's public surface (``pairinglab.cli.main`` in-process, or
the public library functions); its check runs after it, outside every
timed interval, and returns a failure reason or None.  Every cycle repeats
the same inputs, so per-op counts from the traced run repeat exactly.

Each cycle holds 15 or 35 ops (a count of the form 10k + 5) so that the
median and the 90th percentile of per-op cost fall inside one op's
samples rather than on the boundary between two ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import pairinglab as pl
from pairinglab import cli, statefile

import reference

TOL = 1e-9


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``pairinglab`` command; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# -- plain-numpy oracles ------------------------------------------------------

def oracle_c_l1(m: np.ndarray) -> float:
    return float(np.abs(m).sum() - np.abs(np.diag(m)).sum())


def oracle_negativity(m: np.ndarray, d_a: int, d_b: int) -> float:
    """Trace norm of the partial transpose minus 1; the partial transpose
    is built by moving each d_B x d_B block (j, j') to position (j', j)."""
    pt = np.empty_like(m)
    for j in range(d_a):
        for jp in range(d_a):
            pt[jp * d_b:(jp + 1) * d_b, j * d_b:(j + 1) * d_b] = \
                m[j * d_b:(j + 1) * d_b, jp * d_b:(jp + 1) * d_b]
    return float(np.linalg.svd(pt, compute_uv=False).sum() - 1.0)


def _close(name: str, got: float, want: float, tol: float = TOL) -> str | None:
    if not abs(got - want) <= tol:
        return f"{name} = {got!r}, expected {want!r} within {tol:g}"
    return None


def _first(*reasons):
    return next((r for r in reasons if r), None)


# -- verify-sweep -------------------------------------------------------------

VERIFY_SUITES = ("negativity-bound", "l0-bound", "additivity", "pairing-roundtrip",
                 "witness", "majorization", "lowerbound")
# five passes over the seven suites (35 ops); 2x6 sends pairing-roundtrip
# through its decompose branch
VERIFY_DIMS = ((3, 3), (2, 6), (3, 3), (2, 6), (3, 3))
VERIFY_TRIALS = 50


def _check_verify(suite, seed, dims, result) -> str | None:
    code, out = result
    if code != 0:
        return f"exit code {code}"
    reports = json.loads(out)
    if len(reports) != 1:
        return f"{len(reports)} reports"
    rep = reports[0]
    if (rep["suite"], rep["trials"], rep["seed"], tuple(rep["dims"])) != \
            (suite, VERIFY_TRIALS, seed, dims):
        return f"report header {rep['suite']} {rep['trials']} {rep['seed']} {rep['dims']}"
    if rep["violations"]:
        return f"{len(rep['violations'])} violations"
    return None


def setup_verify_sweep(seed: int, workdir: Path) -> list[Op]:
    plan = [(dims, suite) for dims in VERIFY_DIMS for suite in VERIFY_SUITES]
    seeds = np.random.SeedSequence(seed).generate_state(len(plan))
    ops = []
    for (dims, suite), s in zip(plan, seeds.tolist()):
        argv = ["verify", "--suite", suite, "--trials", str(VERIFY_TRIALS),
                "--seed", str(s), "--dims", *map(str, dims), "--json"]
        ops.append(Op(f"verify {suite} {dims[0]}x{dims[1]}",
                      lambda argv=argv: run_cli(argv),
                      lambda r, suite=suite, s=s, dims=dims: _check_verify(suite, s, dims, r)))
    return ops


# -- certify-dense ------------------------------------------------------------

# 15 states, one of each (kind, size).  Dims run from 128 to 576: cnot_embed
# at d = 16 gives dim 256 (1 MiB, inside the 2 MiB L2), at d = 24 dim 576
# (5.3 MiB, outside it).  Pairing states carry a diagonal part; Ginibre
# states are rejected by detection.  The sizes step by about 1.3x in cost,
# so neighbouring ops overlap and the percentiles move smoothly instead of
# jumping between two ops.
CERTIFY_POOL = (
    ("cnot_embed", (12, 16, 20, 24)),
    ("pairing", (64, 96, 128, 160, 192, 224, 256)),
    ("ginibre", (12, 16, 20, 24)),
)
PAIRING_DIAG_WEIGHT = 0.3


def _certify(bs):
    rep = pl.measure_report(bs)
    cert = pl.detect_canonical_pairing(bs)
    pm = None
    if bs.d_A == 2:
        pm = pl.pairing_measures(pl.qubit_qudit_decompose(bs))
    return rep.entries, cert, pm


def _pair_count(m: np.ndarray) -> int:
    """Coherent pairs j < k above the detector's default relative cutoff."""
    upper = np.abs(m[np.triu_indices(m.shape[0], 1)])
    return int(np.count_nonzero(upper > 1e-10 * np.abs(m).max()))


class _CertifyCheck:
    """Checks one state's certify result against the paper's identities
    and an independent SVD; the oracle is computed on first use.

    ``pairing_number`` is None for a state detection must reject; ``rho``
    is the input of a cnot_embed state, whose C_l1 must equal N."""

    def __init__(self, bs, pairing_number=None, rho=None):
        self.bs, self.pairing_number, self.rho = bs, pairing_number, rho
        self.oracle = None

    def __call__(self, result) -> str | None:
        entries, cert, pm = result
        bs = self.bs
        if self.oracle is None:
            self.oracle = (oracle_negativity(bs.mat, bs.d_A, bs.d_B), oracle_c_l1(bs.mat))
            if self.rho is not None:
                self.pairing_number = _pair_count(self.rho.mat)
        n_oracle, c_l1_oracle = self.oracle
        n = entries["N"]
        reason = _first(
            _close("N vs independent SVD", n, n_oracle),
            _close("C_l1", entries["C_l1"], c_l1_oracle),
            None if n <= entries["C_l1"] + TOL else f"N = {n} > C_l1 = {entries['C_l1']}",
        )
        if reason:
            return reason
        if self.pairing_number is None:
            return None if cert is None else "non-pairing state was certified"
        if cert is None:
            return "pairing state was rejected"
        if cert.pairing_number != self.pairing_number:
            return f"pairing number {cert.pairing_number}, expected {self.pairing_number}"
        if self.rho is not None:
            reason = _close("N vs C_l1 of the embedded input", n, oracle_c_l1(self.rho.mat))
        else:
            reason = _close("N vs C_l1 on a pairing state", n, entries["C_l1"])
        if reason or pm is None:
            return reason
        return _first(
            None if pm.E_D <= pm.E_C + TOL else f"E_D = {pm.E_D} > E_C = {pm.E_C}",
            None if pm.E_D <= pm.E_PPT + TOL else f"E_D = {pm.E_D} > E_PPT = {pm.E_PPT}",
            _close("E_PPT vs log2(1 + N)", pm.E_PPT, math.log2(1.0 + n_oracle)),
        )


def setup_certify_dense(seed: int, workdir: Path) -> list[Op]:
    rng = pl.RngState(seed)
    ops = []
    for kind, sizes in CERTIFY_POOL:
        for size in sizes:
            if kind == "cnot_embed":
                rho = pl.ginibre_density(size, size, rng)
                bs = pl.cnot_embed(rho)
                check = _CertifyCheck(bs, rho=rho)
                label = f"certify cnot_embed d={size}"
            elif kind == "pairing":
                n_pairs = size // 2 - 4
                bs = pl.random_canonical_pairing(2, size, n_pairs, rng,
                                                 diag_weight=PAIRING_DIAG_WEIGHT)
                check = _CertifyCheck(bs, n_pairs)
                label = f"certify pairing 2x{size}"
            else:
                bs = pl.random_bipartite_state(size, size, rng)
                check = _CertifyCheck(bs)
                label = f"certify ginibre {size}x{size}"
            ops.append(Op(label, lambda bs=bs: _certify(bs), check))
    return ops


# -- cli-roundtrip ------------------------------------------------------------

CNOT_D = 12
QQ_D_B, QQ_BLOCKS = 64, 24
APPENDIX_FLAGS = {"K_divisible_by_L", "trace_M_below_1", "offdiag_multiset_match",
                  "rho4_is_entrywise_abs_of_rho3"}


def _qq_spec(g: np.random.Generator) -> dict:
    cols = g.permutation(QQ_D_B).tolist()
    free = cols[2 * QQ_BLOCKS:]
    p0 = float(g.uniform(0.2, 0.4))
    diag = np.zeros(2 * QQ_D_B)
    targets = [a * QQ_D_B + k for a in (0, 1) for k in free]
    diag[targets] = g.dirichlet(np.ones(len(targets)))
    weights = (1.0 - p0) * g.dirichlet(np.ones(QQ_BLOCKS))
    blocks = []
    for i, p in enumerate(weights.tolist()):
        a = float(g.uniform(0.3, 0.7))
        c = float(g.uniform(0.3, 0.95)) * math.sqrt(a * (1.0 - a))
        blocks.append({"p": p, "coeffs": [[a, c], [c, 1.0 - a]],
                       "columns": cols[2 * i:2 * i + 2]})
    return {"p0": p0, "diag": diag.tolist(), "blocks": blocks}


def _appendix_input(g: np.random.Generator) -> pl.DensityMatrix:
    """3x3 state with positive real off-diagonals (phases are L=1 roots)."""
    psi = g.uniform(0.2, 1.0, 3)
    psi /= np.linalg.norm(psi)
    t = float(g.uniform(0.3, 0.9))
    return pl.DensityMatrix(t * np.outer(psi, psi) + (1.0 - t) * np.eye(3) / 3)


class CliRoundtrip:
    """Construct commands write state files; measure, detect and witness
    read them back.  The expected states are rebuilt in-process on first
    check; later cycles compare file bytes with the verified first write."""

    def __init__(self, seed: int, workdir: Path):
        g = np.random.Generator(np.random.Philox(seed))
        self.path = {name: str(workdir / f"{name}.json") for name in
                     ("in_cnot", "in_appa", "qq_spec", "cnot", "qq", "appa", "iso")}
        rng = pl.RngState(int(g.integers(2**31)))
        self.in_cnot = pl.ginibre_density(CNOT_D, CNOT_D, rng)
        self.in_appa = _appendix_input(g)
        self.spec = _qq_spec(g)
        self.p_iso = float(g.uniform(0.2, 0.9))
        statefile.save_state(self.path["in_cnot"], self.in_cnot)
        statefile.save_state(self.path["in_appa"], self.in_appa)
        Path(self.path["qq_spec"]).write_text(json.dumps(self.spec))
        self.expected = {}
        self.digest = {}

    def expected_state(self, name: str):
        """(state, pairing number or None) that the file ``name`` holds."""
        if name not in self.expected:
            if name == "cnot":
                self.expected[name] = (pl.cnot_embed(self.in_cnot), _pair_count(self.in_cnot.mat))
            elif name == "qq":
                blocks = [(b["p"], np.asarray(b["coeffs"], dtype=complex), tuple(b["columns"]))
                          for b in self.spec["blocks"]]
                state = pl.make_qubit_qudit_pairing(self.spec["p0"], self.spec["diag"], blocks)
                self.expected[name] = (state, QQ_BLOCKS)
            elif name == "appa":
                self.expected[name] = (pl.appendix_a_chain(self.in_appa, 1).rho3, None)
            elif name == "iso":
                self.expected[name] = (pl.named_counterexample("isotropic", p=self.p_iso).state, None)
            else:
                self.expected[name] = (self.in_cnot, None)
        return self.expected[name]

    # -- checks ----------------------------------------------------------
    def check_construct(self, name: str, result) -> str | None:
        code, _ = result
        if code != 0:
            return f"exit code {code}"
        data = Path(self.path[name]).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if name not in self.digest:
            want, _ = self.expected_state(name)
            got = statefile.load_state(self.path[name])
            if type(got) is not type(want) or got.mat.shape != want.mat.shape \
                    or not np.array_equal(got.mat, want.mat):
                return f"{name}: reloaded state differs from the constructed state"
            self.digest[name] = digest
        elif digest != self.digest[name]:
            return f"{name}: file bytes changed between cycles"
        report = json.loads(Path(self.path[name] + ".report.json").read_text())["report"]
        if name == "appa":
            flags = {k: v for k, v in report.items() if isinstance(v, bool)}
            if not APPENDIX_FLAGS <= flags.keys() or not all(flags.values()):
                return f"appendix-a flags {flags}"
        elif name == "cnot":
            return _close("N vs C_l1 of the input", report["N"], report["C_l1_input"])
        elif name == "qq":
            if report["pairing_number"] != QQ_BLOCKS:
                return f"pairing number {report['pairing_number']}"
        elif report["N"] > report["C_l1"] + TOL:
            return f"N = {report['N']} > C_l1 = {report['C_l1']}"
        return None

    def check_measure(self, name: str, result) -> str | None:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        e = json.loads(out)["entries"]
        state, pairs = self.expected_state(name)
        reason = _first(
            _close("C_l1", e["C_l1"], oracle_c_l1(state.mat)),
            _close("C_L", e["C_L"], math.log2(1.0 + e["C_l1"])),
        )
        if reason or "N" not in e:
            return reason
        if pairs is not None:
            return _close("N vs C_l1 on a pairing state", e["N"], e["C_l1"])
        return None if e["N"] <= e["C_l1"] + TOL else f"N = {e['N']} > C_l1"

    def check_detect(self, name: str, decompose: bool, result) -> str | None:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(out)
        _, pairs = self.expected_state(name)
        if doc["pairing_number"] != pairs:
            return f"pairing number {doc['pairing_number']}, expected {pairs}"
        if not decompose:
            return None
        ms = doc["measures"]
        return _first(
            None if len(doc["blocks"]) == pairs else f"{len(doc['blocks'])} blocks",
            _close("p0", doc["p0"], self.spec["p0"]),
            None if ms["E_D"] <= ms["E_C"] + TOL else "E_D > E_C",
            None if ms["E_D"] <= ms["E_PPT"] + TOL else "E_D > E_PPT",
        )

    def check_witness(self, name: str, result) -> str | None:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        _, pairs = self.expected_state(name)
        lines = [ln for ln in out.splitlines() if ln.startswith("transposition")]
        values = [float(ln.rsplit("=", 1)[1]) for ln in lines]
        if len(values) != pairs or not all(v > 1e-6 for v in values):
            return f"{len(values)} witness blocks, expected {pairs} with N > 0"
        return None

    def ops(self) -> list[Op]:
        p = self.path

        def op(label, argv, check):
            return Op(label, lambda: run_cli(argv), check)

        def construct(name, *args):
            return op(f"construct {args[0]}", ["construct", *args, "--out", p[name]],
                      lambda r: self.check_construct(name, r))

        def measure(name):
            return op(f"measure {name}", ["measure", "--json", p[name]],
                      lambda r: self.check_measure(name, r))

        def detect(name, decompose=False):
            flags = ["--decompose"] if decompose else []
            return op(f"detect{' --decompose' if decompose else ''} {name}",
                      ["detect", *flags, "--json", p[name]],
                      lambda r: self.check_detect(name, decompose, r))

        def witness(name):
            return op(f"witness {name}", ["witness", p[name]],
                      lambda r: self.check_witness(name, r))

        return [
            construct("cnot", "cnot-embed", "--input", p["in_cnot"]),
            measure("cnot"), detect("cnot"), witness("cnot"),
            construct("qq", "qubit-qudit", "--spec", p["qq_spec"]),
            measure("qq"), detect("qq"), detect("qq", decompose=True), witness("qq"),
            construct("appa", "appendix-a", "--input", p["in_appa"], "--L", "1"),
            measure("appa"),
            construct("iso", "counterexample", "--name", "isotropic", "--p", repr(self.p_iso)),
            measure("iso"), measure("in_cnot"),
            # a second read of the 289-dim file: sorted by cost, the 90th
            # percentile then falls inside the two appendix-a reads
            measure("appa"),
        ]


def setup_cli_roundtrip(seed: int, workdir: Path) -> list[Op]:
    return CliRoundtrip(seed, workdir).ops()


WORKLOADS = {
    "verify-sweep": setup_verify_sweep,
    "certify-dense": setup_certify_dense,
    "cli-roundtrip": setup_cli_roundtrip,
}

# The reference kernel each workload's op costs are measured in: small
# matrices and interpreted Python for the two workloads made of many small
# calls, one dense decomposition for the dense one.
REFERENCE = {
    "verify-sweep": reference.small_matrices,
    "certify-dense": reference.dense_matrix,
    "cli-roundtrip": reference.small_matrices,
}
