"""Command-line surface: measure, detect, construct, verify, witness.

Exit codes: 0 success, 1 verification violation, 2 parse error,
3 validation failure, 4 not a canonical pairing state, 5 infeasible
parameters / unknown suite; 141 (128 + SIGPIPE) when standard output is
closed early, set by the ``pairinglab`` command and ``python -m
pairinglab`` (``__main__``), not by ``main``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import constructions, measures, pairing, statefile, verify
from .errors import (
    DimensionCapExceeded,
    Infeasible,
    NoTransposition,
    NotCanonicalPairing,
    NotQubit,
    PairingLabError,
    ParseError,
    ValidationError,
)
from .linalg import BipartiteState

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NOT_PAIRING = 4
EXIT_INFEASIBLE = 5
EXIT_BROKEN_PIPE = 141


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _json(doc: dict | list) -> str:
    """``doc`` as JSON text, one top-level member to a line.  Each member is
    ``json.dumps`` with the default separators, so the C encoder writes it
    (``indent`` would select the pure-Python one)."""
    if isinstance(doc, dict):  # a one-member dict each, so keys convert as in one dict
        members, (start, end) = [json.dumps({k: v})[1:-1] for k, v in doc.items()], "{}"
    else:
        members, (start, end) = [json.dumps(v) for v in doc], "[]"
    if not members:
        return start + end
    return f"{start}\n " + ",\n ".join(members) + f"\n{end}"


def _default_seed(args) -> int:
    """--seed, else $PAIRINGLAB_SEED, else 0; ParseError when the
    environment value is not a nonnegative integer in decimal digits."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PAIRINGLAB_SEED") or "0"
    if not env.isdecimal():  # digits alone: no sign, space or underscore
        raise ParseError(f"PAIRINGLAB_SEED must be a nonnegative integer, got {env!r}")
    return int(env)


def _check_tol(tol: float | None) -> None:
    """A --tol must be a nonnegative finite number (or absent)."""
    if tol is not None and not 0.0 <= tol < math.inf:
        raise ParseError(f"--tol must be a nonnegative finite number, got {tol}")


def cmd_measure(args) -> int:
    _check_tol(args.tol)
    state = statefile.load_state(args.path)
    rep = measures.measure_report(state, zero_tol=args.tol)
    if args.json:
        print(_json({"entries": rep.entries, "formulas": rep.formulas}))
    else:
        for name, value in rep.entries.items():
            print(f"{name:5s} = {_fmt(value)}   [{rep.formulas[name]}]")
    return EXIT_OK


def _print_cert(cert: pairing.PairingCertificate) -> None:
    print(f"pairing number: {cert.pairing_number}")
    for (j, k), (jp, kp) in cert.transpositions:
        print(f"  transposition ({j},{k}) <-> ({jp},{kp})")
    print("  fixed points: " + " ".join(f"({j},{k})" for j, k in cert.fixed_points))


def cmd_detect(args) -> int:
    _check_tol(args.tol)
    state = statefile.load_state(args.path)
    if not isinstance(state, BipartiteState):
        raise ValidationError("detect requires a bipartite state file (dims [d_A, d_B])")
    cert = pairing.detect_canonical_pairing(state, zero_tol=args.tol)
    if cert is None:
        print("not canonical pairing")
        return EXIT_NOT_PAIRING
    out = {"pairing_number": cert.pairing_number,
           "transpositions": [list(map(list, t)) for t in cert.transpositions],
           "fixed_points": [list(p) for p in cert.fixed_points]}
    if args.decompose:
        dec = pairing.qubit_qudit_decompose(state, cert=cert)
        pm, blocks = pairing.pairing_measures(dec), dec._stack
        out["p0"] = dec.p0
        # MCBlock.block_negativity of each block, read off the stack
        negativities = 2.0 * np.abs(blocks.coeffs[:, 0, 1])
        out["blocks"] = [{"weight": p, "b_columns": cols, "negativity": n} for p, cols, n in
                         zip(blocks.weights.tolist(), blocks.columns.tolist(),
                             negativities.tolist())]
        out["measures"] = {"E_D": pm.E_D, "C_D": pm.C_D, "E_C": pm.E_C,
                           "C_C": pm.C_C, "E_PPT": pm.E_PPT}
    if args.json:
        print(_json(out))
    else:
        _print_cert(cert)
        if args.decompose:
            print(f"p0 = {_fmt(out['p0'])}")
            for b in out["blocks"]:
                print(f"  block on B-columns {tuple(b['b_columns'])}: "
                      f"weight {_fmt(b['weight'])}, N = {_fmt(b['negativity'])}")
            for name, value in out["measures"].items():
                print(f"{name:5s} = {_fmt(value)}")
    return EXIT_OK


def _option(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise ParseError(f"--{name} is required for kind={args.kind}")
    return value


def _coeff_matrix(value, where: str) -> np.ndarray:
    """``value`` as a finite complex matrix; ParseError naming ``where``
    otherwise."""
    try:
        m = np.asarray(value, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: expected a matrix of numbers ({exc})") from exc
    if m.ndim != 2:
        raise ParseError(f"{where}: expected a matrix of numbers, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ParseError(f"{where}: matrix has a NaN or infinite entry")
    return m


def _mc_coeffs(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"--coeffs: invalid JSON at column {exc.colno}") from exc
    return _coeff_matrix(doc, "--coeffs")


def _real(value, where: str) -> float:
    """``value`` as a finite float; ParseError naming ``where`` otherwise."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:  # NaN fails
        raise ParseError(f"{where}: expected a finite real number, got {value!r}")
    return float(value)


def _block(b, where: str) -> tuple:
    """(p, coeffs, columns) of one block of a qubit-qudit spec file."""
    coeffs, columns = _coeff_matrix(b["coeffs"], f"{where} coeffs"), b["columns"]
    if coeffs.shape != (2, 2):
        raise ParseError(f"{where} coeffs: expected a 2x2 matrix, got shape {coeffs.shape}")
    if type(columns) is not list or [type(k) for k in columns] != [int, int]:
        raise ParseError(f"{where} columns: expected two integers, got {columns!r}")
    return _real(b["p"], f"{where} p"), coeffs, tuple(columns)


def _qubit_qudit_spec(path: str) -> tuple:
    """(p0, diag, blocks) of a JSON block file
    {"p0": p0, "diag": [...], "blocks": [{"p", "coeffs", "columns"}, ...]}."""
    doc = statefile._read_json(path)
    try:
        blocks = [_block(b, f"{path}: block {i}") for i, b in enumerate(doc.get("blocks", []))]
        diag = [_real(x, f"{path}: diag entry {i}") for i, x in enumerate(doc["diag"])]
        return _real(doc.get("p0", 0.0), f"{path}: p0"), diag, blocks
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed block spec ({exc})") from exc


def _construct_state(args):
    kind = args.kind
    if kind == "mc":
        spec = constructions.MCSpec(
            coeffs=_mc_coeffs(_option(args, "coeffs")),
            a_labels=tuple(args.a_labels),
            b_labels=tuple(args.b_labels),
        )
        bs = constructions.make_mc_state(spec, *args.dims)
        n, _ = measures.negativity(bs)
        return bs, {"N": n, "C_l1": measures.c_l1(bs.rho)}
    if kind == "qubit-qudit":
        bs = constructions.make_qubit_qudit_pairing(*_qubit_qudit_spec(_option(args, "spec")))
        cert = pairing.detect_canonical_pairing(bs)
        return bs, {"pairing_number": cert.pairing_number if cert else None}
    if kind == "cnot-embed":
        rho = statefile.load_state(_option(args, "input"))
        if isinstance(rho, BipartiteState):
            rho = rho.rho
        # the embedding holds only rho's entries, but the file it writes must
        # load, and load_state admits only dims whose dense matrix can be held
        if rho.dim ** 2 > args.dim_cap:
            raise DimensionCapExceeded(
                f"cnot-embed dimension {rho.dim ** 2} exceeds cap {args.dim_cap}")
        bs = constructions.cnot_embed(rho)
        n, _ = measures.negativity(bs)
        return bs, {"N": n, "C_l1_input": measures.c_l1(rho)}
    if kind == "appendix-a":
        if args.L < 1:
            raise ParseError(f"--L must be a positive integer, got {args.L}")
        rho = statefile.load_state(_option(args, "input"))
        if isinstance(rho, BipartiteState):
            rho = rho.rho
        chain = constructions.appendix_a_chain(rho, args.L, dim_cap=args.dim_cap)
        return chain.rho3, {"K": chain.K, **chain.report}
    if kind == "counterexample":
        if args.name == "isotropic" and not 0.0 <= _option(args, "p") <= 1.0:
            raise ParseError(f"--p must be a number in [0, 1], got {args.p}")
        ex = constructions.named_counterexample(args.name, p=args.p)
        details = {
            k: ([float(x) for x in v] if isinstance(v, np.ndarray) else v)
            for k, v in ex.details.items()
        }
        return ex.state, details
    raise Infeasible(f"unknown construction kind {kind!r}")


def cmd_construct(args) -> int:
    state, report = _construct_state(args)
    statefile.save_state(args.out, state, label=args.kind)
    sidecar = os.fspath(args.out) + ".report.json"
    try:
        statefile._write(sidecar, _json({"kind": args.kind, "report": report}).encode())
    except ParseError:
        os.remove(args.out)  # no state file without its report
        raise
    print(f"wrote {args.out} and {sidecar}")
    for key, value in report.items():
        print(f"  {key}: {value}")
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = _default_seed(args)
    if seed < 0:
        raise ParseError(f"--seed must be nonnegative, got {seed}")
    if args.trials < 0:
        raise ParseError(f"--trials must be nonnegative, got {args.trials}")
    if min(args.dims) < 1:
        raise ParseError(f"--dims must be positive, got {' '.join(map(str, args.dims))}")
    try:
        reports = verify.run_suite(args.suite, args.trials, seed, tuple(args.dims))
    except KeyError:
        print(f"unknown suite {args.suite!r}; choose from "
              + ", ".join([*verify.SUITES, "all"]), file=sys.stderr)
        return EXIT_INFEASIBLE
    if args.json:
        print(_json([r.to_dict() for r in reports]))
    else:
        for rep in reports:
            status = "ok" if rep.ok else f"{len(rep.violations)} violations"
            # the quantity that came closest to failing
            closest = max(rep.margins.items(), key=lambda kv: kv[1], default=None)
            margin = f" closest margin={closest[1]:.3e} ({closest[0]})" if closest else ""
            print(f"{rep.suite}: trials={rep.trials} seed={rep.seed} "
                  f"dims={rep.dims} worst_gap={rep.worst_gap:.3e}{margin} "
                  f"elapsed={rep.elapsed_ms:.1f}ms -> {status}")
            for v in rep.violations[:20]:
                block = "" if v.block is None else f" (block {v.block})"
                print(f"  trial {v.trial}: {v.quantity}{block} lhs={_fmt(v.lhs)} "
                      f"rhs={_fmt(v.rhs)} gap={v.gap:.3e}")
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VIOLATION


def cmd_witness(args) -> int:
    _check_tol(args.tol)
    state = statefile.load_state(args.path)
    if not isinstance(state, BipartiteState):
        raise ValidationError("witness requires a bipartite state file")
    cert = pairing.detect_canonical_pairing(state, zero_tol=args.tol)
    if cert is None:
        print("not canonical pairing")
        return EXIT_NOT_PAIRING
    n = cert.pairing_number
    if n == 0:
        print("state is separable (no transpositions); nothing to distill")
        return EXIT_NOT_PAIRING
    if args.index is not None and not 0 <= args.index < n:
        raise Infeasible(f"--index {args.index} out of range: the state has {n} "
                         f"transpositions, indices 0 to {n - 1}")
    indices = [args.index] if args.index is not None else range(n)
    block_n = pairing._witness_negativities(
        state.rho._stack(), state.d_B, np.zeros(len(indices), dtype=np.intp),
        pairing._transpositions(cert)[indices], state.rho.validation_tol)
    for i, value in zip(indices, block_n.tolist()):
        (j, k), (jp, kp) = cert.transpositions[i]
        print(f"transposition {i}: ({j},{k})<->({jp},{kp})  "
              f"block negativity = {_fmt(value)}")
    return EXIT_OK


@functools.cache  # one parser per process; its defaults are immutable
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pairinglab",
        description="Coherence/negativity measures and pairing-state structure tools",
    )
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="print coherence and negativity measures")
    m.add_argument("path")
    m.add_argument("--tol", type=float, default=None)
    m.add_argument("--json", action="store_true")
    m.set_defaults(func=cmd_measure)

    d = sub.add_parser("detect", help="certify canonical pairing structure")
    d.add_argument("path")
    d.add_argument("--tol", type=float, default=pairing.ZERO_TOL)
    d.add_argument("--decompose", action="store_true")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=cmd_detect)

    c = sub.add_parser("construct", help="build a named state and write it out")
    c.add_argument("kind", choices=["mc", "qubit-qudit", "cnot-embed", "appendix-a",
                                    "counterexample"])
    c.add_argument("--out", required=True)
    c.add_argument("--coeffs", help="JSON matrix for kind=mc")
    c.add_argument("--a-labels", type=int, nargs="+", default=())
    c.add_argument("--b-labels", type=int, nargs="+", default=())
    c.add_argument("--dims", type=int, nargs=2, default=(2, 2))
    c.add_argument("--spec", help="JSON block file for kind=qubit-qudit")
    c.add_argument("--input", help="input state file for cnot-embed / appendix-a")
    c.add_argument("--L", type=int, default=1)
    c.add_argument("--dim-cap", type=int, default=4096,
                   help="largest matrix dimension appendix-a and cnot-embed may build "
                        "(exit 5 above it)")
    c.add_argument("--name", help="counterexample name")
    c.add_argument("--p", type=float, default=None)
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="run a seeded property suite")
    v.add_argument("--suite", default="all")
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--dims", type=int, nargs=2, default=(3, 3))
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    w = sub.add_parser("witness", help="two-qubit distillation witness blocks")
    w.add_argument("path")
    w.add_argument("--index", type=int, default=None)
    w.add_argument("--tol", type=float, default=pairing.ZERO_TOL)
    w.set_defaults(func=cmd_witness)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NotCanonicalPairing, NotQubit, NoTransposition) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_PAIRING
    except PairingLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
