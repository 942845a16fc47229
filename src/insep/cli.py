"""Command-line front end: generate, transform, and test stored operators.

Operator files are JSON::

    {
    "n_qubits": 3,
    "meta": {"generator": "ghz", "parameters": {"n": 3}},
    "entries": [
    [[re,im],[re,im],...],
    ...
    ]
    }

``entries`` is row-major with one ``[re, im]`` pair per element. Numbers are
rendered with Python ``repr`` (shortest round-trip decimal, at most 17
significant digits), which makes save -> load -> save byte-identical.

Exit codes: 0 = success (and "inseparable" for detect), 1 = inconclusive /
failed reproduce checks, 2 = error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .criteria import (
    DetectionReport,
    EigenvalueWitness,
    OffDiagonalWitness,
    Verdict,
    hamming_offdiagonal_check,
    lz_antidiagonal_check,
    map_negativity_check,
)
from .linalg import (
    MAX_QUBITS,
    TOL_PSD,
    DensityOperator,
    HermitianOperator,
    min_eigenvalue,
)
from .maps import MapKind, MapSpec, apply_product
from .reproduce import run_all
from .states import Bell, ghz, horodecki_b, isotropic, pure_superposition, random_multiseparable


class CliError(Exception):
    """User-facing failure: bad arguments, bad files, invalid operators."""


def _fmt(x: float) -> str:
    return repr(float(x))


def serialize_operator(op: HermitianOperator, meta: dict | None = None) -> str:
    rows = []
    for row in op.matrix:
        cells = ",".join(f"[{_fmt(c.real)},{_fmt(c.imag)}]" for c in row)
        rows.append(f"[{cells}]")
    meta_json = json.dumps(meta or {}, sort_keys=True, separators=(",", ":"))
    return (
        "{\n"
        f'"n_qubits": {op.n_qubits},\n'
        f'"meta": {meta_json},\n'
        '"entries": [\n' + ",\n".join(rows) + "\n]\n}\n"
    )


def save_operator(path, op: HermitianOperator, meta: dict | None = None) -> None:
    Path(path).write_text(serialize_operator(op, meta))


def _numbers_only(x) -> bool:
    """True if every leaf of the nested lists is a JSON number (not a bool)."""
    if type(x) is list:
        return all(_numbers_only(v) for v in x)
    return type(x) in (int, float)


def _has_word(text: str, word: str) -> bool:
    """Whether word occurs in text.

    Finds of the first letter run as memchr. `word in text` is about 20
    times slower on operator files, where every exponent's 'e' is a
    candidate end of "true" or "false".
    """
    i = text.find(word[0])
    while i >= 0 and not text.startswith(word, i):
        i = text.find(word[0], i + 1)
    return i >= 0


def load_operator(path) -> tuple[HermitianOperator, dict]:
    try:
        text = Path(path).read_text()
        data = json.loads(text)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    # Only a file with a true or false literal can hide a boolean among the
    # entries. The text is released before the entries become arrays, so it
    # does not add to the peak memory of a large load.
    may_hold_bool = _has_word(text, "true") or _has_word(text, "false")
    del text
    if not isinstance(data, dict):
        raise CliError(f"{path}: expected a JSON object at top level")
    for key in ("n_qubits", "entries"):
        if key not in data:
            raise CliError(f"{path}: missing required field {key!r}")
    n = data["n_qubits"]
    # A JSON true is a Python bool, which isinstance(n, int) would accept;
    # the range check comes before 1 << n, which a huge n would exhaust.
    if type(n) is not int or not 1 <= n <= MAX_QUBITS:
        raise CliError(f"{path}: n_qubits must be an integer in 1..{MAX_QUBITS}")
    entries = data["entries"]
    try:
        # dtype=float would turn "0.5", true and false into numbers. The
        # inferred dtype is U, object or bool for strings, nulls and
        # all-boolean entries, but float64 for booleans mixed with numbers,
        # which the walk catches.
        arr = np.array(entries)
        if arr.dtype.kind not in "iuf" or may_hold_bool:
            if not _numbers_only(entries):
                raise ValueError("every entry must be a JSON number")
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"{path}: entries must be an array of [re, im] pairs: {exc}") from exc
    d = 1 << n
    if arr.shape != (d, d, 2):
        raise CliError(f"{path}: entries shape {arr.shape} does not match {d}x{d} pairs")
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise CliError(f"{path}: meta must be an object")
    try:
        # An inf entry meets inf - inf in the operator's check, which rejects
        # it; numpy's warning about that would only repeat the error.
        with np.errstate(invalid="ignore"):
            op = HermitianOperator(arr[..., 0] + 1j * arr[..., 1], n)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    return op, meta


def parse_map_spec(text: str, n: int) -> MapSpec:
    """Grammar: comma-separated QUBIT:KIND entries, or the 'all:KIND' shorthand."""
    kinds = {k.value: k for k in MapKind}
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise CliError("empty map spec")
    assignments = []
    for part in parts:
        if ":" not in part:
            raise CliError(f"bad map-spec entry {part!r}; expected QUBIT:KIND")
        qs, ks = part.split(":", 1)
        ks = ks.strip().upper()
        if ks == "IDENTITY":
            ks = "I"
        if ks not in kinds:
            raise CliError(f"unknown map kind {ks!r}; choose from P, T, H, X, I")
        if qs.strip().lower() == "all":
            if len(parts) != 1:
                raise CliError("'all:KIND' cannot be combined with other entries")
            return MapSpec.all_qubits(n, kinds[ks])
        try:
            q = int(qs)
        except ValueError:
            raise CliError(f"bad qubit index {qs!r}") from None
        assignments.append((q, kinds[ks]))
    try:
        spec = MapSpec(tuple(assignments))
        spec.validate_for(n)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return spec


def _parse_params(pairs) -> dict[str, str]:
    out = {}
    for p in pairs:
        if "=" not in p:
            raise CliError(f"bad parameter {p!r}; expected key=value")
        key, value = p.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _param_float(params, key):
    if key not in params:
        raise CliError(f"missing required parameter {key}=...")
    try:
        return float(params.pop(key))
    except ValueError:
        raise CliError(f"parameter {key} must be a number") from None


def _param_int(params, key, default=None):
    if key not in params:
        if default is None:
            raise CliError(f"missing required parameter {key}=...")
        return default
    try:
        return int(params.pop(key))
    except ValueError:
        raise CliError(f"parameter {key} must be an integer") from None


def _generate(family: str, params: dict[str, str]):
    label = params.pop("label", None)
    recorded: dict = {}
    if family == "horodecki-b":
        b = _param_float(params, "b")
        op = horodecki_b(b)
        recorded = {"b": b}
    elif family == "isotropic":
        s = _param_float(params, "s")
        bell_text = params.pop("bell", "phi+")
        try:
            bell = Bell(bell_text)
        except ValueError:
            raise CliError(f"unknown bell state {bell_text!r}; choose from phi+, phi-, psi+, psi-") from None
        op = isotropic(s, bell)
        recorded = {"s": s, "bell": bell.value}
    elif family == "pure-p":
        p = _param_float(params, "p")
        op = pure_superposition(p)
        recorded = {"p": p}
    elif family == "ghz":
        n = _param_int(params, "n")
        op = ghz(n)
        recorded = {"n": n}
    elif family == "random-msep":
        n = _param_int(params, "n")
        terms = _param_int(params, "terms", default=4)
        seed = _param_int(params, "seed", default=0)
        op = random_multiseparable(n, terms, seed)
        recorded = {"n": n, "terms": terms, "seed": seed}
    else:
        raise CliError(
            f"unknown family {family!r}; choose from horodecki-b, isotropic, pure-p, ghz, random-msep"
        )
    if params:
        raise CliError(f"unexpected parameters for {family}: {', '.join(sorted(params))}")
    meta = {"generator": family, "parameters": recorded}
    if label is not None:
        meta["label"] = label
    return op, meta


def _cmd_gen(args) -> int:
    op, meta = _generate(args.family, _parse_params(args.params))
    text = serialize_operator(op, meta)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_apply(args) -> int:
    op, meta = load_operator(args.infile)
    spec = parse_map_spec(args.spec, op.n_qubits)
    out = apply_product(op, spec)
    print(f"trace {_fmt(out.trace())}")
    print(f"min-eigenvalue {_fmt(min_eigenvalue(out))}")
    if args.out:
        save_operator(args.out, out, {**meta, "applied": str(spec)})
    return 0


def _complex_str(c: complex) -> str:
    sign = "+" if c.imag >= 0 else "-"
    return f"{_fmt(c.real)}{sign}{_fmt(abs(c.imag))}j"


def _print_report(report: DetectionReport) -> None:
    print(f"verdict: {report.verdict.value}")
    print(f"criterion: {report.criterion.value}")
    if report.map_spec is not None:
        print(f"map-spec: {report.map_spec}")
    w = report.witness
    if isinstance(w, OffDiagonalWitness):
        print(f"witness-element: ({w.a}, {w.b})")
        print(f"witness-value: {_complex_str(w.value)}")
        print(f"witness-abs: {_fmt(abs(w.value))}")
        print(f"hamming-distance: {w.hamming_distance}")
        print(f"bound: {_fmt(w.bound)}")
    elif isinstance(w, EigenvalueWitness):
        print(f"min-eigenvalue: {_fmt(w.min_eigenvalue)}")
        vec = ",".join(f"[{_fmt(c.real)},{_fmt(c.imag)}]" for c in w.eigenvector)
        print(f"eigenvector: [{vec}]")


def _cmd_detect(args) -> int:
    op, _ = load_operator(args.infile)
    try:
        rho = DensityOperator(op.matrix, op.n_qubits)
    except ValueError as exc:
        raise CliError(f"{args.infile}: not a density operator: {exc}") from exc
    if args.method == "lz":
        report = lz_antidiagonal_check(rho)
    elif args.method == "hamming":
        report = hamming_offdiagonal_check(rho)
    else:
        if not args.spec:
            raise CliError("method 'map' requires --spec")
        spec = parse_map_spec(args.spec, rho.n_qubits)
        tol = TOL_PSD if args.tol is None else args.tol
        report = map_negativity_check(rho, spec, tol=tol)
    _print_report(report)
    return 0 if report.verdict is Verdict.INSEPARABLE else 1


def _cmd_eigs(args) -> int:
    op, _ = load_operator(args.infile)
    for w in np.linalg.eigvalsh(op.matrix):
        print(_fmt(w))
    return 0


def _cmd_reproduce(args) -> int:
    rows = run_all(perturb=args.perturb)
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name}: computed {r.computed}, expected {r.expected}"
        print(line)
        if r.note:
            print(f"       note: {r.note}")
    passed = sum(r.passed for r in rows)
    print(f"{passed}/{len(rows)} checks passed")
    return 0 if passed == len(rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insep",
        description="Detect n-qubit full inseparability of stored density operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a state family and write an operator file")
    gen.add_argument("family", help="horodecki-b | isotropic | pure-p | ghz | random-msep")
    gen.add_argument("params", nargs="*", help="key=value parameters, e.g. b=0.1")
    gen.add_argument("--out", help="output path (default: stdout)")
    gen.set_defaults(handler=_cmd_gen)

    apply_p = sub.add_parser("apply", help="apply a product of single-qubit maps")
    apply_p.add_argument("infile")
    apply_p.add_argument("spec", help="map spec, e.g. '2:P', '1:P,2:T' or 'all:P'")
    apply_p.add_argument("--out", help="write the mapped operator here")
    apply_p.set_defaults(handler=_cmd_apply)

    detect = sub.add_parser("detect", help="run an inseparability check")
    detect.add_argument("infile")
    detect.add_argument("method", choices=("lz", "hamming", "map"))
    detect.add_argument("--spec", help="map spec (required for method 'map')")
    detect.add_argument("--tol", type=float, help="override the negativity tolerance (exploration only)")
    detect.set_defaults(handler=_cmd_detect)

    eigs = sub.add_parser("eigs", help="print eigenvalues in ascending order")
    eigs.add_argument("infile")
    eigs.set_defaults(handler=_cmd_eigs)

    rep = sub.add_parser("reproduce", help="re-derive the closed-form reference results")
    rep.add_argument(
        "--perturb",
        type=float,
        default=0.0,
        help="harness self-test: offset every computed value by this amount",
    )
    rep.set_defaults(handler=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 means "inconclusive", so no failure may escape with Python's
        # default exit code for an uncaught exception.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
