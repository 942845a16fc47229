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
significant digits), which makes save -> load -> save byte-identical. A file
in exactly this layout is read with its entries parsed as one flat list: with
their number bytes deleted the entries must be the rows the writer's template
gives, with no [re, im] slot empty. Any other JSON file is read as nested
lists, to the same values and errors.

A ``detect --tol`` must be finite and at least TOL_PSD (1e-9).

Exit codes: 0 = success (and "inseparable" for detect), 1 = inconclusive /
failed reproduce checks, 2 = error.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import criteria, states
from .criteria import DetectionReport, Verdict
from .linalg import (
    MAX_QUBITS,
    DensityOperator,
    HermitianOperator,
    min_eigenvalue,
)
from .maps import MapKind, MapSpec, apply_product
from .reproduce import run_all
from .states import Bell


class CliError(Exception):
    """User-facing failure: bad arguments, bad files, invalid operators."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _pairs_template(count: int) -> str:
    """A %-template for a list of `count` [re,im] pairs.

    Filled with the Python floats of a complex128 array's float64 view
    (re, im, re, im, ...); %r of a float is its repr, the text _fmt gives.
    """
    return "[" + ",".join(["[%r,%r]"] * count) + "]"


# The written layout ends with the entries, one row a line; the reader
# matches these same strings.
_ENTRIES_MARK = '"entries": [\n'
_ROW_SEP = ",\n"
_ENTRIES_END = "\n]\n}\n"


def serialize_operator(op: HermitianOperator, meta: dict | None = None) -> str:
    meta_json = json.dumps(meta or {}, sort_keys=True, separators=(",", ":"))
    row_template = _pairs_template(op.dim)
    # One join over head, rows and separators: joining the rows first and
    # then adding head and tail would copy the whole text once more.
    parts = [
        "{\n"
        f'"n_qubits": {op.n_qubits},\n'
        f'"meta": {meta_json},\n' + _ENTRIES_MARK
    ]
    for row in op.matrix.view(np.float64):
        parts.append(row_template % tuple(row.tolist()))
        parts.append(_ROW_SEP)
    parts[-1] = _ENTRIES_END
    return "".join(parts)


def save_operator(path, op: HermitianOperator, meta: dict | None = None) -> None:
    Path(path).write_text(serialize_operator(op, meta))


def _numbers_only(x) -> bool:
    """True if every leaf of the nested lists is a JSON number (not a bool)."""
    if type(x) is list:
        return all(_numbers_only(v) for v in x)
    return type(x) in (int, float)


# Bytes that can make up a JSON number, and a translate table that turns
# the entries into one flat list: brackets and newlines made spaces.
_NUMBER_BYTES = b"0123456789.eE+-"
_FLAT = bytes(ord(" ") if c in b"[]\n" else c for c in range(256))


def _read_written_layout(path):
    """(n, entries as a (d, d, 2) float array, data) of a file in the written layout.

    Returns None for a file in any other layout, or whose head or numbers do
    not parse; _read_json_operator then reads it and gives every error. The
    head is decoded as Path.read_text decodes (a BOM or a bad byte fails its
    parse), and json's own scanner parses every number, so a file read here
    gives the values the nested reader would. The entries are parsed as one
    flat JSON list, not as d*d pair lists, after the raw bytes are released.
    """
    mark, end = _ENTRIES_MARK.encode(), _ENTRIES_END.encode()
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    cut = raw.rfind(mark)
    start = cut + len(mark)
    if cut < 0 or not raw.endswith(end, start):
        return None
    try:
        head = io.TextIOWrapper(io.BytesIO(raw[:cut]), encoding=io.text_encoding(None)).read()
        # The closing brace ends the top-level value, so data is a dict and
        # these entries are its last key, which json keeps over any earlier one.
        data = json.loads(head + '"entries": []}')
    except (ValueError, RecursionError):
        return None
    n = data.get("n_qubits")
    if type(n) is not int or not 1 <= n <= MAX_QUBITS:
        return None
    d = 1 << n
    # "\n" + entries + "\n", then "[" + flat entries + "]".
    flat = bytearray(memoryview(raw)[start - 1 : len(raw) - len(end) + 1])
    del raw
    # Without its numbers the text must be the written rows, and no pair slot
    # may be empty, so the flat parse's one number between two commas sits in
    # its slot, not past a bracket, which the flat list cannot see. rfind
    # scans these bytes 1.3 to 2.5 times as fast as `in` (CPython 3.10-3.13).
    frame = _pairs_template(d).replace("%r", "").encode()
    if flat.translate(None, _NUMBER_BYTES) != b"\n%s\n" % _ROW_SEP.encode().join([frame] * d):
        return None
    if flat.rfind(b"[,") >= 0 or flat.rfind(b",]") >= 0:
        return None
    flat = flat.translate(_FLAT)
    flat[0], flat[-1] = ord("["), ord("]")
    text = flat.decode("ascii")
    del flat
    try:
        values = json.loads(text)
    except ValueError:
        return None
    del text
    arr = np.array(values)
    del values
    if arr.dtype.kind not in "iuf":
        return None
    return n, arr.astype(float, copy=False).reshape(d, d, 2), data


def _read_json_operator(path):
    """(n, entries as a float array, data) of any JSON operator file."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    # Only a file with a true or false literal can hide a boolean among the
    # entries. The text is released before the entries become arrays, so it
    # does not add to the peak memory of a large load.
    may_hold_bool = "true" in text or "false" in text
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
    return n, arr, data


def load_operator(path) -> tuple[HermitianOperator, dict]:
    n, arr, data = _read_written_layout(path) or _read_json_operator(path)
    d = 1 << n
    if arr.shape != (d, d, 2):
        raise CliError(f"{path}: entries shape {arr.shape} does not match {d}x{d} pairs")
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise CliError(f"{path}: meta must be an object")
    try:
        # The complex view keeps each pair's exact bits, -0.0 included.
        return HermitianOperator(np.ascontiguousarray(arr).view(np.complex128)[..., 0], n), meta
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _parse(text: str, kind, error: str):
    """kind(text) for ASCII text without '_'; CliError(error) otherwise.

    int() and float() also read digit-group underscores and non-ASCII
    digits ('1_0' as 10, an Arabic-Indic three as 3), so a typo would
    quietly name a number the user never wrote.
    """
    if text.isascii() and "_" not in text:
        try:
            return kind(text)
        except ValueError:
            pass
    raise CliError(error)


def parse_map_spec(text: str, n: int) -> MapSpec:
    """Grammar: comma-separated QUBIT:KIND entries, or the 'all:KIND' shorthand."""
    kinds = {k.value: k for k in MapKind} | {k.name: k for k in MapKind}
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise CliError("empty map spec")
    assignments = []
    for part in parts:
        if ":" not in part:
            raise CliError(f"bad map-spec entry {part!r}; expected QUBIT:KIND")
        qs, ks = part.split(":", 1)
        ks = ks.strip()
        if ks.isascii():  # str.upper would also turn a dotless 'ı' into 'I'
            ks = ks.upper()
        if ks not in kinds:
            raise CliError(f"unknown map kind {ks!r}; choose from {', '.join(k.value for k in MapKind)}")
        if qs.strip().lower() == "all":
            if len(parts) != 1:
                raise CliError("'all:KIND' cannot be combined with other entries")
            return MapSpec.all_qubits(n, kinds[ks])
        assignments.append((_parse(qs, int, f"bad qubit index {qs!r}"), kinds[ks]))
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
        key = key.strip()
        if key in out:
            raise CliError(f"parameter {key} given more than once")
        out[key] = value.strip()
    return out


# Each family's builder, named in insep.states, and its keyword parameters in
# reading order, as (name, parser, default text); a None default makes one required.
_FAMILIES = {
    "horodecki-b": ("horodecki_b", [("b", float, None)]),
    "isotropic": ("isotropic", [("s", float, None), ("bell", Bell, "phi+")]),
    "pure-p": ("pure_superposition", [("p", float, None)]),
    "ghz": ("ghz", [("n", int, None)]),
    "random-msep": ("random_multiseparable", [("n", int, None), ("terms", int, "4"), ("seed", int, "0")]),
}
_PARSE_ERRORS = {
    float: "parameter {key} must be a number",
    int: "parameter {key} must be an integer",
    Bell: "unknown bell state {text!r}; choose from " + ", ".join(b.value for b in Bell),
}


def _generate(family: str, params: dict[str, str]):
    label = params.pop("label", None)
    if family not in _FAMILIES:
        raise CliError(f"unknown family {family!r}; choose from {', '.join(_FAMILIES)}")
    builder, signature = _FAMILIES[family]
    values = {}
    for key, kind, default in signature:
        text = params.pop(key, default)
        if text is None:
            raise CliError(f"missing required parameter {key}=...")
        values[key] = _parse(text, kind, _PARSE_ERRORS[kind].format(key=key, text=text))
    # The builder's own range errors come before the unexpected-parameter one.
    op = getattr(states, builder)(**values)
    if params:
        raise CliError(f"unexpected parameters for {family}: {', '.join(sorted(params))}")
    recorded = {k: v.value if isinstance(v, Bell) else v for k, v in values.items()}
    meta = {"generator": family, "parameters": recorded}
    if label is not None:
        meta["label"] = label
    return op, meta


def _cmd_gen(args) -> int:
    op, meta = _generate(args.family, _parse_params(args.params))
    if args.out:
        save_operator(args.out, op, meta)
    else:
        sys.stdout.write(serialize_operator(op, meta))
    return 0


def _cmd_apply(args) -> int:
    op, meta = load_operator(args.infile)
    spec = parse_map_spec(args.spec, op.n_qubits)
    out = apply_product(op, spec)
    # Written first, so a path that cannot be written prints no result.
    if args.out:
        save_operator(args.out, out, {**meta, "applied": str(spec)})
    print(f"trace {_fmt(out.trace())}")
    print(f"min-eigenvalue {_fmt(min_eigenvalue(out))}")
    return 0


def _text(value) -> str:
    """A report value as detect prints it."""
    if isinstance(value, np.ndarray):  # complex128
        return _pairs_template(value.size) % tuple(value.view(np.float64).tolist())
    if isinstance(value, complex):
        sign = "+" if value.imag >= 0 else "-"
        return f"{_fmt(value.real)}{sign}{_fmt(abs(value.imag))}j"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _print_report(report: DetectionReport) -> None:
    lines = [("verdict", report.verdict.value), ("criterion", report.criterion.value)]
    if report.map_spec is not None:
        lines.append(("map-spec", report.map_spec))
    if report.witness is not None:
        lines += report.witness.lines()
    for label, value in lines:
        print(f"{label}: {_text(value)}")


# Each detect method's check, named in insep.criteria, and whether it takes --spec and --tol.
# Checks and builders are named so a wrapper on their module's attribute sees each call.
_METHODS = {
    "lz": ("lz_antidiagonal_check", False),
    "hamming": ("hamming_offdiagonal_check", False),
    "map": ("map_negativity_check", True),
}
_SPEC_METHODS = " or ".join(repr(m) for m, (_, takes_spec) in _METHODS.items() if takes_spec)


def _cmd_detect(args) -> int:
    check, takes_spec = _METHODS[args.method]
    for flag, value in (("--spec", args.spec), ("--tol", args.tol)):
        if not takes_spec and value is not None:
            raise CliError(f"{flag} applies only to method {_SPEC_METHODS}, not {args.method!r}")
    op, _ = load_operator(args.infile)
    try:
        rho = DensityOperator(op)
    except ValueError as exc:
        raise CliError(f"{args.infile}: not a density operator: {exc}") from exc
    options = ()
    if takes_spec:
        if not args.spec:
            raise CliError(f"method {args.method!r} requires --spec")
        spec = parse_map_spec(args.spec, rho.n_qubits)
        options = (spec,) if args.tol is None else (spec, _parse(args.tol, float, "tolerance must be a number"))
    report = getattr(criteria, check)(rho, *options)
    _print_report(report)
    return 0 if report.verdict is Verdict.INSEPARABLE else 1


def _cmd_eigs(args) -> int:
    op, _ = load_operator(args.infile)
    print("\n".join(map(repr, np.linalg.eigvalsh(op.matrix).tolist())))
    return 0


def _cmd_reproduce(args) -> int:
    rows = run_all(perturb=_parse(args.perturb, float, "--perturb must be a number"))
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name}: computed {r.computed}, expected {r.expected}"
        print(line)
        if r.note:
            print(f"       note: {r.note}")
    passed = sum(r.passed for r in rows)
    print(f"{passed}/{len(rows)} checks passed")
    return 0 if passed == len(rows) else 1


class _ArgumentParser(argparse.ArgumentParser):
    """argparse, reading a negative number in exponent form as a value.

    argparse takes a token that starts with '-' for an option unless it
    matches the parser's negative-number pattern, which on some Python
    versions (3.11 among them) lacks the exponent form: `--perturb -1e-3`
    would exit 2 with "expected one argument" while `--perturb -0.001`
    runs. The pattern gains that one form; every other token parses as
    before. Subparsers are built with the parent's class, so they gain it too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            self._negative_number_matcher.pattern + r"|^-(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][-+]?[0-9]+$"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="insep",
        description="Detect n-qubit full inseparability of stored density operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a state family and write an operator file")
    gen.add_argument("family", help=" | ".join(_FAMILIES))
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
    detect.add_argument("method", choices=_METHODS)
    detect.add_argument("--spec", help=f"map spec (required for method {_SPEC_METHODS})")
    # A type= callable's CliError would escape main's try: --tol and --perturb are parsed by their handlers.
    detect.add_argument("--tol", help="override the negativity tolerance (exploration only)")
    detect.set_defaults(handler=_cmd_detect)

    eigs = sub.add_parser("eigs", help="print eigenvalues in ascending order")
    eigs.add_argument("infile")
    eigs.set_defaults(handler=_cmd_eigs)

    rep = sub.add_parser("reproduce", help="re-derive the closed-form reference results")
    rep.add_argument(
        "--perturb",
        default="0",
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
