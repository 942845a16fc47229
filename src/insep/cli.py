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
significant digits), which makes save -> load -> save byte-identical. Files
are written and read as streams, a row or a block of whole rows at a time, so
neither direction holds the whole text. A file in exactly this layout has its
rows parsed as flat lists, in blocks of at most _BLOCK_NUMBERS numbers: with
their number bytes deleted the rows must be the ones the writer's template
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
from .criteria import Verdict
from .linalg import DensityOperator, HermitianOperator, _qubit_count, min_eigenvalue
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
# matches these same strings. Each row but the last ends with _ROW_SEP, the
# last with _LAST_SEP, and _TAIL closes the entries and the file.
_ENTRIES_MARK = '"entries": [\n'
_ROW_SEP = ",\n"
_LAST_SEP = "\n"
_TAIL = "]\n}\n"


def _written_pieces(op: HermitianOperator, meta: dict | None):
    """The written text in pieces: the head, then each row and its separator."""
    meta_json = json.dumps(meta or {}, sort_keys=True, separators=(",", ":"))
    yield "{\n" f'"n_qubits": {op.n_qubits},\n' f'"meta": {meta_json},\n' + _ENTRIES_MARK
    row_template = _pairs_template(op.dim)
    for i, row in enumerate(op.matrix.view(np.float64), 1):
        yield row_template % tuple(row.tolist())
        yield _ROW_SEP if i < op.dim else _LAST_SEP
    yield _TAIL


def serialize_operator(op: HermitianOperator, meta: dict | None = None) -> str:
    return "".join(_written_pieces(op, meta))


def save_operator(path, op: HermitianOperator, meta: dict | None = None) -> None:
    # Written row by row: the whole text is never held.
    with Path(path).open("w") as f:
        f.writelines(_written_pieces(op, meta))


def _numbers_only(x) -> bool:
    """True if every leaf of the nested lists is a JSON number (not a bool)."""
    if type(x) is list:
        return all(_numbers_only(v) for v in x)
    return type(x) in (int, float)


# Bytes that can make up a JSON number, and a translate table that turns
# a block of rows into one flat list: brackets and newlines made spaces.
_NUMBER_BYTES = b"0123456789.eE+-"
_FLAT = bytes(ord(" ") if c in b"[]\n" else c for c in range(256))
# The written layout's rows are read in blocks of whole rows holding at most
# this many numbers (at least one row), so memory follows the matrix, not the text.
_BLOCK_NUMBERS = 1 << 16


def _read_rows(f, d: int):
    """The (d, 2d) float entries of the rows that follow the entries mark, or None.

    Each block of k rows must be k lines that, with their number bytes
    deleted, are the rows the writer's template gives, each followed by its
    separator; it must start with "[" and end with exactly that separator,
    and no pair slot may be empty. So the block's one flat parse, which must
    give 2*d*k numbers, finds a single number in each slot: a number past a
    bracket, which the flat list cannot see, fails one of the checks.
    """
    frame = _pairs_template(d).replace("%r", "").encode()
    row_sep, last_sep = _ROW_SEP.encode(), _LAST_SEP.encode()
    step = max(1, _BLOCK_NUMBERS // (2 * d))
    out = np.empty((d, 2 * d))
    for i in range(0, d, step):
        k = min(step, d - i)
        sep = row_sep if i + k < d else last_sep
        block = bytearray().join([f.readline() for _ in range(k)])
        if block.translate(None, _NUMBER_BYTES) != row_sep.join([frame] * k) + sep:
            return None
        # rfind scans these bytes 1.3 to 2.5 times as fast as `in` (CPython 3.10-3.13).
        if block[:1] != b"[" or not block.endswith(sep) or block.rfind(b"[,") >= 0 or block.rfind(b",]") >= 0:
            return None
        block = block.translate(_FLAT)
        # "[" + the rows' numbers + "]", the separator's bytes made spaces.
        block[0], block[-len(sep)] = ord("["), ord("]")
        try:
            values = np.array(json.loads(block))
        except ValueError:
            return None
        if values.dtype.kind not in "iuf" or values.shape != (2 * d * k,):
            return None
        out[i : i + k] = values.reshape(k, 2 * d)
    return out


def _read_written_layout(path):
    """(n, entries as a (d, d, 2) float array, data) of a file in the written layout.

    Returns None for a file in any other layout, or whose head or numbers do
    not parse; _read_json_operator then reads it and gives every error. The
    file is read as a stream: the head is the lines up to the first that is
    the entries mark, decoded as Path.read_text decodes (a BOM or a bad byte
    fails its parse); then come the rows, in blocks (_read_rows), and the
    exact tail. json's own scanner parses every number, so a file read here
    gives the values the nested reader would. Neither the whole text nor a
    list of all its numbers is ever held.
    """
    mark = _ENTRIES_MARK.encode()
    try:
        # A buffer of many rows: readline makes several reads for a row longer
        # than the buffer. Reading the rows of a random n = 9 file took 10.5 ms
        # with the default 8 KiB buffer and 3.0 ms with this one (2-core Xeon VM).
        with open(path, "rb", buffering=1 << 18) as f:
            head = []
            for line in f:
                if line == mark:
                    break
                head.append(line)
            else:
                return None
            try:
                text = io.TextIOWrapper(io.BytesIO(b"".join(head)), encoding=io.text_encoding(None)).read()
                # The closing brace ends the top-level value, so data is a dict
                # and these entries are its last key, which json keeps over any
                # earlier one.
                data = json.loads(text + '"entries": []}')
            except (ValueError, RecursionError):
                return None
            del head, text
            try:
                n = _qubit_count(data.get("n_qubits"))
            except (TypeError, ValueError):
                return None
            d = 1 << n
            arr = _read_rows(f, d)
            tail = _TAIL.encode()
            if arr is None or f.read(len(tail) + 1) != tail:
                return None
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    return n, arr.reshape(d, d, 2), data


def _read_json_operator(path):
    """(n, entries as a float array, data) of any JSON operator file."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    # ValueError, JSONDecodeError's base, is also what an integer past int()'s digit limit raises.
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
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
    try:
        # Before 1 << n, which a huge n would exhaust; a JSON true is refused.
        n = _qubit_count(data["n_qubits"])
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from exc
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
        sys.stdout.writelines(_written_pieces(op, meta))
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
    print("\n".join(f"{label}: {_text(value)}" for label, value in report.lines()))
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
