import inspect
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from insep import DensityOperator, HermitianOperator, cli, criteria, reproduce, states
from insep.cli import load_operator, main, parse_map_spec, save_operator, serialize_operator, CliError
from insep.maps import MapKind, MapSpec, apply_product
from insep.states import Bell, random_multiseparable


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    assert main(["gen", "ghz", "n=2", "--out", str(path)]) == 0
    return path


# ---------------------------------------------------------------- operator files

def test_gen_writes_valid_json_with_schema(tmp_path, bell_file):
    data = json.loads(bell_file.read_text())
    assert data["n_qubits"] == 2
    assert data["meta"] == {"generator": "ghz", "parameters": {"n": 2}}
    assert len(data["entries"]) == 4
    assert all(len(row) == 4 and all(len(cell) == 2 for cell in row) for row in data["entries"])


def test_save_load_save_is_byte_identical(tmp_path):
    path = tmp_path / "hb.json"
    assert main(["gen", "horodecki-b", "b=0.1", "--out", str(path)]) == 0
    original = path.read_bytes()
    op, meta = load_operator(path)
    assert serialize_operator(op, meta).encode() == original


def test_h_map_file_with_negative_zeros_round_trips(tmp_path, bell_file):
    # The H map negates zeros, so this file holds [-0.0,-0.0] pairs; each
    # must load with the sign of both parts, in either reader.
    path = tmp_path / "h.json"
    assert main(["apply", str(bell_file), "1:H", "--out", str(path)]) == 0
    original = path.read_bytes()
    assert b"[-0.0,-0.0]" in original
    op, meta = load_operator(path)
    assert serialize_operator(op, meta).encode() == original
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps(json.loads(original), indent=1))
    again, _ = load_operator(nested)
    assert again.matrix.view(np.int64).tolist() == op.matrix.view(np.int64).tolist()


def test_gen_to_stdout(capsys):
    assert main(["gen", "ghz", "n=2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_qubits"] == 2


def test_gen_horodecki_known_entry(tmp_path):
    path = tmp_path / "hb.json"
    assert main(["gen", "horodecki-b", "b=0.1", "--out", str(path)]) == 0
    op, _ = load_operator(path)
    assert op.matrix[7, 4].real == pytest.approx(math.sqrt(0.99) / 3.4, abs=1e-14)


def test_gen_isotropic_bell_projector(tmp_path, bell_file):
    path = tmp_path / "iso.json"
    assert main(["gen", "isotropic", "s=0", "bell=phi+", "--out", str(path)]) == 0
    op, _ = load_operator(path)
    bell, _ = load_operator(bell_file)
    assert np.max(np.abs(op.matrix - bell.matrix)) <= 1e-15


def test_gen_records_label_in_meta(tmp_path):
    path = tmp_path / "labeled.json"
    assert main(["gen", "ghz", "n=3", "label=fixture", "--out", str(path)]) == 0
    _, meta = load_operator(path)
    assert meta["label"] == "fixture"


def test_gen_random_msep_is_seed_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "random-msep", "n=3", "terms=3", "seed=9", "--out", str(a)]) == 0
    assert main(["gen", "random-msep", "n=3", "terms=3", "seed=9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "nosuch", "b=0.1"],
        ["gen", "horodecki-b"],
        ["gen", "horodecki-b", "b=oops"],
        ["gen", "horodecki-b", "b=0.1", "extra=1"],
        ["gen", "horodecki-b", "0.1"],
        ["gen", "isotropic", "s=0", "bell=sigma+"],
        ["gen", "pure-p", "p=2"],
    ],
)
def test_gen_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
def test_gen_isotropic_non_finite_s_is_one_error_line(capsys, s):
    assert main(["gen", "isotropic", f"s={s}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: s must be finite, got {s}"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("family, key", [("horodecki-b", "b"), ("pure-p", "p")])
def test_gen_non_finite_b_or_p_is_one_error_line(capsys, family, key, value):
    assert main(["gen", family, f"{key}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {key} must be finite, got {value}"]


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_gen_out_of_range_seed_names_the_parameter(capsys, seed):
    assert main(["gen", "random-msep", "n=3", f"seed={seed}"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: seed must be an integer in 0..2**128 - 1, got {seed}"
    ]


# The gen grammar, each case with its exit code and either the file's "meta"
# line (exit 0) or the stderr line after "error: " (exit 2).
_GEN_CORPUS = [
    (["horodecki-b", "b=0.1"], 0, '"meta": {"generator":"horodecki-b","parameters":{"b":0.1}},'),
    (["horodecki-b", "b=0.1", "label=x"], 0, '"meta": {"generator":"horodecki-b","label":"x","parameters":{"b":0.1}},'),
    (["horodecki-b", "b=1e-1"], 0, '"meta": {"generator":"horodecki-b","parameters":{"b":0.1}},'),
    (["horodecki-b", "b= 0.3 "], 0, '"meta": {"generator":"horodecki-b","parameters":{"b":0.3}},'),
    (["isotropic", "s=0"], 0, '"meta": {"generator":"isotropic","parameters":{"bell":"phi+","s":0.0}},'),
    (["isotropic", "s=2", "bell=psi-"], 0, '"meta": {"generator":"isotropic","parameters":{"bell":"psi-","s":2.0}},'),
    (["isotropic", "s=-5", "bell=phi-", "label=iso"], 0, '"meta": {"generator":"isotropic","label":"iso","parameters":{"bell":"phi-","s":-5.0}},'),
    (["isotropic", "s=1", "bell=psi+"], 0, '"meta": {"generator":"isotropic","parameters":{"bell":"psi+","s":1.0}},'),
    (["pure-p", "p=0.25"], 0, '"meta": {"generator":"pure-p","parameters":{"p":0.25}},'),
    (["pure-p", "p=+0.5"], 0, '"meta": {"generator":"pure-p","parameters":{"p":0.5}},'),
    (["ghz", "n=2"], 0, '"meta": {"generator":"ghz","parameters":{"n":2}},'),
    (["ghz", "n=3", "label=g"], 0, '"meta": {"generator":"ghz","label":"g","parameters":{"n":3}},'),
    (["ghz", "n=+3"], 0, '"meta": {"generator":"ghz","parameters":{"n":3}},'),
    (["random-msep", "n=2"], 0, '"meta": {"generator":"random-msep","parameters":{"n":2,"seed":0,"terms":4}},'),
    (["random-msep", "n=2", "terms=2", "seed=5"], 0, '"meta": {"generator":"random-msep","parameters":{"n":2,"seed":5,"terms":2}},'),
    (["random-msep", "n=1", "seed=3", "label=r"], 0, '"meta": {"generator":"random-msep","label":"r","parameters":{"n":1,"seed":3,"terms":4}},'),
    (["random-msep", "seed=3", "n=2", "terms=1"], 0, '"meta": {"generator":"random-msep","parameters":{"n":2,"seed":3,"terms":1}},'),
    (["nosuch", "b=0.1"], 2, "unknown family 'nosuch'; choose from horodecki-b, isotropic, pure-p, ghz, random-msep"),
    (["nosuch", "x"], 2, "bad parameter 'x'; expected key=value"),
    (["horodecki-b"], 2, "missing required parameter b=..."),
    (["horodecki-b", "b=oops"], 2, "parameter b must be a number"),
    (["horodecki-b", "b=0.1", "extra=1"], 2, "unexpected parameters for horodecki-b: extra"),
    (["horodecki-b", "0.1"], 2, "bad parameter '0.1'; expected key=value"),
    (["horodecki-b", "b=0"], 2, "b must be in (0, 1), got 0.0"),
    (["isotropic"], 2, "missing required parameter s=..."),
    (["isotropic", "s=-1"], 2, "s must satisfy s <= -4 or s >= 0, got -1.0"),
    (["isotropic", "s=0", "bell=sigma+"], 2, "unknown bell state 'sigma+'; choose from phi+, phi-, psi+, psi-"),
    (["isotropic", "s=x", "bell=sigma+"], 2, "parameter s must be a number"),
    (["pure-p", "p=2"], 2, "p must be in (0, 1), got 2.0"),
    # The builder runs before leftover parameters are reported.
    (["pure-p", "p=2", "extra=1"], 2, "p must be in (0, 1), got 2.0"),
    (["ghz"], 2, "missing required parameter n=..."),
    (["ghz", "n=1"], 2, "GHZ needs at least 2 qubits, got 1"),
    (["ghz", "n=2.5"], 2, "parameter n must be an integer"),
    (["ghz", "n=13"], 2, "n_qubits 13 is outside 1..12"),
    (["ghz", "n=2", "zeta=1", "alpha=2"], 2, "unexpected parameters for ghz: alpha, zeta"),
    (["random-msep"], 2, "missing required parameter n=..."),
    (["random-msep", "n=2", "terms=0"], 2, "terms 0 is outside 1..inf"),
    (["random-msep", "n=2", "terms=x"], 2, "parameter terms must be an integer"),
    (["random-msep", "n=0"], 2, "n_qubits 0 is outside 1..12"),
    (["random-msep", "n=x", "terms=0"], 2, "parameter n must be an integer"),
    # Numbers are ASCII without digit-group underscores, and no parameter
    # may be given twice; each of these once wrote a file.
    (["ghz", "n=1_0"], 2, "parameter n must be an integer"),
    (["pure-p", "p=0.1_5"], 2, "parameter p must be a number"),
    (["ghz", "n=٣"], 2, "parameter n must be an integer"),
    (["horodecki-b", "b=0.1", "b=0.5"], 2, "parameter b given more than once"),
    (["ghz", "n=3", "label=a", "label=b"], 2, "parameter label given more than once"),
]


@pytest.mark.parametrize("params, code, line", _GEN_CORPUS, ids=[" ".join(c[0]) for c in _GEN_CORPUS])
def test_gen_grammar(capsys, params, code, line):
    assert main(["gen", *params]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "" and out.splitlines()[2] == line
    else:
        assert (out, err) == ("", f"error: {line}\n")


def test_gen_names_come_from_the_family_table_and_enums(capsys):
    families = list(cli._FAMILIES)
    assert families == ["horodecki-b", "isotropic", "pure-p", "ghz", "random-msep"]
    with pytest.raises(SystemExit):
        main(["gen", "--help"])
    assert " | ".join(families) in capsys.readouterr().out
    for builder, signature in cli._FAMILIES.values():
        assert [key for key, _, _ in signature] == list(inspect.signature(getattr(states, builder)).parameters)
    for argv, kind, names in [
        (["gen", "nosuch"], "family 'nosuch'", families),
        (["gen", "isotropic", "s=0", "bell=x"], "bell state 'x'", [b.value for b in Bell]),
    ]:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: unknown {kind}; choose from {', '.join(names)}\n"
    with pytest.raises(CliError) as exc:
        parse_map_spec("1:Q", 2)
    assert str(exc.value) == "unknown map kind 'Q'; choose from " + ", ".join(k.value for k in MapKind)


def test_load_rejects_malformed_files(tmp_path, capsys):
    # Each file is refused by load_operator and by main with its exact line.
    written = serialize_operator(DensityOperator(np.eye(2) / 2)).replace('"meta": {},', '"meta": 3,')
    entries = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    cases = [
        ("array.json", "[]", "expected a JSON object at top level"),
        # The written layout, read by the flat reader.
        ("flat-meta.json", written, "meta must be an object"),
        # One line, read by the nested reader.
        ("nested-meta.json", json.dumps({"n_qubits": 1, "meta": [], "entries": entries}), "meta must be an object"),
    ]
    for name, text, error in cases:
        path = tmp_path / name
        path.write_text(text)
        assert (cli._read_written_layout(path) is not None) == (name == "flat-meta.json")
        with pytest.raises(CliError) as exc:
            load_operator(path)
        assert str(exc.value) == f"{path}: {error}"
        assert main(["detect", str(path), "lz"]) == 2
        assert capsys.readouterr().err == f"error: {path}: {error}\n"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CliError):
        load_operator(bad)
    bad.write_text(json.dumps({"n_qubits": 2}))
    with pytest.raises(CliError, match="entries"):
        load_operator(bad)
    bad.write_text(json.dumps({"n_qubits": 2, "entries": [[[0, 0]]]}))
    with pytest.raises(CliError, match="shape"):
        load_operator(bad)
    # hermiticity violation
    entries = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    bad.write_text(json.dumps({"n_qubits": 1, "entries": entries}))
    with pytest.raises(CliError, match="Hermitian"):
        load_operator(bad)
    with pytest.raises(CliError, match="cannot read"):
        load_operator(tmp_path / "missing.json")


@pytest.mark.parametrize("n", [True, 0, -3, 13, 10**8])
def test_load_rejects_n_qubits_out_of_range(tmp_path, capsys, n):
    path = tmp_path / "bad.json"
    entries = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    path.write_text(json.dumps({"n_qubits": n, "entries": entries}))
    rule = "must be an integer, got True" if n is True else f"{n} is outside 1..12"
    message = f"{path}: n_qubits {rule}"
    with pytest.raises(CliError) as exc:
        load_operator(path)
    assert str(exc.value) == message
    assert main(["detect", str(path), "lz"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "cell",
    ['["0.5", 0]', '[" 0.5 ", 0]', '["5e-1", 0]', '[null, 0]', '[{}, 0]'],
)
def test_entries_that_are_not_numbers_exit_2(tmp_path, capsys, cell):
    # dtype=float conversion would read these strings as numbers.
    path = tmp_path / "bad.json"
    rows = f'[[{cell}, [0, 0]], [[0, 0], [0.5, 0]]]'
    path.write_text('{"n_qubits": 1, "entries": ' + rows + "}")
    for args in (["eigs"], ["detect", "lz"]):
        assert main([args[0], str(path), *args[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: entries must be an array of [re, im] pairs")


@pytest.mark.parametrize(
    "rows",
    [
        "[[[0.5, true], [0, 0]], [[0, 0], [0.5, 0.0]]]",
        "[[[0.5, false], [0, 0]], [[0, 0], [0.5, 0.0]]]",
        "[[[true, false], [false, false]], [[false, false], [true, false]]]",
    ],
)
def test_booleans_exit_2(tmp_path, capsys, rows):
    # Booleans mixed with numbers infer float64, unlike all-boolean entries.
    path = tmp_path / "bad.json"
    path.write_text('{"n_qubits": 1, "entries": ' + rows + "}")
    assert main(["eigs", str(path)]) == 2
    assert "entries must be an array of [re, im] pairs" in capsys.readouterr().err


def test_boolean_in_meta_and_integer_entries_load(tmp_path):
    path = tmp_path / "ok.json"
    rows = "[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]"
    path.write_text('{"n_qubits": 1, "meta": {"flag": true}, "entries": ' + rows + "}")
    op, meta = load_operator(path)
    assert meta == {"flag": True}
    assert np.array_equal(op.matrix, np.diag([1.0, 0.0]).astype(complex))


def _write_entries(path, entries):
    # json.dumps writes NaN and Infinity literals, which json.loads accepts.
    path.write_text(json.dumps({"n_qubits": 1, "entries": entries}))


# No numpy warning may come before the one-line error.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
@pytest.mark.parametrize(
    "args",
    [["detect", "lz"], ["detect", "hamming"], ["detect", "map", "--spec", "1:P"], ["eigs"]],
)
def test_non_finite_entries_exit_2(tmp_path, capsys, bad, where, args):
    entries = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    a, b = where
    entries[a][b] = [bad, 0.0]
    path = tmp_path / "bad.json"
    _write_entries(path, entries)
    assert main([args[0], str(path), *args[1:]]) == 2
    assert "NaN or infinite" in capsys.readouterr().err


def test_apply_out_writes_nothing_for_non_finite_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    _write_entries(path, [[[0.5, 0.0], [math.nan, 0.0]], [[math.nan, 0.0], [0.5, 0.0]]])
    out_path = tmp_path / "out.json"
    assert main(["apply", str(path), "1:P", "--out", str(out_path)]) == 2
    assert "NaN or infinite" in capsys.readouterr().err
    assert not out_path.exists()


def test_apply_out_to_a_missing_directory_prints_no_result(tmp_path, bell_file, capsys):
    out_path = tmp_path / "missing" / "out.json"
    assert main(["apply", str(bell_file), "1:P", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert not out_path.exists()


@pytest.mark.parametrize("args", [["eigs"], ["detect", "lz"]])
def test_unreadable_and_too_deep_files_name_the_path(tmp_path, capsys, args):
    bad_byte = tmp_path / "bad_byte.json"
    bad_byte.write_bytes(b'{"n_qubits": 1, "meta": {"x\xff": 1}, "entries": [[[1,0],[0,0]],[[0,0],[0,0]]]}')
    deep = tmp_path / "deep.json"
    deep.write_text('{"n_qubits": 1, "entries": ' + "[" * 3000 + "]" * 3000 + "}")
    # json.loads raises a plain ValueError for an integer of more than 4300
    # digits, which was printed without the file's name. The written layout
    # of big_entry falls back to the nested reader.
    huge = "9" * 5000
    with pytest.raises(ValueError) as limit:
        json.loads(huge)
    big_count = tmp_path / "big_count.json"
    big_count.write_text('{"n_qubits": ' + huge + ', "entries": []}')
    big_entry = tmp_path / "big_entry.json"
    big_entry.write_text(serialize_operator(states.ghz(2)).replace("[[0.0,", f"[[{huge},", 1))
    for path, message in [
        (bad_byte, f"cannot read {bad_byte}: 'utf-8' codec can't decode byte 0xff in position 27: invalid start byte"),
        (deep, f"{deep} is not valid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
        (big_count, f"{big_count} is not valid JSON: {limit.value}"),
        (big_entry, f"{big_entry} is not valid JSON: {limit.value}"),
    ]:
        assert main([args[0], str(path), *args[1:]]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _written_layout(real_rows):
    # serialize_operator's layout for a real 2x2 matrix, Hermitian or not.
    rows = ",\n".join("[" + ",".join(f"[{float(x)!r},0.0]" for x in row) + "]" for row in real_rows)
    return '{\n"n_qubits": 1,\n"meta": {},\n"entries": [\n' + rows + "\n]\n}\n"


@pytest.mark.parametrize("method", [["lz"], ["map", "--spec", "1:P"]])
@pytest.mark.parametrize("layout", ["written", "json.dumps"])
@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[0.5, 1.0], [0.0, 0.5]], "matrix is not Hermitian (max deviation 1.000e+00)"),
        ([[1.0, 0.0], [0.0, 1.0]], "not a density operator: trace 2.0 is not 1 within 1e-10"),
        ([[1.5, 0.0], [0.0, -0.5]], "not a density operator: minimum eigenvalue -5.000e-01 is below -1e-09"),
    ],
)
def test_detect_rejects_files_that_are_not_states(tmp_path, capsys, method, layout, matrix, message):
    path = tmp_path / "bad.json"
    if layout == "written":
        path.write_text(_written_layout(matrix))
    else:
        _write_entries(path, [[[x, 0.0] for x in row] for row in matrix])
    assert main(["detect", str(path), *method]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


# ---------------------------------------------------------------- the reader's two paths

def _load_result(path):
    try:
        op, meta = load_operator(path)
    except CliError as exc:
        return str(exc)
    return op.matrix.tobytes(), repr(meta)


def _gen_files(tmp_path):
    runs = [
        ["horodecki-b", "b=0.1", "label=fixture"],
        ["isotropic", "s=0.5", "bell=psi-"],
        ["pure-p", "p=0.3", "label=a b"],
        ["ghz", "n=3"],
        ["random-msep", "n=2", "terms=2", "seed=5", "label=r"],
    ]
    paths = []
    for i, argv in enumerate(runs):
        path = tmp_path / f"gen{i}.json"
        assert main(["gen", *argv, "--out", str(path)]) == 0
        paths.append(path)
    return paths


def test_written_files_take_the_flat_path(tmp_path, monkeypatch, capsys):
    def no_fallback(path):
        raise AssertionError(f"{path} fell back to the nested reader")

    monkeypatch.setattr(cli, "_read_json_operator", no_fallback)
    paths = _gen_files(tmp_path)
    for n in (4, 6):
        for family in (["ghz", f"n={n}"], ["random-msep", f"n={n}", "seed=2"]):
            paths.append(tmp_path / f"{family[0]}{n}.json")
            assert main(["gen", *family, "--out", str(paths[-1])]) == 0
    for path in list(paths):
        out = path.with_suffix(".applied.json")
        assert main(["apply", str(path), "all:P", "--out", str(out)]) == 0
        paths.append(out)
    capsys.readouterr()
    for path in paths:
        op, meta = load_operator(path)
        assert serialize_operator(op, meta).encode() == path.read_bytes()


_FUZZ_ALPHABET = b'0123456789.eE+-,[]\n "tN{}:'
_LONG_INTEGER = "7" * 400


def _whole_file_cases(text):
    head, sep, rest = text.partition('"entries": [\n')
    rows = rest[: -len("\n]\n}\n")]
    deep = "[" * 3000 + "]" * 3000
    return [
        text.replace("\n", "\r\n").encode(),
        b"\xef\xbb\xbf" + text.encode(),
        (head + '"entries": [\n[[1,0],[0,0]],\n[[0,0],[0,0]]\n],\n' + sep + rest).encode(),
        (head + '"entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],\n"meta": {"entries": [[0]]},\n' + sep + rest).encode(),
        (head.replace('"meta": {', '"meta": {"entries": [\n' + rows + '\n],') + sep + rest).encode(),
        ('{\n"n_qubits": 1,\n"meta": {"entries": [\n' + rows + "\n]\n}\n").encode(),
        text.encode() + b" ",
        text.replace("}\n", "} \n").encode(),
        (head.replace('"meta": {', '"meta": {"deep": ' + deep + ",") + sep + rest).encode(),
        (head + '"entries": [\n' + rows.replace("]", "]\n", 1) + "\n]\n}\n").encode(),
    ]


def _token_cases(text):
    # Each token in place of the first real part, and of the first imaginary part.
    tokens = ["-0", "-0.0", "01", "+1", ".5", "5.", "1E+05", "1e-400", _LONG_INTEGER, "NaN", "Infinity", "-Infinity", "1e400"]
    head, sep, rest = text.partition('"entries": [\n[[')
    real, comma, rest = rest.partition(",")
    imag, bracket, rest = rest.partition("]")
    cases = []
    for token in tokens:
        cases.append((head + sep + token + comma + imag + bracket + rest).encode())
        cases.append((head + sep + real + comma + token + bracket + rest).encode())
    return cases


def _entries_edits(raw):
    # A digit or a "-" inserted, a byte deleted, and two neighbours swapped,
    # at every position of the entries.
    start = raw.index(b'"entries": [\n') + len(b'"entries": [\n')
    stop = len(raw) - len(b"\n]\n}\n")
    cases = []
    for at in range(start, stop + 1):
        cases += [raw[:at] + b"7" + raw[at:], raw[:at] + b"-" + raw[at:]]
        if at < stop:
            cases.append(raw[:at] + raw[at + 1 :])
        if at + 1 < stop:
            cases.append(raw[:at] + raw[at + 1 : at + 2] + raw[at : at + 1] + raw[at + 2 :])
    return cases


def test_flat_reader_matches_the_nested_reader(tmp_path, monkeypatch):
    # Every case must give the same matrix bytes (signed zeros included) and
    # meta as the nested JSON reader, or the same error.
    rng = np.random.default_rng(20240917)
    originals = [p.read_bytes() for p in _gen_files(tmp_path)]
    originals.append(_written_layout([[1.0, 0.0], [0.0, 0.0]]).encode())
    cases = []
    for raw in originals:
        cases.append(raw)
        cases += _whole_file_cases(raw.decode())
        cases += _token_cases(raw.decode())
    # One-byte edits of an n = 1 and an n = 2 written file, and of the layout
    # with one-digit numbers, which a swap moves whole out of its pair.
    n1 = tmp_path / "n1.json"
    assert main(["gen", "random-msep", "n=1", "seed=2", "--out", str(n1)]) == 0
    for raw in (n1.read_bytes(), originals[0], originals[-1].replace(b".0", b"")):
        cases += _entries_edits(raw)
    for _ in range(3000):
        data = bytearray(originals[rng.integers(len(originals))])
        for _ in range(rng.integers(1, 4)):
            at = int(rng.integers(len(data)))
            byte = _FUZZ_ALPHABET[rng.integers(len(_FUZZ_ALPHABET))]
            kind = rng.integers(3)
            if kind == 0:
                data[at] = byte
            elif kind == 1:
                data.insert(at, byte)
            else:
                del data[at]
        cases.append(bytes(data))
    path = tmp_path / "case.json"
    flat_reads = 0
    for raw in cases:
        path.write_bytes(raw)
        flat_reads += cli._read_written_layout(path) is not None
        got = _load_result(path)
        with monkeypatch.context() as m:
            m.setattr(cli, "_read_written_layout", lambda path: None)
            want = _load_result(path)
        assert got == want, raw
    # Both paths ran: the fast path read some mutated files as well.
    assert len(originals) < flat_reads < len(cases)


# ---------------------------------------------------------------- writer

def _per_cell_serialize(op, meta=None):
    # The writer as first written: one f-string per numpy complex element.
    rows = []
    for row in op.matrix:
        cells = ",".join(f"[{repr(float(c.real))},{repr(float(c.imag))}]" for c in row)
        rows.append(f"[{cells}]")
    meta_json = json.dumps(meta or {}, sort_keys=True, separators=(",", ":"))
    return (
        "{\n"
        f'"n_qubits": {op.n_qubits},\n'
        f'"meta": {meta_json},\n'
        '"entries": [\n' + ",\n".join(rows) + "\n]\n}\n"
    )


# Signed zeros, subnormals, the smallest normal, where repr switches to and
# from exponent form, the largest float and a classic shortest-repr case.
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 9999999999999998.0,
    1e-05, 0.0001, 1.7976931348623157e308, 0.30000000000000004, 1.0,
]
_EDGE_FLOATS += [-x for x in _EDGE_FLOATS if x]


def test_writer_matches_per_cell_formatter_on_edge_values():
    for re in _EDGE_FLOATS:
        for im in _EDGE_FLOATS:
            m = np.array(
                [[complex(re, -0.0), complex(re, im)], [complex(re, -im), complex(im, 0.0)]]
            )
            op = HermitianOperator(m, 1)
            assert serialize_operator(op, {"re": re}) == _per_cell_serialize(op, {"re": re})


def test_writer_matches_per_cell_formatter_on_seeded_matrices():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        d = 1 << n
        for _ in range(30):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a *= 10.0 ** rng.integers(-30, 30, (d, d))
            op = HermitianOperator(a + a.conj().T, n)
            assert serialize_operator(op) == _per_cell_serialize(op)


@pytest.mark.parametrize(
    "family, params",
    [
        ("horodecki-b", {"b": "0.1", "label": "fixture"}),
        ("isotropic", {"s": "0.5", "bell": "psi-"}),
        ("isotropic", {"s": "-5", "bell": "phi-", "label": "x \"y\" \u00fc"}),
        ("pure-p", {"p": "0.3"}),
        ("ghz", {"n": "4", "label": ""}),
        ("random-msep", {"n": "3", "terms": "2", "seed": "5"}),
    ],
)
def test_gen_writes_the_per_cell_text(tmp_path, family, params):
    op, meta = cli._generate(family, dict(params))
    path = tmp_path / "out.json"
    assert main(["gen", family, *(f"{k}={v}" for k, v in params.items()), "--out", str(path)]) == 0
    assert path.read_text() == _per_cell_serialize(op, meta)


def test_apply_out_writes_the_per_cell_text(tmp_path):
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    assert main(["gen", "random-msep", "n=3", "seed=4", "label=m", "--out", str(src)]) == 0
    assert main(["apply", str(src), "all:P", "--out", str(out)]) == 0
    op, meta = load_operator(src)
    spec = parse_map_spec("all:P", 3)
    expected = _per_cell_serialize(apply_product(op, spec), {**meta, "applied": str(spec)})
    assert out.read_text() == expected


def test_writer_peak_memory_is_about_twice_the_text():
    # Joining the rows and then adding head and tail would hold three copies
    # of the text at the peak; one join over all the parts holds two.
    op = random_multiseparable(8, 4, 0)
    tracemalloc.start()
    try:
        text = serialize_operator(op, {"generator": "random-msep"})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


# ---------------------------------------------------------------- map specs

def test_parse_map_spec_grammar():
    assert parse_map_spec("1:P,2:T", 2) == MapSpec(((1, MapKind.P), (2, MapKind.T)))
    assert parse_map_spec("all:P", 3) == MapSpec.all_qubits(3, MapKind.P)
    assert parse_map_spec("1:Identity", 2) == MapSpec(((1, MapKind.IDENTITY),))
    assert parse_map_spec("2:p", 2) == MapSpec(((2, MapKind.P),))
    assert parse_map_spec(" +1 :T", 2) == MapSpec(((1, MapKind.T),))
    bad_specs = ("", "1", "1:Q", "x:P", "1:P,1:T", "3:P", "all:P,2:T", "1_0:P", "٣:P", "1:ı", "1:ß", "all:ıdentity")
    for bad in bad_specs:
        with pytest.raises(CliError):
            parse_map_spec(bad, 2)
    # str.upper would read a dotless i as I and ß as SS; non-ASCII kinds are reported as typed.
    for bad in ("ı", "ß"):
        with pytest.raises(CliError, match=f"^unknown map kind '{bad}'; choose from P, T, H, X, I$"):
            parse_map_spec(f"1:{bad}", 2)
    # int() would read these as qubits 10 and 3, both in range here.
    for bad in ("1_0", "٣"):
        with pytest.raises(CliError, match=f"^bad qubit index '{bad}'$"):
            parse_map_spec(f"{bad}:P", 12)


_SPEC_ALPHABET = "0123456789,:aAlLpPtThHxXiI _-"


def _random_text(rng, chars, longest):
    return "".join(rng.choice(list(chars), size=rng.integers(0, longest + 1)))


def _random_spec_text(rng):
    # Half fully random; half one or two QUBIT:KIND entries, mostly well formed.
    if rng.integers(2):
        return _random_text(rng, _SPEC_ALPHABET, 12)
    entries = []
    for _ in range(rng.integers(1, 3)):
        qubit = [
            str(rng.integers(1, 4)),
            str(rng.integers(0, 14)),
            "".join(c.upper() if rng.integers(2) else c for c in "all"),
            _random_text(rng, _SPEC_ALPHABET, 3),
        ]
        kind = [str(rng.choice(list("pPtThHxXiI"))), _random_text(rng, _SPEC_ALPHABET, 2)]
        entries.append(qubit[max(rng.integers(6) - 2, 0)] + ":" + kind[int(rng.integers(4) == 0)])
    return ",".join(entries)


def test_parse_map_spec_fuzz(tmp_path, capsys):
    # Every string parses to a spec of distinct qubits in 1..n or raises
    # CliError. Through detect it exits 0, 1 or 2, with one plain error line
    # on 2, and never calls a product state inseparable.
    rng = np.random.default_rng(20261019)
    ghz3, product3 = tmp_path / "ghz3.json", tmp_path / "product3.json"
    assert main(["gen", "ghz", "n=3", "--out", str(ghz3)]) == 0
    assert main(["gen", "random-msep", "n=3", "terms=1", "seed=4", "--out", str(product3)]) == 0
    capsys.readouterr()
    parsed = 0
    codes = set()
    for i in range(2000):
        text = _random_spec_text(rng)
        n = int(rng.integers(1, 13))
        try:
            spec = parse_map_spec(text, n)
        except CliError:
            pass
        else:
            parsed += 1
            qubits = [q for q, _ in spec.assignments]
            assert len(set(qubits)) == len(qubits) and all(1 <= q <= n for q in qubits), text
        if i % 10:
            continue
        for path in (ghz3, product3):
            code = main(["detect", str(path), "map", f"--spec={text}"])
            out, err = capsys.readouterr()
            codes.add(code)
            assert code in ((0, 1, 2) if path == ghz3 else (1, 2)), text
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (text, err)
                assert err.count("error:") == 1 and not re.match(r"error: \w+: ", err), (text, err)
    assert 0 < parsed < 2000 and codes == {0, 1, 2}


# ---------------------------------------------------------------- apply

def test_apply_prints_trace_and_min_eigenvalue(bell_file, capsys):
    assert main(["apply", str(bell_file), "2:P"]) == 0
    out = capsys.readouterr().out.splitlines()
    trace = float(out[0].split()[1])
    low = float(out[1].split()[1])
    assert trace == pytest.approx(1.0, abs=1e-12)
    assert low == pytest.approx(-0.25, abs=1e-12)


def test_apply_all_p_on_half_superposition(tmp_path, capsys):
    path = tmp_path / "pure.json"
    assert main(["gen", "pure-p", "p=0.5", "--out", str(path)]) == 0
    assert main(["apply", str(path), "all:P"]) == 0
    low = float(capsys.readouterr().out.splitlines()[1].split()[1])
    assert low == pytest.approx(-0.25, abs=1e-12)


def test_apply_identity_keeps_operator(tmp_path, bell_file, capsys):
    out_path = tmp_path / "same.json"
    assert main(["apply", str(bell_file), "1:Identity", "--out", str(out_path)]) == 0
    capsys.readouterr()
    before, _ = load_operator(bell_file)
    after, meta = load_operator(out_path)
    assert np.array_equal(before.matrix, after.matrix)
    assert meta["applied"] == "1:I"


def test_apply_bad_spec_exits_2(bell_file, capsys):
    assert main(["apply", str(bell_file), "5:P"]) == 2
    assert capsys.readouterr().err == "error: qubit index 5 is outside 1..2\n"


# ---------------------------------------------------------------- detect

def test_detect_hamming_on_b_family(tmp_path, capsys):
    path = tmp_path / "hb.json"
    main(["gen", "horodecki-b", "b=0.1", "--out", str(path)])
    code = main(["detect", str(path), "hamming"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: inseparable" in out
    assert "witness-element: (7, 4)" in out
    assert "bound: 0.25" in out


def test_detect_lz_inconclusive_exits_1(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    save_operator(path, DensityOperator(np.eye(8) / 8))
    assert main(["detect", str(path), "lz"]) == 1
    assert "verdict: inconclusive" in capsys.readouterr().out


def test_detect_map_respects_ppt_control(tmp_path, capsys):
    path = tmp_path / "hb.json"
    main(["gen", "horodecki-b", "b=0.5", "--out", str(path)])
    assert main(["detect", str(path), "map", "--spec", "1:T"]) == 1
    out = capsys.readouterr().out
    assert "verdict: inconclusive" in out
    assert "map-spec: 1:T" in out


def test_detect_map_reports_eigenvalue_witness(bell_file, capsys):
    assert main(["detect", str(bell_file), "map", "--spec", "2:P"]) == 0
    out = capsys.readouterr().out
    assert "criterion: map-negativity" in out
    low = float(next(l.split()[1] for l in out.splitlines() if l.startswith("min-eigenvalue")))
    assert low == pytest.approx(-0.25, abs=1e-12)


def test_detect_map_prints_the_pinned_eigenvector_line(tmp_path, capsys):
    path = tmp_path / "ghz3.json"
    assert main(["gen", "ghz", "n=3", "--out", str(path)]) == 0
    assert main(["detect", str(path), "map", "--spec", "all:P"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "min-eigenvalue: -0.3749999999999999",
        "eigenvector: [[-0.7071067811865475,0.0],[0.0,0.0],[0.0,0.0],[0.0,0.0],"
        "[0.0,0.0],[0.0,0.0],[0.0,0.0],[0.7071067811865475,0.0]]",
    ]


def test_detect_tol_override_relaxes_verdict(tmp_path, capsys):
    path = tmp_path / "iso.json"
    main(["gen", "isotropic", "s=0.99", "--out", str(path)])
    assert main(["detect", str(path), "map", "--spec", "2:P"]) == 0
    assert main(["detect", str(path), "map", "--spec", "2:P", "--tol", "0.01"]) == 1


# float() would read "1_0", "١" and "0.0_1" as 10, 1 and 0.01 and run the
# check. A value given as "=VALUE" is passed as --tol=VALUE; a negative value
# in exponent form reaches the range check in both forms.
@pytest.mark.parametrize("tol", ["-1", "0", "1e-10", "nan", "inf", "1_0", "١", "0.0_1", "=-1e-3", "-1e-3"])
def test_detect_rejects_bad_tol(tmp_path, capsys, tol):
    path = tmp_path / "product.json"
    main(["gen", "random-msep", "n=2", "terms=1", "seed=3", "--out", str(path)])
    tol_args = ["--tol" + tol] if tol.startswith("=") else ["--tol", tol]
    assert main(["detect", str(path), "map", "--spec", "1:I", *tol_args]) == 2
    captured = capsys.readouterr()
    assert "verdict" not in captured.out
    assert "tolerance" in captured.err


def test_detect_tol_below_tol_psd_exits_2_on_a_product_state(tmp_path, capsys):
    # On |+>|+> every map spec below gives eigensolver rounding of -2.5e-16,
    # which --tol 0 would report as an inseparable witness.
    path = tmp_path / "plus.json"
    save_operator(path, HermitianOperator(np.full((4, 4), 0.25 + 0j), 2))
    for spec in ("1:T", "1:P", "all:P", "all:T"):
        assert main(["detect", str(path), "map", "--spec", spec, "--tol", "0"]) == 2
        assert main(["detect", str(path), "map", "--spec", spec]) == 1
    assert "inseparable" not in capsys.readouterr().out


@pytest.mark.parametrize("spec", ["1:ı", "1:ß", "all:ı"])
def test_detect_rejects_non_ascii_map_kinds(tmp_path, capsys, spec):
    path = tmp_path / "ghz3.json"
    main(["gen", "ghz", "n=3", "--out", str(path)])
    capsys.readouterr()
    assert main(["detect", str(path), "map", "--spec", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown map kind")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", [["--spec", "1:P"], ["--tol", "-5"], ["--tol", "0.01"]])
@pytest.mark.parametrize("method", ["lz", "hamming"])
def test_detect_rejects_map_flags_for_other_methods(tmp_path, capsys, method, flag):
    path = tmp_path / "ghz3.json"
    main(["gen", "ghz", "n=3", "--out", str(path)])
    assert main(["detect", str(path), method, *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag[0]} applies only to method 'map', not {method!r}\n"


def test_detect_methods_come_from_the_method_table(capsys):
    assert list(cli._METHODS) == ["lz", "hamming", "map"]
    assert all(callable(getattr(criteria, check)) for check, _ in cli._METHODS.values())
    with pytest.raises(SystemExit):
        main(["detect", "--help"])
    out = capsys.readouterr().out
    assert "{lz,hamming,map}" in out
    assert "map spec (required for method 'map')" in out


def _phased_ghz3_file(path):
    # (|000> - i|111>)/sqrt(2): its (7, 0) element is -0.5i, with a -0.0 real part.
    v = np.zeros(8, dtype=complex)
    v[0], v[7] = 1 / np.sqrt(2), -1j / np.sqrt(2)
    save_operator(path, HermitianOperator(np.outer(v, v.conj()), 3))


_FULL_REPORTS = [
    (["ghz", "n=3"], ["lz"], 0, [
        "verdict: inseparable",
        "criterion: lz-antidiagonal",
        "witness-element: (7, 0)",
        "witness-value: 0.4999999999999999+0.0j",
        "witness-abs: 0.4999999999999999",
        "hamming-distance: 3",
        "bound: 0.125",
    ]),
    (None, ["lz"], 0, [
        "verdict: inseparable",
        "criterion: lz-antidiagonal",
        "witness-element: (7, 0)",
        "witness-value: -0.0-0.4999999999999999j",
        "witness-abs: 0.4999999999999999",
        "hamming-distance: 3",
        "bound: 0.125",
    ]),
    (["horodecki-b", "b=0.1"], ["hamming"], 0, [
        "verdict: inseparable",
        "criterion: hamming-offdiagonal",
        "witness-element: (7, 4)",
        "witness-value: 0.2926433638548882+0.0j",
        "witness-abs: 0.2926433638548882",
        "hamming-distance: 2",
        "bound: 0.25",
    ]),
    (["horodecki-b", "b=0.5"], ["map", "--spec", "1:T"], 1, [
        "verdict: inconclusive",
        "criterion: map-negativity",
        "map-spec: 1:T",
    ]),
]


@pytest.mark.parametrize(
    "family, method, code, lines", _FULL_REPORTS, ids=["ghz3-lz", "phased-ghz3-lz", "b0.1-hamming", "b0.5-map-1T"]
)
def test_detect_prints_the_pinned_report(tmp_path, capsys, family, method, code, lines):
    path = tmp_path / "state.json"
    if family is None:
        _phased_ghz3_file(path)
    else:
        assert main(["gen", *family, "--out", str(path)]) == 0
    assert main(["detect", str(path), *method]) == code
    assert capsys.readouterr() == ("\n".join(lines) + "\n", "")


@pytest.mark.parametrize(
    "module, name, argv",
    [
        (criteria, "lz_antidiagonal_check", ["lz"]),
        (criteria, "hamming_offdiagonal_check", ["hamming"]),
        (criteria, "map_negativity_check", ["map", "--spec", "2:P"]),
        (states, "random_multiseparable", None),
    ],
    ids=["lz", "hamming", "map", "gen-random-msep"],
)
def test_checks_and_builders_are_looked_up_when_they_run(bell_file, capsys, monkeypatch, module, name, argv):
    # A wrapper put on the module's attribute after import sees each call.
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    argv = ["gen", "random-msep", "n=2"] if argv is None else ["detect", str(bell_file), *argv]
    assert main(argv) == 0
    assert calls == [name]
    capsys.readouterr()


def test_detect_hamming_answers_beyond_eight_qubits(tmp_path, capsys):
    path = tmp_path / "ghz9.json"
    main(["gen", "ghz", "n=9", "--out", str(path)])
    assert main(["detect", str(path), "hamming"]) == 0
    out = capsys.readouterr().out
    assert "verdict: inseparable" in out
    assert "witness-element: (511, 0)" in out


@pytest.mark.parametrize(
    "exc, message",
    [
        # LinAlgError is a ValueError, so it takes the ordinary error path.
        (np.linalg.LinAlgError("Eigenvalues did not converge"), "error: Eigenvalues did not converge"),
        (IndexError("index 4 is out of bounds"), "error: IndexError: index 4 is out of bounds"),
        (RuntimeError("boom"), "error: RuntimeError: boom"),
    ],
)
def test_unexpected_exception_exits_2(bell_file, capsys, monkeypatch, exc, message):
    def broken(rho):
        raise exc

    monkeypatch.setattr(criteria, "lz_antidiagonal_check", broken)
    assert main(["detect", str(bell_file), "lz"]) == 2
    assert capsys.readouterr().err.splitlines() == [message]


def test_detect_requires_spec_for_map(bell_file, capsys):
    assert main(["detect", str(bell_file), "map"]) == 2
    assert "requires --spec" in capsys.readouterr().err


def test_detect_rejects_non_density_input(tmp_path, bell_file, capsys):
    mapped = tmp_path / "mapped.json"
    main(["apply", str(bell_file), "2:T", "--out", str(mapped)])
    capsys.readouterr()
    assert main(["detect", str(mapped), "hamming"]) == 2
    assert "not a density operator" in capsys.readouterr().err


def test_detect_missing_file_exits_2(tmp_path, capsys):
    assert main(["detect", str(tmp_path / "nope.json"), "lz"]) == 2


# ---------------------------------------------------------------- eigs

def test_eigs_prints_ascending(bell_file, capsys):
    assert main(["eigs", str(bell_file)]) == 0
    values = [float(line) for line in capsys.readouterr().out.splitlines()]
    assert values == sorted(values)
    assert values == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-12)


def test_eigs_prints_the_pinned_lines(tmp_path, capsys):
    path = tmp_path / "r2.json"
    assert main(["gen", "random-msep", "n=2", "--out", str(path)]) == 0
    assert main(["eigs", str(path)]) == 0
    assert capsys.readouterr().out == (
        "0.11423602961404462\n0.15247744987094874\n0.29593516650378077\n0.4373513540112259\n"
    )


# ---------------------------------------------------------------- usage errors

def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2


# ---------------------------------------------------------------- reproduce

def test_reproduce_reports_only_the_known_discrepancy(capsys):
    code = main(["reproduce"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    fails = [i for i, line in enumerate(lines) if line.startswith("[FAIL]")]
    assert code == 1
    assert len(fails) == 1
    # the quoted constant stays in reproduce and its row keeps failing with
    # this message; the acceptance test for criterion 1 asserts b* instead
    assert lines[fails[0]] == "[FAIL] b-family verdict at b=0.14: computed inseparable, expected inconclusive"
    note = lines[fails[0] + 1]
    assert note.lstrip().startswith("note:")
    assert "(sqrt(57)-7)/4 ~= 0.1374586" in note
    assert "0.1400416" in note
    assert lines[-1] == "44/45 checks passed"


def test_run_all_calls_the_module_checks_in_criterion_order(monkeypatch):
    # check k is acceptance criterion k, looked up on the module at call time
    # (tests/test_acceptance.py and the benchmark's traced layers rely on both)
    names = [
        "check_b_family_threshold",
        "check_ppt_control",
        "check_isotropic",
        "check_pure_state",
        "check_soundness",
        "check_decomposition",
        "check_elementwise_vs_dense",
        "check_lemmas",
        "check_bloch_projection",
    ]
    called = []

    def stub(name):
        def check(h):
            called.append(name)
            h.equals(name, 0, 0)

        return check

    for name in names:
        monkeypatch.setattr(reproduce, name, stub(name))
    rows = reproduce.run_all()
    assert called == names
    assert [r.name for r in rows] == names


def test_check_lemmas_counts_a_state_failing_the_precondition(monkeypatch):
    # a phase on one off-diagonal element breaks the equal-argument
    # precondition; the state must count as a failed spot check, not raise
    real = reproduce._nonneg_mixture

    def phased(rng, n, terms):
        m = real(rng, n, terms).matrix.astype(complex)
        m[1, 0] *= 1j
        m[0, 1] = m[1, 0].conjugate()
        return reproduce.HermitianOperator(m, n)

    monkeypatch.setattr(reproduce, "_nonneg_mixture", phased)
    h = reproduce.Harness()
    reproduce.check_lemmas(h)
    assert [r.name for r in h.rows] == [
        "lemma-1 bound violations over 500 equal-argument states (n=3)",
        "lemma-1 spot checks failed",
        "lemma-2 witness vs 2(1/2^n - |s_ab|), max deviation",
        "lemma-2 sign vs element-exceeds-bound mismatches",
    ]
    spot = h.rows[1]
    assert not spot.passed
    assert spot.computed == "500"


def test_reproduce_isotropic_verdicts_cover_all_bell_states(monkeypatch):
    # shift psi- alone by s -> s + 3: its verdicts no longer flip at s = 1 and
    # s = 2, so both verdict rows must fail and name the disagreeing states
    real = reproduce.isotropic

    def shifted(s, bell=Bell.PHI_PLUS):
        return real(s + 3 if bell is Bell.PSI_MINUS else s, bell)

    monkeypatch.setattr(reproduce, "isotropic", shifted)
    h = reproduce.Harness()
    reproduce.check_isotropic(h)
    rows = [r for r in h.rows if "verdicts" in r.name]
    assert [r.name for r in rows] == [
        "isotropic IxP verdicts over s=(0, 0.5, 1, 1.5, 2, 5)",
        "isotropic IxT verdicts over s=(0, 0.5, 1, 1.5, 2, 5)",
    ]
    assert not any(r.passed for r in rows)
    disagree = (
        "Bell states disagree (phi+: inseparable, phi-: inseparable, psi+: inseparable, psi-: inconclusive)"
    )
    assert rows[0].computed.startswith(f"['{disagree}', '{disagree}', 'inconclusive'")


def test_reproduce_isotropic_verdict_rows_print_the_common_verdict():
    h = reproduce.Harness()
    reproduce.check_isotropic(h)
    rows = [r for r in h.rows if "verdicts" in r.name]
    assert [r.computed for r in rows] == [
        "['inseparable', 'inseparable', 'inconclusive', 'inconclusive', 'inconclusive', 'inconclusive']",
        "['inseparable', 'inseparable', 'inseparable', 'inseparable', 'inconclusive', 'inconclusive']",
    ]
    assert all(r.passed for r in rows)


@pytest.mark.parametrize("perturb", ["1_0", "١", "x"])
def test_reproduce_rejects_a_perturb_that_is_not_a_plain_number(capsys, perturb):
    assert main(["reproduce", "--perturb", perturb]) == 2
    assert capsys.readouterr() == ("", "error: --perturb must be a number\n")


def test_reproduce_takes_a_negative_exponent_perturb_in_the_equals_form(capsys):
    code = main(["reproduce", "--perturb=-1e-3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == "17/45 checks passed"


def test_reproduce_takes_a_negative_exponent_perturb_in_the_space_form(capsys):
    assert main(["reproduce", "--perturb=-1e-3"]) == 1
    equals_form = capsys.readouterr()
    assert main(["reproduce", "--perturb", "-1e-3"]) == 1
    assert capsys.readouterr() == equals_form


# Only a negative number in exponent form joins the tokens argparse reads as
# values; a token like these is still taken for an option, as before.
@pytest.mark.parametrize("token", ["-x", "-e3", "-1e", "-1.", "-inf", "-1e-3x", "-١e3"])
def test_other_dash_tokens_after_perturb_still_exit_2(capsys, token):
    with pytest.raises(SystemExit) as err:
        main(["reproduce", "--perturb", token])
    assert err.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_reproduce_perturbation_hook_fails_rows(capsys):
    code = main(["reproduce", "--perturb", "1e-3"])
    out = capsys.readouterr().out
    assert code == 1
    assert any(line.startswith("[FAIL]") for line in out.splitlines())
