import json
import math

import numpy as np
import pytest

from insep import DensityOperator, cli, reproduce
from insep.cli import load_operator, main, parse_map_spec, save_operator, serialize_operator, CliError
from insep.maps import MapKind, MapSpec
from insep.states import Bell


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


def test_load_rejects_malformed_files(tmp_path):
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
    message = f"{path}: n_qubits must be an integer in 1..12"
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


# ---------------------------------------------------------------- map specs

def test_parse_map_spec_grammar():
    assert parse_map_spec("1:P,2:T", 2) == MapSpec(((1, MapKind.P), (2, MapKind.T)))
    assert parse_map_spec("all:P", 3) == MapSpec.all_qubits(3, MapKind.P)
    assert parse_map_spec("1:Identity", 2) == MapSpec(((1, MapKind.IDENTITY),))
    assert parse_map_spec("2:p", 2) == MapSpec(((2, MapKind.P),))
    for bad in ("", "1", "1:Q", "x:P", "1:P,1:T", "3:P", "all:P,2:T"):
        with pytest.raises(CliError):
            parse_map_spec(bad, 2)


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
    assert "out of range" in capsys.readouterr().err


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


def test_detect_tol_override_relaxes_verdict(tmp_path, capsys):
    path = tmp_path / "iso.json"
    main(["gen", "isotropic", "s=0.99", "--out", str(path)])
    assert main(["detect", str(path), "map", "--spec", "2:P"]) == 0
    assert main(["detect", str(path), "map", "--spec", "2:P", "--tol", "0.01"]) == 1


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_detect_rejects_bad_tol(tmp_path, capsys, tol):
    path = tmp_path / "product.json"
    main(["gen", "random-msep", "n=2", "terms=1", "seed=3", "--out", str(path)])
    assert main(["detect", str(path), "map", "--spec", "1:I", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert "verdict" not in captured.out
    assert "tolerance" in captured.err


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

    monkeypatch.setattr(cli, "lz_antidiagonal_check", broken)
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


def test_reproduce_perturbation_hook_fails_rows(capsys):
    code = main(["reproduce", "--perturb", "1e-3"])
    out = capsys.readouterr().out
    assert code == 1
    assert any(line.startswith("[FAIL]") for line in out.splitlines())
