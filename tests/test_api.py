import ast
import inspect
import json
import re

import numpy as np
import pytest

import insep
from insep import criteria, linalg, maps, states
from insep.cli import CliError, load_operator, main, serialize_operator
from insep.criteria import equal_argument_check, lemma1_bound_check, lemma2_witness_value
from insep.linalg import DensityOperator, HermitianOperator, bloch_from_density, hamming, min_eigenvalue, tensor
from insep.maps import MapKind, MapSpec, apply_on_qubit, apply_on_qubit_dense, apply_product
from insep.states import bell_ket, ghz, isotropic, product_state, random_multiseparable

MODULES = [criteria, linalg, maps, states]


def defined_public_names(module):
    """The non-underscore names bound by the module's own top-level statements."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_lists_exactly_the_names_it_defines(module):
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == defined_public_names(module)


def test_package_all_is_the_modules_all_in_turn():
    assert insep.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(insep.__all__) == len(set(insep.__all__))
    for name in insep.__all__:
        assert any(getattr(insep, name) is getattr(m, name, None) for m in MODULES)


@pytest.mark.parametrize("bell", ["phi+", None, 0])
def test_bell_ket_refuses_what_is_not_a_bell(bell):
    message = re.escape(f"unknown Bell state {bell!r}")
    with pytest.raises(TypeError, match=f"^{message}$"):
        bell_ket(bell)
    with pytest.raises(TypeError, match=f"^{message}$"):
        isotropic(0.5, bell)


# Each function that takes a HermitianOperator, called on x in its place.
_HALF = HermitianOperator(np.eye(2) / 2)
OPERATOR_ENTRY_POINTS = {
    "equal_argument_check": equal_argument_check,
    "lemma1_bound_check": lambda x: lemma1_bound_check(x, 0, 1),
    "lemma2_witness_value": lambda x: lemma2_witness_value(x, 0, 1),
    "bloch_from_density": bloch_from_density,
    "min_eigenvalue": min_eigenvalue,
    "tensor left": lambda x: tensor(x, _HALF),
    "tensor right": lambda x: tensor(_HALF, x),
}


@pytest.mark.parametrize("x", [np.eye(4) / 4, np.eye(2) / 2, None], ids=["ndarray4", "ndarray2", "None"])
@pytest.mark.parametrize("entry", OPERATOR_ENTRY_POINTS)
def test_every_operator_argument_takes_one_type_rule(entry, x):
    # Before, an ndarray got as far as numpy and raised AttributeError.
    with pytest.raises(TypeError, match=f"^expected a HermitianOperator, got {type(x).__name__}$"):
        OPERATOR_ENTRY_POINTS[entry](x)


def _load_count(n, path):
    """load_operator on GHZ(3)'s written file with n as its n_qubits; raises the rule's error."""
    count = json.dumps(n.item() if isinstance(n, np.generic) else n)
    path.write_text(serialize_operator(ghz(3)).replace('"n_qubits": 3,', f'"n_qubits": {count},'))
    try:
        return load_operator(path)
    except CliError as exc:
        # The reader gives the rule's own error after the file's name.
        assert str(exc) == f"{path}: {exc.__cause__}"
        raise exc.__cause__ from None


# Each entry point that takes a count: (call on count n, the count's name in
# messages, the insep argv that passes n to it and the prefix of its error
# line, or None). product_state counts its factors, so only the range applies.
_EIGHT = np.eye(8) / 8
COUNT_ENTRY_POINTS = {
    "HermitianOperator": (lambda n, _: HermitianOperator(_EIGHT, n), "n_qubits", None),
    "DensityOperator": (lambda n, _: DensityOperator(_EIGHT, n), "n_qubits", None),
    "DensityOperator of an operator": (
        lambda n, _: DensityOperator(HermitianOperator(_EIGHT), n),
        "n_qubits",
        None,
    ),
    "hamming": (lambda n, _: hamming(0, 1, n), "n_qubits", None),
    "MapSpec.all_qubits": (lambda n, _: MapSpec.all_qubits(n, MapKind.P), "n_qubits", None),
    "ghz": (lambda n, _: ghz(n), "n_qubits", lambda n, _: (["gen", "ghz", f"n={n}"], "")),
    "random_multiseparable n": (
        lambda n, _: random_multiseparable(n, 2, 0),
        "n_qubits",
        lambda n, _: (["gen", "random-msep", f"n={n}"], ""),
    ),
    "random_multiseparable terms": (
        lambda n, _: random_multiseparable(2, n, 0),
        "terms",
        lambda n, _: (["gen", "random-msep", "n=2", f"terms={n}"], ""),
    ),
    "product_state": (lambda n, _: product_state([(0.0, 0.0, 0.0)] * n), "n_qubits", None),
    "file n_qubits": (_load_count, "n_qubits", lambda n, path: (["detect", str(path), "lz"], f"{path}: ")),
}


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_every_qubit_count_takes_one_rule(entry, tmp_path, capsys):
    call, what, cli = COUNT_ENTRY_POINTS[entry]
    path = tmp_path / "count.json"
    call(np.int64(3), path)
    refusals = []
    if entry != "product_state":
        refusals += [(n, TypeError, f"{what} must be an integer, got {n!r}") for n in (True, 3.0)]
    if what == "terms":
        refusals.append((0, ValueError, "terms 0 is outside 1..inf"))
    else:
        refusals += [(n, ValueError, f"n_qubits {n} is outside 1..12") for n in (0, 13)]
    for n, kind, message in refusals:
        with pytest.raises(kind, match=f"^{re.escape(message)}$"):
            call(n, path)
        # A gen parameter is an integer by its parser, so only a file passes True or 3.0.
        if cli is not None and (type(n) is int or entry == "file n_qubits"):
            argv, prefix = cli(n, path)
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {prefix}{message}\n")


# Each entry point that takes a qubit or a basis index: (call on index q, the
# index's name and range in messages, the two values refused, and whether
# `insep apply FILE q:P` passes q to it). The operator is GHZ(3), with qubits
# 1..3 and basis indices 0..7; a MapSpec alone has qubits 1..12.
_GHZ3 = ghz(3)
INDEX_ENTRY_POINTS = {
    "apply_on_qubit": (lambda q: apply_on_qubit(_GHZ3, q, MapKind.P), "qubit index", "1..3", (0, 4), False),
    "apply_on_qubit_dense": (lambda q: apply_on_qubit_dense(_GHZ3, q, MapKind.P), "qubit index", "1..3", (0, 4), False),
    "MapSpec": (lambda q: MapSpec.single(q, MapKind.P), "qubit index", "1..12", (0, 13), True),
    "apply_product": (lambda q: apply_product(_GHZ3, MapSpec.single(q, MapKind.P)), "qubit index", "1..3", (4, 12), True),
    "hamming": (lambda a: hamming(a, 0, 3), "basis index", "0..7", (-1, 8), False),
    "lemma1_bound_check": (lambda a: lemma1_bound_check(_GHZ3, a, 0), "basis index", "0..7", (-1, 8), False),
    "lemma2_witness_value": (lambda a: lemma2_witness_value(_GHZ3, 7, a), "basis index", "0..7", (-1, 8), False),
}


@pytest.mark.parametrize("entry", INDEX_ENTRY_POINTS)
def test_every_index_takes_one_rule(entry, tmp_path, capsys):
    call, what, bounds, values, by_apply = INDEX_ENTRY_POINTS[entry]
    path = tmp_path / "ghz3.json"
    path.write_text(serialize_operator(_GHZ3))
    for q in values:
        message = f"{what} {q} is outside {bounds}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(q)
        if by_apply:
            assert main(["apply", str(path), f"{q}:P"]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
