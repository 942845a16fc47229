import ast
import inspect
import re

import pytest

import insep
from insep import criteria, linalg, maps, states
from insep.states import bell_ket, isotropic

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
