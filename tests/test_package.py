from types import ModuleType

import insep


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(insep).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(insep.__all__) == len(set(insep.__all__))
    assert set(insep.__all__) == public
