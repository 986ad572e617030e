import inspect

import pne


def test_all_exports_api_names():
    for name in pne.__all__:
        value = getattr(pne, name)
        assert inspect.isclass(value) or inspect.isfunction(value) or isinstance(
            value, (int, float, str, tuple, frozenset)
        ), f"pne.__all__ exports {name!r} of type {type(value).__name__}"
