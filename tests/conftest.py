"""Test-session set-up shared by every test module.

When a property test fails, hypothesis's pytest report hook imports
``hypothesis.extra._patching``, which imports ``libcst`` where that is
installed. ``libcst`` uses ``mypy_extensions.TypedDict``, whose
``DeprecationWarning`` becomes an exception under ``-W error``; raised inside
the hook, it ends the session in INTERNALERROR before the falsifying example
is printed. Importing the module once here, with that one warning ignored,
leaves it imported for the hook. Every other warning keeps the filters the
session was started with.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore",
        message=r"mypy_extensions\.TypedDict is deprecated",
        category=DeprecationWarning,
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
