"""Session setup shared by every test module."""

import warnings

# When a hypothesis test fails, its pytest plugin imports
# hypothesis.extra._patching, which imports libcst, which imports
# mypy_extensions.TypedDict and so raises a DeprecationWarning.  Under
# filterwarnings = ["error"] that warning inside a pytest hook aborts the
# whole run with INTERNALERROR instead of reporting the one failure.
# Importing the module here, once and with that warning ignored, leaves
# the plugin a cached import.  Without libcst there is nothing to import.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
