"""Hypothesis prints the @reproduce_failure line of every property-test
failure, so a failure seen once, such as one under load, can be replayed
from its log.  Every other setting stays as the active profile has it."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    settings.register_profile("print-blob", settings.default, print_blob=True)
    settings.load_profile("print-blob")
