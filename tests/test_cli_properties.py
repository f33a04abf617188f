"""Property test: every `solve` config, valid or not, ends in a documented
exit code with a status line, and exit 0 never leaves NaN or inf behind."""

import contextlib
import io
import json
import math
import os
import re
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tau_spectra.cli import main  # noqa: E402

# Mostly ordinary values, sometimes an extreme finite one.  Every size is
# bounded (degree <= 30, grid count <= 50, <= 4 coefficients, <= 3
# conditions, derivative orders <= 3) so no draw can allocate much.
_ORDINARY = st.floats(-4.0, 4.0)
_EXTREME = st.one_of(
    st.sampled_from([1e308, -1e308, 1e-300, -5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)
NUMBER = st.one_of(*[_ORDINARY] * 8, _EXTREME)
POLY = st.lists(NUMBER, min_size=1, max_size=4)
# Jacobi exponents must exceed -1; values at and below it are drawn too.
EXPONENT = st.one_of(*[st.floats(-0.95, 3.0)] * 4, st.sampled_from([-1.0, -2.5]), _EXTREME)

BASIS = st.one_of(
    st.fixed_dictionaries({"family": st.just("jacobi"), "alpha": EXPONENT, "beta": EXPONENT}),
    st.fixed_dictionaries({"family": st.just("laguerre")}),
)
TERM = st.one_of(
    st.fixed_dictionaries(
        {"action": st.just("derivative"), "coeff": POLY, "order": st.integers(1, 3)}
    ),
    st.fixed_dictionaries({"action": st.just("identity"), "coeff": POLY}),
    st.fixed_dictionaries({"action": st.just("volterra"), "coeff": POLY, "lower": NUMBER}),
)
CONDITION = st.fixed_dictionaries(
    {
        "terms": st.lists(
            st.fixed_dictionaries(
                {"coeff": NUMBER, "deriv": st.integers(0, 3), "point": NUMBER}
            ),
            min_size=1,
            max_size=2,
        ),
        "value": NUMBER,
    }
)


def _reference(kind, params, optional=None):
    return st.fixed_dictionaries(
        {"kind": st.just(kind), "params": st.fixed_dictionaries(params, optional=optional)}
    )


REFERENCE = st.one_of(
    _reference("volterra_exact", {"a": NUMBER}),
    _reference("bessel", {"m": st.integers(0, 12)}, optional={"scale_point": NUMBER}),
    _reference("airy_bvp", {"epsilon": NUMBER}),
)
VALID = st.fixed_dictionaries(
    {
        "basis": BASIS,
        "degree": st.integers(0, 30),
        "operator": st.lists(TERM, min_size=1, max_size=3),
        "conditions": st.lists(CONDITION, max_size=3),
        "rhs": st.fixed_dictionaries({"coeff": POLY}),
        "grid": st.fixed_dictionaries(
            {"start": NUMBER, "stop": NUMBER, "count": st.integers(2, 50)}
        ),
    },
    optional={"reference": REFERENCE},
)


@st.composite
def config_texts(draw):
    """A schema-valid config, sometimes given one defect, as JSON text."""
    cfg = draw(VALID)
    defect = draw(st.sampled_from([None, None, None, "missing", "unknown", "literal"]))
    if defect == "missing":
        del cfg[draw(st.sampled_from(sorted(cfg)))]
    elif defect == "unknown":
        cfg["unknown"] = 1
    text = json.dumps(cfg)
    if defect == "literal":
        number = draw(st.sampled_from(list(re.finditer(r"-?\d[\d.eE+-]*", text))))
        literal = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400"]))
        text = text[: number.start()] + literal + text[number.end() :]
    return text


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(text=config_texts())
def test_any_config_ends_in_documented_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "problem.json")
        out_path = os.path.join(tmp, "out.csv")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["solve", cfg_path, "-o", out_path])
        assert code in (0, 2, 3, 4)
        if code == 0:
            with open(out_path, encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
        else:
            assert err.getvalue().startswith("tau-spectra: ")
            assert not os.path.exists(out_path)
