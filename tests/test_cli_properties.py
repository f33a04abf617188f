"""Property tests: every `solve` config, valid or not, ends in a documented
exit code with a status line, and exit 0 never leaves NaN or inf behind; and
the CLI's config check agrees with jsonschema, the reference validator."""

import contextlib
import io
import json
import math
import os
import re
import tempfile

import jsonschema
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from tau_spectra import cli  # noqa: E402
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


REFERENCE_VALIDATOR = jsonschema.Draft202012Validator(cli.CONFIG_SCHEMA)
# Values of every JSON type, with those a type check can get wrong: bools
# (neither numbers nor integers), integral floats (integers), huge ints.
OTHER_VALUE = st.sampled_from(
    [True, False, None, 0, 1, -1, 2.0, -0.0, 1.5, 1e300, 10**30, -(10**30), "x", "jacobi", [], [1.0], {}]
)


def _nodes(value, path=()):
    """The path of every node in a JSON tree, the root first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, item in items:
        yield from _nodes(item, (*path, key))


def _subschema(path):
    """The part of CONFIG_SCHEMA a node at path must satisfy, or {}."""
    schema = cli.CONFIG_SCHEMA
    for key in path:
        schema = schema.get("items", {}) if isinstance(key, int) else schema.get("properties", {}).get(key, {})
    return schema


def _at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


# Unknown keys, some of them known elsewhere in the schema, in an order that
# is not sorted.
UNKNOWN_KEYS = ["zz", "unknown", "Unknown", "params", "a"]
# Each edit, and whether it applies to a node and the subschema it must satisfy.
EDITS = {
    "drop": lambda node, schema: isinstance(node, (dict, list)) and len(node) > 0,
    "add": lambda node, schema: isinstance(node, dict),
    "retype": lambda node, schema: True,
    "bound": lambda node, schema: not isinstance(node, (dict, list))
    and ("minimum" in schema or "maximum" in schema),
}


@st.composite
def edited_configs(draw):
    """A schema-valid config given one or two edits at any depth: a key or
    an item dropped, unknown keys added, a value swapped for one of another
    JSON type, a number put on or past a bound."""
    cfg = draw(VALID)
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.sampled_from(sorted(EDITS)))
        paths = [p for p in _nodes(cfg) if EDITS[edit](_at(cfg, p), _subschema(p))]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        node, schema = _at(cfg, path), _subschema(path)
        if edit == "drop":
            del node[draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))]
        elif edit == "add":
            for key in draw(st.lists(st.sampled_from(UNKNOWN_KEYS), min_size=1, max_size=3, unique=True)):
                node[key] = draw(OTHER_VALUE)
        else:
            if edit == "retype":
                value = draw(OTHER_VALUE)
            else:
                bound = draw(st.sampled_from([k for k in ("minimum", "maximum") if k in schema]))
                step = draw(st.sampled_from([0, 0.0, 0.5, 1, 10**20]))
                value = schema[bound] - step if bound == "minimum" else schema[bound] + step
            if path:
                _at(cfg, path[:-1])[path[-1]] = value
            else:
                cfg = value
    return cfg


SMALL = {
    "basis": {"family": "laguerre"},
    "degree": 2,
    "operator": [{"action": "identity", "coeff": [1.0]}],
    "conditions": [],
    "rhs": {"coeff": [1.0]},
    "grid": {"start": 0.0, "stop": 1.0, "count": 3},
}


@settings(max_examples=400, deadline=None)
@given(cfg=edited_configs())
# A bool is neither a number nor an integer, an integral float and a huge
# int are integers, and a bound itself is allowed.
@example(cfg={**SMALL, "grid": {"start": True, "stop": 1.0, "count": 3}})
@example(cfg={**SMALL, "degree": False})
@example(cfg={**SMALL, "degree": 2.0})
@example(cfg={**SMALL, "degree": 10**30})
@example(cfg={**SMALL, "grid": {"start": 0.0, "stop": 1.0, "count": cli.MAX_GRID_COUNT}})
def test_config_check_agrees_with_reference_validator(cfg):
    errors = list(REFERENCE_VALIDATOR.iter_errors(cfg))
    try:
        cli._validate_config(cfg)
    except cli.ConfigError as exc:
        assert errors, f"the CLI rejected a config the reference accepts: {exc}"
        assert str(exc) == jsonschema.exceptions.best_match(errors).message
    else:
        assert not errors, f"the CLI accepted a config the reference rejects: {errors[0].message}"
