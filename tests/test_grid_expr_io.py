import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessneumann.expr import ExpressionError, compile_expression
from hessneumann.fieldio import FIELD_MAGIC, read_field_binary, write_field_binary, write_solution_csv
from hessneumann.grid import BoxGrid, ScalarField
from hessneumann.problem import (
    MANUFACTURED_CASES,
    ProblemFormatError,
    ProblemSpec,
    build_case,
    load_problem,
    manufactured_problem,
    paraboloid,
    perturbed_paraboloid,
)
from hessneumann.operator import OperatorSpec, eta_matrix
from hessneumann.symfun import ConeError, sigma_all


class TestBoxGrid:
    def test_basic(self):
        g = BoxGrid((0, 0), (1, 2), 9)
        assert g.n == 2 and g.shape == (9, 9) and g.size == 81
        np.testing.assert_allclose(g.h, [1.0 / 8.0, 2.0 / 8.0])
        np.testing.assert_allclose(g.center, [0.5, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            BoxGrid((0,), (1,), 9)  # 1-D unsupported
        with pytest.raises(ValueError):
            BoxGrid((0, 0), (1, 1), 8)  # even m
        with pytest.raises(ValueError):
            BoxGrid((0, 0), (1, 1), 7)  # too small
        with pytest.raises(ValueError):
            BoxGrid((0, 0), (0, 1), 9)  # empty axis

    def test_lo_and_hi_of_different_lengths_rejected(self):
        with pytest.raises(ValueError) as info:
            BoxGrid((0, 0), (1, 1, 1), 9)
        assert str(info.value) == "lo and hi must have the same length"

    def test_face_count(self):
        g = BoxGrid((0, 0), (1, 1), 9)
        fc = g.face_count()
        assert fc[0, 0] == 2 and fc[0, 4] == 1 and fc[4, 4] == 0
        assert fc.sum() == 4 * 9 - 4 + 4  # each face m nodes, corners double-counted
        for g in (g, BoxGrid((0, -1, 2), (1, 3, 2.5), 11)):
            faces = g.faces()
            assert [(a, step) for a, step, _ in faces] == [(a, s) for a in range(g.n) for s in (1, -1)]  # lo, hi
            count = np.zeros(g.size, dtype=int)
            for a, step, nodes in faces:  # each face's nodes in C order, on that face
                assert nodes.size == g.m ** (g.n - 1) and np.all(np.diff(nodes) > 0)
                assert np.all(np.unravel_index(nodes, g.shape)[a] == (0 if step == 1 else g.m - 1))
                count[nodes] += 1
            np.testing.assert_array_equal(count.reshape(g.shape), g.face_count())
            assert (count > 0).sum() == g.size - (g.m - 2) ** g.n  # every boundary node, no interior one

    def test_points_order(self):
        g = BoxGrid((0, 0), (1, 1), 9)
        pts = g.points()
        assert pts.shape == (81, 2)
        np.testing.assert_allclose(pts[0], [0, 0])
        np.testing.assert_allclose(pts[1], [0, 1.0 / 8.0])  # last axis fastest (C order)


class TestScalarField:
    def test_shape_check(self):
        g = BoxGrid((0, 0), (1, 1), 9)
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros((9, 8)))

    def test_from_points(self):
        g = BoxGrid((0, 0), (1, 1), 9)
        f = ScalarField.from_points(g, lambda p: p[:, 0] + 2.0 * p[:, 1])
        assert f.values[1, 0] == pytest.approx(1.0 / 8.0)
        assert f.values[0, 1] == pytest.approx(2.0 / 8.0)


class TestExpressions:
    def test_arithmetic(self):
        fn, used = compile_expression("1 + 2*3 - 4/8")
        assert fn({}) == pytest.approx(6.5)
        assert used == []

    def test_power_right_associative(self):
        fn, _ = compile_expression("2^3^2")
        assert fn({}) == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        fn, _ = compile_expression("-2^2")
        assert fn({}) == -4.0

    def test_functions_and_vars(self):
        fn, used = compile_expression("sin(x1)^2 + cos(x1)^2 + exp(0)*abs(x2)")
        assert used == ["x1", "x2"]
        x = np.array([0.3, 1.2])
        y = np.array([-2.0, 5.0])
        np.testing.assert_allclose(fn({"x1": x, "x2": y}), 1.0 + np.abs(y))

    def test_scientific_numbers(self):
        fn, _ = compile_expression("1e-3 + 2.5E2")
        assert fn({}) == pytest.approx(250.001)

    def test_error_positions(self):
        with pytest.raises(ExpressionError) as info:
            compile_expression("1 + @")
        assert info.value.position == 4
        with pytest.raises(ExpressionError):
            compile_expression("sin 3")
        with pytest.raises(ExpressionError):
            compile_expression("x4 + 1")
        with pytest.raises(ExpressionError):
            compile_expression("(1 + 2")
        with pytest.raises(ExpressionError):
            compile_expression("")


_PY_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_PY_ENV = {"x1": np.linspace(-2.0, 2.0, 5), "x2": np.linspace(0.0, 3.0, 5), "x3": np.linspace(-1.0, -0.5, 5)}
_GRAMMAR = st.recursive(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(sorted(_PY_ENV)),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "^"]), inner).map(" ".join),
        st.tuples(st.sampled_from(["-", "+"]), inner).map("".join),
        inner.map("({})".format),
        st.tuples(st.sampled_from(sorted(_PY_FUNCS)), inner).map("{0[0]}({0[1]})".format),
    ),
    max_leaves=16,
)


def _outcome(evaluate):
    """The value's type and bytes, or the type of the arithmetic error it raises."""
    try:
        with np.errstate(all="ignore"):
            value = evaluate()
    except ArithmeticError as exc:
        return type(exc)
    return type(value), np.asarray(value).tobytes()


class TestCompilerMatchesPython:
    @given(text=_GRAMMAR)
    @settings(max_examples=500, deadline=None)
    def test_same_bits_as_python_eval(self, text):
        """Python reads the grammar with "**" for "^" at the same precedence, so each value must agree bit for bit."""
        fn, used = compile_expression(text)
        want = _outcome(lambda: eval(text.replace("^", "**"), {"__builtins__": {}}, {**_PY_FUNCS, **_PY_ENV}))
        assert _outcome(lambda: fn(_PY_ENV)) == want
        assert used == sorted(name for name in _PY_ENV if name in text)


class TestManufactured:
    def test_paraboloid_data(self):
        g = BoxGrid((0, 0, 0), (1, 1, 1), 9)
        spec, u = manufactured_problem(paraboloid((0.5, 0.5, 0.5)), OperatorSpec(3, 2), 1.0, g)
        np.testing.assert_allclose(spec.psi.values, 12.0)
        # every face of the unit box: normal derivative is the half width
        assert spec.phi.values[0, 4, 4] == pytest.approx(0.5 + u.values[0, 4, 4])
        assert spec.phi.values[0, 0, 0] == pytest.approx(0.5 + u.values[0, 0, 0])

    def test_affine_rejected(self):
        from hessneumann.problem import ClosedFormField

        g = BoxGrid((0, 0), (1, 1), 9)
        affine = ClosedFormField(
            value=lambda p: p[:, 0] + p[:, 1],
            gradient=lambda p: np.ones_like(p),
            hessian=lambda p: np.zeros((p.shape[0], 2, 2)),
        )
        with pytest.raises(ConeError) as info:
            manufactured_problem(affine, OperatorSpec(2, 1), 1.0, g)
        assert info.value.node is not None

    def test_operator_of_another_dimension_rejected(self):
        g = BoxGrid((0, 0), (1, 1), 9)
        one = ScalarField.constant(g, 1.0)
        with pytest.raises(ValueError) as info:
            ProblemSpec(g, OperatorSpec(3, 2), 1.0, one, one)
        assert str(info.value) == "operator dimension n=3 does not match grid n=2"

    @pytest.mark.parametrize("case", [*MANUFACTURED_CASES, "quotient"])
    def test_psi_matches_the_eigenvalue_sigma_table(self, case):
        # psi from the Newton-tensor sigma table against sigma_all of the eta-matrices' eigenvalues
        if case == "quotient":
            field, op = perturbed_paraboloid(3, 0.05), OperatorSpec(3, 2, 1)
            spec, _ = manufactured_problem(field, op, 1.0, BoxGrid((0, 0, 0), (1, 1, 1), 9))
        else:
            (spec, _), field = build_case(case, 9), MANUFACTURED_CASES[case].build_field()
            op = spec.op
        e = sigma_all(np.linalg.eigvalsh(eta_matrix(field.hessian(spec.grid.points()))), op.cone_order)
        want = e[:, op.k] if op.l is None else e[:, op.k] / e[:, op.l]
        np.testing.assert_allclose(spec.psi.values.ravel(), want, rtol=1e-13, atol=0)

    def test_perturbed_cases_admissible(self):
        for case in ("perturbed-paraboloid", "perturbed-paraboloid-2d"):
            spec, u = build_case(case, 9)
            assert spec.psi.values.min() > 0

    def test_perturbed_derivatives_consistent(self):
        field = perturbed_paraboloid(3, 0.05)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.1, 0.9, (20, 3))
        h = 1e-6
        grad = field.gradient(pts)
        hess = field.hessian(pts)
        for i in range(3):
            up, dn = pts.copy(), pts.copy()
            up[:, i] += h
            dn[:, i] -= h
            np.testing.assert_allclose((field.value(up) - field.value(dn)) / (2 * h), grad[:, i], rtol=1e-7, atol=1e-8)
            np.testing.assert_allclose(
                (field.gradient(up) - field.gradient(dn)) / (2 * h), hess[:, i, :], rtol=1e-6, atol=1e-7
            )

    def test_unknown_case(self):
        with pytest.raises(KeyError):
            build_case("nope", 9)
        assert set(MANUFACTURED_CASES) == {"paraboloid", "perturbed-paraboloid", "perturbed-paraboloid-2d"}


def _write_problem(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _valid_doc():
    return {
        "n": 2,
        "k": 1,
        "beta": 1.0,
        "box": {"lo": [0, 0], "hi": [1, 1], "m": 9},
        "psi": {"kind": "constant", "value": 2.0},
        "phi": {"kind": "expression", "expr": "x1 + x2"},
    }


class TestProblemFiles:
    def test_valid_roundtrip(self, tmp_path):
        spec = load_problem(_write_problem(tmp_path, _valid_doc()))
        assert spec.op.k == 1 and spec.beta == 1.0
        np.testing.assert_allclose(spec.psi.values, 2.0)
        assert spec.phi.values[0, 8] == pytest.approx(1.0)

    def test_grid_kind(self, tmp_path):
        doc = _valid_doc()
        doc["psi"] = {"kind": "grid", "values": [1.0] * 81}
        spec = load_problem(_write_problem(tmp_path, doc))
        np.testing.assert_allclose(spec.psi.values, 1.0)

    def test_schedule(self, tmp_path):
        doc = _valid_doc()
        doc["schedule"] = [0.5, 1.0]
        assert load_problem(_write_problem(tmp_path, doc)).schedule == [0.5, 1.0]
        doc["schedule"] = [0.5, 0.2]
        with pytest.raises(ProblemFormatError):
            load_problem(_write_problem(tmp_path, doc))

    def test_bad_json_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2,\n "k": }', encoding="utf-8")
        with pytest.raises(ProblemFormatError) as info:
            load_problem(path)
        assert "line 2" in str(info.value)

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d.update(beta=-1.0), "beta"),
            (lambda d: d.update(psi={"kind": "constant", "value": -2.0}), "psi"),
            (lambda d: d.update(psi={"kind": "nope"}), "kind"),
            (lambda d: d.update(phi={"kind": "expression", "expr": "x3"}), "x3"),
            (lambda d: d.update(phi={"kind": "expression", "expr": "1 +"}), "position"),
            (lambda d: d.update(k=5), "k"),
            (lambda d: d.pop("box"), "box"),
            (lambda d: d.update(psi={"kind": "grid", "values": [1.0] * 3}), "81"),
            (lambda d: d.update(l=10**400), "l="),
            (lambda d: d.update(beta=10**400), "too large"),
            (lambda d: d["box"].update(lo="00", hi="11"), "'lo' entry must be a number (got '0')"),
            (lambda d: d.update(psi={"kind": "constant", "value": "2.5"}), "'value' must be a number"),
            (lambda d: d.update(psi={"kind": "constant", "value": True}), "'value' must be a number"),
            (lambda d: d.update(beta="1.0"), "'beta' must be a number"),
            (lambda d: d.update(beta=float("inf")), "'beta' must be finite"),
            (lambda d: d.update(schedule=["0.5", "1.0"]), "'schedule' entry must be a number"),
            (lambda d: d.update(psi={"kind": "grid", "values": ["1.0"] * 81}), "grid value must be a number"),
            (lambda d: d.update(psi={"kind": "grid", "values": [True] * 81}), "grid value must be a number"),
            (lambda d: d["box"].update(m=30001), "exceeds the limit"),
        ],
    )
    def test_validation_messages(self, tmp_path, mutate, needle):
        doc = _valid_doc()
        mutate(doc)
        with pytest.raises(ProblemFormatError) as info:
            load_problem(_write_problem(tmp_path, doc))
        assert needle in str(info.value)

    @pytest.mark.parametrize(
        "raw,needle",
        [
            (json.dumps(_valid_doc()).encode("utf-16"), "not UTF-8"),
            (b'{"n": ' + b"1" * 5000 + b"}", "invalid JSON"),
            (b'{"n": ' + b"[" * 100000 + b"]" * 100000 + b"}", "invalid JSON: nested deeper than the parser"),
        ],
        ids=["utf-16", "int-over-digit-limit", "nested-past-the-parser"],
    )
    def test_unreadable_text(self, tmp_path, raw, needle):
        path = tmp_path / "raw.json"
        path.write_bytes(raw)
        with pytest.raises(ProblemFormatError) as info:
            load_problem(path)
        assert needle in str(info.value)

    @pytest.mark.parametrize(
        "expr,want",
        [
            ("1" + "+1" * 2999, 3000.0),
            ("(" * 3000 + "2" + ")" * 3000, 2.0),
            ("-" * 3000 + "2", 2.0),
            ("sin(" * 2000 + "1" + ")" * 2000, functools.reduce(lambda v, _: np.sin(v), range(2000), 1.0)),
        ],
        ids=["sum-of-3000", "3000-parentheses", "3000-unary-minuses", "2000-nested-sin"],
    )
    def test_long_and_deep_expressions_load(self, tmp_path, expr, want):
        doc = _valid_doc()
        doc["psi"] = {"kind": "expression", "expr": expr}
        np.testing.assert_array_equal(load_problem(_write_problem(tmp_path, doc)).psi.values, want)

    def test_grid_cap_admits_3d_m65(self, tmp_path):
        doc = _valid_doc()
        doc.update(n=3, k=2, phi={"kind": "constant", "value": 1.0})
        doc["box"] = {"lo": [0, 0, 0], "hi": [1, 1, 1], "m": 65}
        assert load_problem(_write_problem(tmp_path, doc)).grid.size == 65**3
        doc["box"]["m"] = 67
        with pytest.raises(ProblemFormatError, match="exceeds the limit"):
            load_problem(_write_problem(tmp_path, doc))

    def test_box_aspect_ratio_is_bounded_by_float64(self, tmp_path):
        # spacings 0.125 and 1.25e-8 (a ratio of 1e7) load; at 1.25e-9 (1e8) the
        # short axis' 1/h^2 swamps the others beyond float64 rounding
        doc = _valid_doc()
        doc["box"]["hi"] = [1, 1e-7]
        assert load_problem(_write_problem(tmp_path, doc)).grid.h[1] == pytest.approx(1.25e-8)
        doc["box"]["hi"] = [1, 1e-8]
        with pytest.raises(ProblemFormatError, match="differ by more than a factor of 6.71e"):
            load_problem(_write_problem(tmp_path, doc))

    def test_box_spacing_is_bounded_below_by_float64(self, tmp_path):
        # 2(n-1) sum 1/h^2 = 4/h^2 is finite at h = 1.25e-141 and overflows at 1.25e-154
        doc = _valid_doc()
        doc["box"]["hi"] = [1e-140, 1e-140]
        assert load_problem(_write_problem(tmp_path, doc)).grid.h[0] == pytest.approx(1.25e-141)
        doc["box"]["hi"] = [1e-153, 1e-153]
        with pytest.raises(ProblemFormatError, match="box spacing 1.25e-154 is too small"):
            load_problem(_write_problem(tmp_path, doc))


_JSON_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_LENGTHS = st.sampled_from([1, 2, 150, 1500, 3000])
_EXPRESSIONS = st.one_of(
    st.sampled_from(["x1 + x2", "1/(x1-x1)", "x1^0.5 - 1", "exp(exp(exp(100*x1)))", "9^9^9^9", "x3", "sin("]),
    st.text(alphabet="x123 +-*/^().e9sincoexpab", max_size=24),
    # long chains, and deep nesting closed by one parenthesis too few, as many, or one too many
    st.builds(lambda n, link: "x1" + link * n, _LENGTHS, st.sampled_from(["+x1", "-x2", "*x1", "/x2", "^x1"])),
    st.builds(
        lambda n, head, extra: head * n + "x1" + ")" * (head.count("(") * n + extra),
        _LENGTHS,
        st.sampled_from(["(", "-", "+", "sin(", "abs(", "x1^", "-x1^"]),
        st.sampled_from([0, 0, -1, 1]),
    ),
)
_GRID_VALUES = st.one_of(st.lists(st.floats(0, 10), min_size=81, max_size=81), _JSON)
_FIELDS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"), "value": _JSON_LEAF}),
    st.fixed_dictionaries({"kind": st.just("expression"), "expr": st.one_of(_EXPRESSIONS, _JSON_LEAF)}),
    st.fixed_dictionaries({"kind": st.just("grid"), "values": _GRID_VALUES}),
    _JSON,
)
# the large odd sizes must be refused by the grid cap before any field is allocated
_M_VALUES = st.sampled_from(
    [9, 11, 9.0, 9.5, 8, -9, 0, 30001, 10**9 + 1, 10**400, 1e300, math.inf, math.nan, "9", None, True, [9], {}]
)
_MISSING = object()


def _strip_missing(doc):
    if isinstance(doc, dict):
        return {key: _strip_missing(val) for key, val in doc.items() if val is not _MISSING}
    return doc


def _drawn(valid, other):
    """The valid value (six draws in ten), a drawn replacement (three) or a missing key (one)."""
    return st.integers(0, 9).flatmap(lambda i: st.just(_MISSING) if i == 0 else other if i <= 3 else st.just(valid))


_PROBLEM_DOCS = st.fixed_dictionaries(
    {
        "n": _drawn(2, _JSON_LEAF),
        "k": _drawn(1, _JSON_LEAF),
        "l": _drawn(None, _JSON_LEAF),
        "beta": _drawn(1.0, _JSON_LEAF),
        "box": _drawn(
            {"lo": [0, 0], "hi": [1, 1], "m": 9},
            st.fixed_dictionaries({"lo": _drawn([0, 0], _JSON), "hi": _drawn([1, 1], _JSON), "m": _drawn(9, _M_VALUES)})
            | _JSON_LEAF,
        ),
        "psi": _drawn({"kind": "constant", "value": 2.0}, _FIELDS),
        "phi": _drawn({"kind": "expression", "expr": "x1 + x2"}, _FIELDS),
        "schedule": _drawn(None, _JSON),
    }
).map(_strip_missing)


class TestProblemFileFuzz:
    @given(doc=st.one_of(_PROBLEM_DOCS, _JSON))
    @settings(max_examples=400, deadline=None)
    def test_drawn_file_loads_or_raises_format_error(self, tmp_path_factory, doc):
        """A drawn problem file either loads or raises ProblemFormatError; nothing else escapes."""
        # json.dumps writes NaN and Infinity, which json.loads (and so load_problem) reads back
        path = _write_problem(tmp_path_factory.getbasetemp(), doc, "fuzz.json")
        try:
            spec = load_problem(path)
        except ProblemFormatError:
            return
        assert spec.grid.n == 2 and spec.beta > 0


class TestFieldIO:
    def test_binary_roundtrip(self, tmp_path):
        g = BoxGrid((0, 0), (1, 1), 9)
        f = ScalarField.from_points(g, lambda p: np.sin(p[:, 0]) + p[:, 1])
        path = tmp_path / "field.bin"
        write_field_binary(path, f)
        raw = path.read_bytes()
        assert raw[:4] == FIELD_MAGIC
        assert len(raw) == 16 + 81 * 8
        n, m, values = read_field_binary(path)
        assert (n, m) == (2, 9)
        np.testing.assert_array_equal(values, f.values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "field.bin"
        write_field_binary(path, ScalarField.constant(BoxGrid((0, 0), (1, 1), 9), 1.0))
        path.write_bytes(b"HNF0" + path.read_bytes()[4:])
        with pytest.raises(ValueError) as info:
            read_field_binary(path)
        assert str(info.value) == "bad field magic b'HNF0'"

    def test_short_payload_rejected(self, tmp_path):
        path = tmp_path / "field.bin"
        write_field_binary(path, ScalarField.constant(BoxGrid((0, 0), (1, 1), 9), 1.0))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError) as info:
            read_field_binary(path)
        assert str(info.value) == "field payload has 80 values, expected 81"

    def test_solution_csv(self, tmp_path):
        g = BoxGrid((0, 0), (1, 1), 9)
        f = ScalarField.constant(g, 3.25)
        path = tmp_path / "sol.csv"
        write_solution_csv(path, f)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,u"
        assert len(lines) == 82
        assert lines[1] == "0,0,3.25"

    def test_solution_csv_bytes_match_per_row_formatting(self, tmp_path):
        g = BoxGrid((0, -1e-3, 0), (1, 2, 1.5), 9)
        rng = np.random.default_rng(5)
        values = rng.standard_normal(g.shape) * 10.0 ** rng.integers(-300, 300, g.shape)
        values.flat[:7] = [-0.0, 0.0, 5e-324, -2.2e-310, 1.79e308, -1.79e308, 1.0 / 3.0]
        f = ScalarField(g, values)
        path = tmp_path / "sol.csv"
        write_solution_csv(path, f)
        want = "x1,x2,x3,u\n" + "".join(
            ",".join(f"{c:.17g}" for c in row) + f",{val:.17g}\n" for row, val in zip(g.points(), values.ravel())
        )
        assert path.read_bytes() == want.encode("utf-8")
