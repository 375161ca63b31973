from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from memwalk import analysis
from memwalk._float_repr import KERNEL_BITS_LIMIT, _shortest, repr_rows
from memwalk.experiments import ExperimentSpec, iter_history, resolve_spec


def reprs(values) -> list[bytes]:
    return [repr(v).encode() for v in np.asarray(values, dtype=np.float64).tolist()]


def float_reprs(values) -> list[bytes]:
    """The kernel's texts, as bytes."""
    return repr_rows(values).tolist()


def kernel_lanes(values) -> int:
    """How many of ``values`` the kernel formats without falling back to repr."""
    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    inside = bits[(bits != 0) & (bits < KERNEL_BITS_LIMIT)]
    return int(_shortest(inside)[2].sum())


def neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, 0), values, np.nextafter(values, np.inf)])


@given(
    st.lists(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False),
        max_size=50,
    )
)
def test_equals_repr_on_positive_floats(values):
    assert float_reprs(np.array(values, dtype=np.float64)) == reprs(values)


def test_equals_repr_on_log_uniform_doubles():
    # Log-uniform over [5e-324, 1]: a binary exponent from the smallest
    # subnormal up, so about a twentieth are subnormal.
    rng = np.random.default_rng(20180618)
    values = np.exp2(rng.uniform(-1074, 0, 200_000))
    assert float_reprs(values) == reprs(values)
    assert kernel_lanes(values) > 0.99 * values.size


def test_equals_repr_at_powers_of_two_and_ten():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 54))
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 17)])
    values = neighbours(np.concatenate([powers_of_two, powers_of_ten]))
    assert float_reprs(values) == reprs(values)


def test_equals_repr_at_the_edges():
    values = neighbours(
        [
            5e-324,  # the smallest subnormal
            2.2250738585072014e-308,  # the smallest normal
            1.0,
            0.1 + 0.2,
            1e-4,  # the last positional repr: 0.0001
            1e-5,  # the first exponent repr below: 1e-05
            1e16,  # the first exponent repr above: 1e+16
            9999999999999998.0,
            2.0**53,
            1.5e-100,  # 3-digit exponents
            1.2345678901234567e-300,
            123.456,
            4503599627370497.5,
        ]
    )
    got = float_reprs(values)
    assert got == reprs(values)
    assert {b"0.0001", b"1e-05", b"1e+16", b"5e-324", b"0.30000000000000004"} <= set(got)
    assert any(b"e-1" in text and len(text.split(b"e-")[1]) == 3 for text in got)
    # Batches whose kernel lanes all take one form: the layout fills each
    # form by its own index, so the other form's index is empty.
    for only_one_form in ([1e-05, 1.5e-100, 5e-324], [0.1, 0.0001, 0.30000000000000004]):
        assert float_reprs(np.array(only_one_form)) == reprs(only_one_form)
        assert kernel_lanes(only_one_form) == 3


def test_every_digit_count_from_1_to_17():
    # k significant digits, then a random decimal exponent; repr keeps k
    # digits unless a shorter string reads back as the same double.
    rng = np.random.default_rng(7)
    by_count: dict[int, list[float]] = {}
    for k in range(1, 18):
        for x, e in zip(rng.uniform(1.0, 10.0, 20).tolist(), rng.integers(-300, 15, 20).tolist()):
            v = float(f"{x:.{k - 1}f}e{e}")
            mantissa = repr(v).split("e")[0]
            by_count.setdefault(len(mantissa.replace(".", "").strip("0")), []).append(v)
    assert set(by_count) == set(range(1, 18))
    values = np.array([v for vs in by_count.values() for v in vs])
    assert float_reprs(values) == reprs(values)


def test_lanes_outside_the_kernel_fall_back_to_repr():
    # Everything outside (0, 1), the doubles from 1.0 up included.
    outside = [0.0, -0.0, -1.0, -5e-324, 2.0**53, 1e300, np.inf, -np.inf, np.nan]
    outside += [1.0, np.nextafter(1.0, 2.0), 1.5, 123.456, 1e15, 4503599627370497.5]
    # 0.5 is inside (0, 1) but an exact binary fraction, which needs Ryū's
    # general case.
    values = np.array(outside + [0.5, 0.3])
    assert float_reprs(values) == reprs(values)
    assert kernel_lanes(values) == 1
    assert float_reprs(np.array([])) == []
    # No lane left for the kernel at all.
    assert float_reprs(np.array([1.0, 0.5])) == [b"1.0", b"0.5"]
    assert kernel_lanes([1.0, 0.5]) == 0


def test_every_probability_of_the_default_walk():
    # The nonzero cells of distributions.csv for the default walk at t_max
    # 200; at most 0.1 % of them may fall back to repr.
    spec = ExperimentSpec.from_json_dict({"t_max": 200})
    probs = [analysis.position_marginal(s).probs for s in iter_history(resolve_spec(spec))]
    cells = np.concatenate(probs)
    cells = cells[cells != 0]
    assert cells.size == 20_301
    assert float_reprs(cells) == reprs(cells)
    assert cells.size - kernel_lanes(cells) <= 0.001 * cells.size
