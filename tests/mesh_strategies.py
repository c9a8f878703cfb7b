"""Hypothesis strategies shared by the test modules."""
from hypothesis import strategies as st

from curlstokes.mesh import generate_square_with_hole, generate_unit_square, jitter


def jittered_meshes(max_n, hole_ns):
    """Seeded jittered unit squares (``n <= max_n``) and squares with a hole
    (``n`` drawn from ``hole_ns``)."""
    return st.builds(
        jitter,
        st.one_of(st.builds(generate_unit_square, st.integers(1, max_n)),
                  st.sampled_from(hole_ns).map(generate_square_with_hole)),
        st.integers(0, 2 ** 16))
