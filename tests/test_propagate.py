import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from padvio.imu import propagate
from padvio.manifold import exp_map

from conftest import random_rotation


def _step_one_at_a_time(R, v, p, omega, accel, dt, g):
    # the recursion of the propagate docstring, one step at a time, as its oracle
    states = [(R, v, p)]
    for w, a, h in zip(omega, accel, dt):
        world_accel = R @ a
        p = p + v * h + 0.5 * g * h * h + 0.5 * world_accel * h * h
        v = v + g * h + world_accel * h
        R = R @ exp_map(w * h)
        states.append((R, v, p))
    return [np.array(field) for field in zip(*states)]


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(0, 40),
    lead=st.sampled_from([(), (3,), (2, 3)]),
    gravity=st.sampled_from([np.zeros(3), np.array([0.0, 0.0, 9.81]), np.array([0.3, -0.2, 9.7])]),
    shared=st.sampled_from(["nothing", "start", "readings"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_propagate_matches_per_step_recursion(m, lead, gravity, shared, seed):
    # a shared start or shared readings carry no leading axes and broadcast
    rng = np.random.default_rng(seed)
    readings_lead = () if shared == "readings" else lead
    omega = rng.normal(0.0, 1.0, readings_lead + (m, 3))
    accel = rng.normal(0.0, 5.0, readings_lead + (m, 3))
    dt = rng.uniform(1e-3, 0.05, readings_lead + (m,))
    start_lead = () if shared == "start" else lead
    R = np.array([random_rotation(rng) for _ in range(int(np.prod(start_lead)))]).reshape(start_lead + (3, 3))
    v = rng.normal(0.0, 1.0, start_lead + (3,))
    p = rng.normal(0.0, 3.0, start_lead + (3,))

    Rs, vs, ps = propagate(R, v, p, omega, accel, dt, gravity)
    assert Rs.shape == lead + (m + 1, 3, 3)
    assert vs.shape == ps.shape == lead + (m + 1, 3)
    for index in np.ndindex(lead):
        start = () if shared == "start" else index
        at = () if shared == "readings" else index
        expected = _step_one_at_a_time(R[start], v[start], p[start], omega[at], accel[at], dt[at], gravity)
        for got, want in zip((Rs[index], vs[index], ps[index]), expected):
            np.testing.assert_array_equal(got, want)
