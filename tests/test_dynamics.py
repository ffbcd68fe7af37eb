import math
import tracemalloc

import numpy as np
import pytest

from floatlab import discretization as dz
from floatlab import dynamics as dyn
from floatlab import lqr
from floatlab import verification as vf
from floatlab.errors import JumpMismatch, SingularSystem
from floatlab.spectral import PhysicalParams

P11 = PhysicalParams(1.0, 1.0)


def small_system(n=48):
    return dz.assemble(dz.default_grid(P11, n_side=n))


def scalar_system(rate=-1.0):
    return dz.SemiDiscreteSystem(np.array([[rate]]), np.zeros(1), np.zeros(1), None,
                                 np.zeros((1, 0)))


class TestStep:
    def test_scalar_trapezoidal_hand_value(self):
        stepper = dyn.Stepper(scalar_system(), 0.1)
        z1, u1 = stepper.advance(np.array([1.0]))
        assert z1[0] == pytest.approx((1 - 0.05) / (1 + 0.05), abs=1e-15)
        assert u1 == 0.0

    def test_scalar_implicit_euler_hand_value(self):
        stepper = dyn.Stepper(scalar_system(), 0.1, scheme="implicit_euler")
        z1, _ = stepper.advance(np.array([1.0]))
        assert z1[0] == pytest.approx(1.0 / 1.1, abs=1e-15)

    def test_zero_state_stays_zero(self):
        system = small_system()
        grid = system.grid
        z, _ = dyn.Stepper(system, 0.05).advance(dz.rest_state(grid).flatten(grid))
        assert np.all(dz.State.unflatten(z, grid).flatten(grid) == 0.0)

    def test_equilibrium_unchanged(self):
        system = small_system()
        grid = system.grid
        n = grid.n_side
        rest = dz.State(1.0, np.ones(n), np.ones(n), np.zeros(n), np.zeros(n))
        z, _ = dyn.Stepper(system, 0.1).advance(rest.flatten(grid))
        out = dz.State.unflatten(z, grid)
        assert np.abs(out.flatten(grid) - rest.flatten(grid)).max() <= 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            dyn.Stepper(scalar_system(), -0.1)
        with pytest.raises(ValueError):
            dyn.Stepper(scalar_system(), math.nan)
        with pytest.raises(ValueError):
            dyn.Stepper(scalar_system(), 0.1, scheme="leapfrog")


def dense_reference(system, z0, dt, n_steps, theta, gain=None):
    """Theta-scheme march with dense solves on the (closed-loop) generator."""
    a = system.A if gain is None else system.A - np.outer(system.B, gain)
    eye = np.eye(system.dim)
    implicit, explicit = eye - theta * dt * a, eye + (1.0 - theta) * dt * a
    states = [np.asarray(z0, dtype=float)]
    for _ in range(n_steps):
        states.append(np.linalg.solve(implicit, explicit @ states[-1]))
    return np.array(states)


class TestStepperAgainstDense:
    SCHEMES = [("trapezoidal", 0.5), ("implicit_euler", 1.0)]

    @staticmethod
    def relative(states, reference):
        return np.abs(states - reference).max() / np.abs(reference).max()

    @pytest.mark.parametrize("scheme,theta", SCHEMES)
    def test_open_loop_sampled_input(self, scheme, theta):
        # the open loop is the zero gain: every sampled input is +0.0
        system = small_system(24)
        z0 = dz.bump_state(system.grid).flatten(system.grid)
        dt, n_steps = 0.05, 60
        traj = dyn.simulate(system, z0, T=dt * n_steps, dt=dt, scheme=scheme)
        reference = dense_reference(system, z0, dt, n_steps, theta)
        assert self.relative(traj.states, reference) <= 1e-12
        assert traj.inputs.shape == (n_steps + 1,)
        assert np.all(traj.inputs == 0.0) and not np.any(np.signbit(traj.inputs))

    @pytest.mark.parametrize("scheme,theta", SCHEMES)
    def test_feedback_gain(self, scheme, theta):
        system = small_system(24)
        rng = np.random.default_rng(4)
        gain = 0.5 * system.C + 0.1 * rng.standard_normal(system.dim)
        z0 = dz.heave_state(system.grid).flatten(system.grid)
        dt, n_steps = 0.05, 60
        traj = dyn.simulate(system, z0, T=dt * n_steps, dt=dt, gain=gain, scheme=scheme)
        reference = dense_reference(system, z0, dt, n_steps, theta, gain=gain)
        assert self.relative(traj.states, reference) <= 1e-12
        assert np.abs(traj.inputs + reference @ gain).max() \
            <= 1e-12 * np.abs(reference @ gain).max()

    @pytest.mark.parametrize("scheme,theta", SCHEMES)
    def test_closed_loop_block(self, scheme, theta):
        # the step that simulate and feedback_costs share, on a (dim, 3)
        # block: every column, every step, every input
        system = small_system(24)
        rng = np.random.default_rng(6)
        gains = np.vstack([np.zeros(system.dim), 0.5 * system.C,
                           0.5 * system.C + 0.1 * rng.standard_normal(system.dim)])
        z0 = dz.heave_state(system.grid).flatten(system.grid)
        dt, n_steps = 0.05, 60
        stepper = dyn.Stepper(system, dt, scheme, gains)
        z = np.repeat(z0[:, None], 3, axis=1)
        states, inputs = [z], [-gains @ z0]
        for _ in range(n_steps):
            z, u = stepper.advance(z)
            states.append(z)
            inputs.append(u)
        states, inputs = np.array(states), np.array(inputs)
        assert states.shape == (n_steps + 1, system.dim, 3) and inputs.shape == (n_steps + 1, 3)
        for j, gain in enumerate(gains):
            reference = dense_reference(system, z0, dt, n_steps, theta, gain=gain)
            assert self.relative(states[:, :, j], reference) <= 1e-12
            u_ref = -reference @ gain
            assert np.abs(inputs[:, j] - u_ref).max() <= 1e-12 * max(np.abs(u_ref).max(), 1.0)

    def test_singular_implicit_matrix(self):
        dt = 0.1
        with pytest.raises(SingularSystem):
            dyn.Stepper(scalar_system(rate=2.0 / dt), dt)


def dense_samples(system, states):
    """The seven sampled columns of a state history, with the forms made dense."""
    lay = system.grid.layout
    W, G, S = (form.toarray() for form in dz.quadratic_forms(system.grid))
    return [states[:, lay.H], states @ system.C, states[:, lay.q_minus], states[:, lay.q_plus],
            0.5 * np.einsum("ti,ij,tj->t", states, W, states),
            np.einsum("ti,ij,tj->t", states, G, states),
            np.einsum("ti,ij,tj->t", states, S, states)]


class TestSegmentedMarchAgainstDense:
    """The segmented march: every sampled column and input against dense_reference, to 1e-12."""

    #: steps, steps a chunk (None: one chunk), _JUMP_PAYOFF, _COLUMNS (None:
    #: the module's); a payoff of 0 cuts every horizon into segments, and
    #: an infinite one marches every horizon as one segment
    CASES = {
        "horizon not a multiple of the segment": (2 * dyn._BLOCK + 37, None, 0.0, None),
        "chunk not a multiple of the segment": (3 * dyn._BLOCK, 50, 0.0, None),
        "horizon shorter than a segment": (40, None, 0.0, None),
        "one segment by the rule": (2 * dyn._BLOCK + 37, 50, math.inf, None),
        "rounds of two segments": (5 * dyn._BLOCK + 37, 100, 0.0, 2),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("scheme,theta", TestStepperAgainstDense.SCHEMES)
    def test_every_sample_and_input(self, monkeypatch, scheme, theta, closed, case):
        steps, chunk, payoff, columns = self.CASES[case]
        monkeypatch.setattr(dyn, "_JUMP_PAYOFF", payoff)
        if columns is not None:
            monkeypatch.setattr(dyn, "_COLUMNS", columns)
        built = []
        init = dyn._JumpMap.__init__

        def spy(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(dyn._JumpMap, "__init__", spy)
        system = small_system(24)
        # a gain that is not mirror-even, so both halves of the jump carry input
        rng = np.random.default_rng(8)
        gain = 0.5 * system.C + 0.05 * rng.standard_normal(system.dim) if closed else None
        z0 = dz.bump_state(system.grid).flatten(system.grid)
        dt = 0.05
        traj = dyn.simulate_adaptive(system, z0, dt, steps * dt, gain=gain, scheme=scheme,
                                     chunk=(chunk or steps) * dt)
        # the jump map is built exactly when the horizon has several segments
        assert len(built) == (payoff == 0.0 and steps > dyn._BLOCK)
        assert np.array_equal(traj.times, dt * np.arange(steps + 1))
        reference = dense_reference(system, z0, dt, steps, theta, gain=gain)
        u_ref = np.zeros(steps + 1) if gain is None else -reference @ gain
        wanted = [*dense_samples(system, reference), u_ref]
        for got, want in zip([*traj.samples, traj.inputs], wanted):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestJumpCheck:
    @pytest.mark.parametrize("corrupt", [lambda f: (1.0 + 1e-6) * f, lambda f: f * math.nan],
                             ids=["scaled", "nan"])
    def test_corrupted_jump_map_raises(self, monkeypatch, corrupt):
        free_power = dyn.Stepper._free_power
        monkeypatch.setattr(dyn.Stepper, "_free_power",
                            lambda self, basis: corrupt(free_power(self, basis)))
        system = small_system(24)
        with pytest.raises(JumpMismatch, match="the jump to step 64 misses the march"):
            dyn.simulate_adaptive(system, dz.bump_state(system.grid), 0.05, 20.0)


def assert_same_samples(got, want):
    """The sampled columns and inputs of two marches agree to 1e-14 relative."""
    assert got.samples.shape == want.samples.shape == (7, want.times.size)
    assert np.array_equal(got.times, want.times)
    for g, w in zip([*got.samples, got.inputs], [*want.samples, want.inputs]):
        assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()


class TestSimulateAdaptive:
    def test_full_horizon_matches_simulate(self, monkeypatch):
        system = small_system()
        z0 = dz.bump_state(system.grid)
        constructed = []
        init = dyn.Stepper.__init__

        def spy(self, *args, **kwargs):
            constructed.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(dyn.Stepper, "__init__", spy)
        ref = dyn.simulate(system, z0, T=30.0, dt=0.05, gain=system.C)
        assert len(constructed) == 1
        assert ref.states.shape == (601, system.dim)
        # three chunks, and the single chunk that simulate is
        for chunk in (10.0, 30.0):
            traj = dyn.simulate_adaptive(system, z0, dt=0.05, t_max=30.0, gain=system.C,
                                         chunk=chunk)
            assert traj.states is None
            assert np.array_equal(traj.times, 0.05 * np.arange(601))
            assert_same_samples(traj, ref)
        assert len(constructed) == 3

    def test_samples_are_the_states_columns(self):
        system = small_system()
        traj = dyn.simulate(system, dz.bump_state(system.grid, center=12.0), T=8.0,
                            dt=0.02, gain=0.5 * system.C)
        lay = system.grid.layout
        W, G, S = dz.quadratic_forms(system.grid)
        z = traj.states
        for got, want in ((traj.samples[0], z[:, lay.H]),
                          (traj.outputs(), z @ system.C),
                          (traj.samples[2], z[:, lay.q_minus]),
                          (traj.samples[3], z[:, lay.q_plus]),
                          (traj.energies, 0.5 * np.einsum("ti,ti->t", z @ W, z)),
                          (traj.samples[5], np.einsum("ti,ti->t", z @ G, z)),
                          (traj.samples[6], np.einsum("ti,ti->t", z @ S, z))):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert traj.samples[6].max() > 0.0

    def test_one_row_final_block(self):
        # a chunk of one block and one step: its last block reduces a
        # single new state, on the same path as every other block
        system = small_system()
        dt, steps = 0.05, dyn._BLOCK + 1
        z0 = dz.bump_state(system.grid)
        ref = dyn.simulate(system, z0, T=2 * steps * dt, dt=dt, gain=system.C)
        traj = dyn.simulate_adaptive(system, z0, dt=dt, t_max=2 * steps * dt,
                                     gain=system.C, chunk=steps * dt)
        assert traj.times.size == 2 * steps + 1
        assert_same_samples(traj, ref)

    def test_early_stop_returns_rows_up_to_the_stop(self, monkeypatch):
        monkeypatch.setattr(dyn, "STOP_RATIO", 1e-6)
        system = small_system()
        z0 = dz.heave_state(system.grid)
        dt, chunk_steps = 0.05, 200
        traj = dyn.simulate_adaptive(system, z0, dt=dt, t_max=400.0, gain=system.C,
                                     chunk=chunk_steps * dt)
        k = traj.times.size - 1
        assert 0 < k < 8000 and k % chunk_steps == 0
        assert traj.states is None
        assert traj.inputs.shape == traj.energies.shape == (k + 1,)
        assert_same_samples(traj, dyn.simulate(system, z0, T=k * dt, dt=dt, gain=system.C))
        g = traj.inputs ** 2 + traj.outputs() ** 2
        assert g[k] <= 1e-6 * g.max()
        # the chunk end before the stop did not pass the test
        assert g[k - chunk_steps] > 1e-6 * g[:k - chunk_steps + 1].max()

    def test_streamed_march_keeps_no_history(self):
        # the default grid and step: a 400-unit history would be 64 MB
        system = small_system(100)
        z0 = dz.bump_state(system.grid)
        peaks = []
        for t_max in (50.0, 400.0):
            tracemalloc.start()
            try:
                traj = dyn.simulate_adaptive(system, z0, dt=0.02, t_max=t_max)
                dyn.energy_balance_report(traj)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert traj.times[-1] == t_max
        assert peaks[1] < 8e6
        assert peaks[1] - peaks[0] < 2e6


class TestSimulate:
    def test_zero_initial_data(self):
        system = small_system()
        traj = dyn.simulate(system, dz.rest_state(system.grid), T=0.5, dt=0.05)
        assert np.all(traj.states == 0.0)
        assert np.all(traj.energies == 0.0)

    def test_energy_nonincreasing_without_input(self):
        system = small_system(64)
        traj = dyn.simulate(system, dz.bump_state(system.grid), T=5.0, dt=0.01)
        de = np.diff(traj.energies)
        assert np.all(de <= 1e-10 * traj.energies[0])

    def test_linearity(self):
        system = small_system()
        rng = np.random.default_rng(0)
        za = rng.standard_normal(system.dim)
        zb = rng.standard_normal(system.dim)
        ta = dyn.simulate(system, za, T=1.0, dt=0.02)
        tb = dyn.simulate(system, zb, T=1.0, dt=0.02)
        tc = dyn.simulate(system, 2.0 * za - 0.5 * zb, T=1.0, dt=0.02)
        assert np.abs(tc.states - (2.0 * ta.states - 0.5 * tb.states)).max() <= 1e-10

    def test_feedback_run_records_inputs(self):
        system = small_system()
        traj = dyn.simulate(system, dz.heave_state(system.grid), T=1.0, dt=0.02,
                            gain=system.C)
        assert traj.inputs[0] == pytest.approx(-system.C @ traj.states[0])
        assert np.any(traj.inputs != 0.0)

    def test_csv_columns(self, tmp_path):
        system = small_system()
        traj = dyn.simulate(system, dz.bump_state(system.grid), T=0.2, dt=0.05)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        assert path.read_text().splitlines()[0] == "t,H,Hdot,q_minus,q_plus,E,u"

    def test_csv_is_savetxt_of_the_states(self, tmp_path, monkeypatch):
        # formatted two rows at a time: full blocks and a last partial one
        monkeypatch.setattr(dyn, "_CSV_ROWS", 2)
        system = small_system()
        traj = dyn.simulate(system, dz.bump_state(system.grid), T=0.25, dt=0.05,
                            gain=system.C)
        traj.write_csv(tmp_path / "traj.csv")
        lay, z = system.grid.layout, traj.states
        data = np.column_stack([traj.times, z[:, lay.H], z @ system.C, z[:, lay.q_minus],
                                z[:, lay.q_plus], traj.energies, traj.inputs])
        np.savetxt(tmp_path / "ref.csv", data, delimiter=",",
                   header="t,H,Hdot,q_minus,q_plus,E,u", comments="")
        assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def per_sample_audit(trajectory):
    """(-mu*||dq/dx||^2 + u*Hdot, sponge sink) per sample, one state at a time."""
    grid = trajectory.system.grid
    a, mu, dx = grid.params.a, grid.params.mu, grid.spacing
    xl, xr = grid.x_left, grid.x_right
    sig_l, sig_r = grid.sponge(xl), grid.sponge(xr)
    rate, sink = [], []
    for z, u in zip(trajectory.states, trajectory.inputs):
        st = dz.State.unflatten(z, grid)
        hdot = st.hdot(grid)
        gradsq = np.trapezoid(np.gradient(st.q_left, dx, edge_order=2) ** 2, xl) \
            + np.trapezoid(np.gradient(st.q_right, dx, edge_order=2) ** 2, xr) \
            + 2.0 * a * hdot ** 2  # interior slope is -Hdot
        sink.append(np.trapezoid(sig_l * st.q_left ** 2, xl)
                    + np.trapezoid(sig_r * st.q_right ** 2, xr))
        rate.append(-mu * gradsq + u * hdot)
    return np.array(rate), np.array(sink)


class TestEnergyBalance:
    def test_zero_trajectory(self):
        system = small_system()
        traj = dyn.simulate(system, dz.rest_state(system.grid), T=0.5, dt=0.05)
        report = dyn.energy_balance_report(traj)
        assert report.max_defect == 0.0

    def test_equilibrium_balance_is_identically_zero(self):
        system = small_system()
        grid = system.grid
        n = grid.n_side
        rest = dz.State(1.0, np.ones(n), np.ones(n), np.zeros(n), np.zeros(n))
        traj = dyn.simulate(system, rest, T=0.5, dt=0.05)
        report = dyn.energy_balance_report(traj)
        assert np.abs(report.lhs).max() <= 1e-12
        assert np.abs(report.rhs).max() <= 1e-12

    def test_defect_refines_at_second_order(self):
        defects = []
        for n, dtv in ((100, 1e-3), (199, 5e-4)):
            system = dz.assemble(dz.default_grid(P11, n_side=n))
            traj = dyn.simulate(system, dz.bump_state(system.grid), T=1.0, dt=dtv)
            defects.append(dyn.energy_balance_report(traj).max_defect)
        assert defects[0] <= 1e-3
        assert math.log2(defects[0] / defects[1]) >= 1.7

    def test_sponge_sink_reported_separately(self):
        system = small_system(64)
        traj = dyn.simulate(system, dz.bump_state(system.grid, center=12.0),
                            T=8.0, dt=0.02)
        report = dyn.energy_balance_report(traj)
        assert report.sponge_sink.max() > 0.0
        assert report.to_json_dict()["max_sponge_sink"] > 0.0

    def test_report_matches_per_sample_loop(self):
        system = small_system(64)
        traj = dyn.simulate(system, dz.bump_state(system.grid, center=12.0),
                            T=4.0, dt=0.02, gain=0.5 * system.C)
        report = dyn.energy_balance_report(traj)
        rate, sink = per_sample_audit(traj)
        rhs = 0.5 * (rate[:-1] + rate[1:]) - 0.5 * (sink[:-1] + sink[1:])
        sink_mid = 0.5 * (sink[:-1] + sink[1:])
        assert np.abs(report.rhs - rhs).max() <= 1e-12 * np.abs(rhs).max()
        assert np.abs(report.sponge_sink - sink_mid).max() <= 1e-12 * sink_mid.max()
        assert sink_mid.max() > 0.0
        max_defect = np.abs(report.lhs - rhs).max()
        assert report.max_defect == pytest.approx(max_defect, rel=1e-12)

    def test_streamed_audit_matches_history(self):
        system = small_system(64)
        z0 = dz.bump_state(system.grid, center=12.0)
        kept = dyn.simulate(system, z0, T=8.0, dt=0.02, gain=0.5 * system.C)
        streamed = dyn.simulate_adaptive(system, z0, dt=0.02, t_max=8.0,
                                         gain=0.5 * system.C, chunk=3.0)
        assert kept.states is not None and streamed.states is None
        want = dyn.energy_balance_report(kept)
        got = dyn.energy_balance_report(streamed)
        assert want.max_defect > 0.0
        assert got.max_defect == want.max_defect
        assert got.to_json_dict() == want.to_json_dict()


def assert_costs_match_marches(system, z0, gains, n_steps, scheme):
    """feedback_costs against one simulate per gain (None the open loop), to 1e-12."""
    dt = 0.05
    rows = np.vstack([np.zeros(system.dim) if gain is None else gain for gain in gains])
    costs, z_end = dyn.feedback_costs(system, z0, rows, T=n_steps * dt, dt=dt, scheme=scheme)
    assert costs.shape == (len(gains),) and z_end.shape == (system.dim, len(gains))
    for j, gain, z in zip(costs, gains, z_end.T):
        traj = dyn.simulate(system, z0, T=n_steps * dt, dt=dt, gain=gain, scheme=scheme)
        assert traj.times.size == n_steps + 1
        want = np.trapezoid(traj.inputs ** 2 + traj.outputs() ** 2, traj.times)
        assert want > 0.0
        assert j == pytest.approx(want, rel=1e-12, abs=0.0)
        assert np.abs(z - traj.states[-1]).max() <= 1e-12 * np.abs(traj.states[-1]).max()


class TestMarchArguments:
    # the step is checked by Stepper alone, before any march divides by it
    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan])
    def test_bad_step_is_a_value_error(self, dt):
        system = small_system(16)
        z0 = dz.heave_state(system.grid)
        with pytest.raises(ValueError, match="dt must be positive"):
            dyn.simulate_adaptive(system, z0, dt=dt, t_max=1.0)
        with pytest.raises(ValueError, match="dt must be positive"):
            dyn.feedback_costs(system, z0, system.C, T=1.0, dt=dt, scheme="trapezoidal")

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
    def test_bad_horizon_is_a_value_error(self, horizon):
        system = small_system(16)
        z0 = dz.heave_state(system.grid)
        with pytest.raises(ValueError, match="t_max must be positive"):
            dyn.simulate_adaptive(system, z0, dt=0.1, t_max=horizon)
        with pytest.raises(ValueError, match="T must be positive"):
            dyn.feedback_costs(system, z0, system.C, T=horizon, dt=0.1, scheme="trapezoidal")


class TestFeedbackCosts:
    @pytest.mark.parametrize("scheme", dyn.SCHEMES)
    def test_columns_match_separate_marches(self, scheme):
        # the zero row is the open loop
        system = small_system(24)
        gains = [None, system.C, lqr.care_solve(system).gain]
        assert_costs_match_marches(system, dz.heave_state(system.grid), gains, 240, scheme)

    @pytest.mark.parametrize("scheme", dyn.SCHEMES)
    @pytest.mark.parametrize("n_steps", [dyn._BLOCK // 2, 2 * dyn._BLOCK, 2 * dyn._BLOCK + 5],
                             ids=["under_one_block", "two_blocks", "two_blocks_and_tail"])
    def test_block_boundaries_match_separate_marches(self, scheme, n_steps):
        # no block, two blocks and no stepped tail, two blocks and a tail of 5;
        # the last gain is not mirror-even, so both halves of the jump carry input
        system = small_system(24)
        rng = np.random.default_rng(8)
        gains = [None, 2.0 * system.C, lqr.care_solve(system).gain,
                 0.5 * system.C + 0.05 * rng.standard_normal(system.dim)]
        assert_costs_match_marches(system, dz.bump_state(system.grid), gains, n_steps, scheme)


class TestEnergyFeedbackInequality:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_output_energy_bounded_by_initial_energy(self, alpha):
        # u = -alpha*Hdot makes alpha * int(Hdot^2) <= E(0) for every horizon
        system = small_system(64)
        z0 = dz.heave_state(system.grid)
        traj = dyn.simulate(system, z0, T=40.0, dt=0.02, gain=alpha * system.C)
        hdot = traj.outputs()
        cumulative = np.concatenate(
            [[0.0], np.cumsum(0.02 * 0.5 * (hdot[:-1] ** 2 + hdot[1:] ** 2))])
        assert np.all(alpha * cumulative <= traj.energies[0] * (1 + 1e-9))


class TestDynamicsSuite:
    @pytest.mark.parametrize("a", [2.0, 4.0])
    def test_passes_off_unit_radius(self, a):
        # the marched bump scales with a: the preset's, at 5 of width 2,
        # overlaps the solid at a = 2 and 4, and its energy rises there by
        # more than the 1e-10 E0 the monotonicity test allows
        report = vf.suite_dynamics(PhysicalParams(a, 1.0), seed=5)
        assert report["identity_passed"] and report["passed"]
