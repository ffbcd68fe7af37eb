import math

import numpy as np
import pytest

from floatlab import discretization as dz
from floatlab import dynamics as dyn
from floatlab.errors import NonDecayingTail, SingularSystem
from floatlab.spectral import PhysicalParams

P11 = PhysicalParams(1.0, 1.0)


def small_system(n=48):
    return dz.assemble(dz.default_grid(P11, n_side=n))


def scalar_system(rate=-1.0):
    return dz.SemiDiscreteSystem(np.array([[rate]]), np.zeros(1), np.zeros(1), None)


class TestStep:
    def test_scalar_trapezoidal_hand_value(self):
        stepper = dyn.Stepper(scalar_system(), 0.1)
        z1 = stepper.advance(np.array([1.0]), 0.0, 0.0)
        assert z1[0] == pytest.approx((1 - 0.05) / (1 + 0.05), abs=1e-15)

    def test_scalar_implicit_euler_hand_value(self):
        stepper = dyn.Stepper(scalar_system(), 0.1, scheme="implicit_euler")
        z1 = stepper.advance(np.array([1.0]), 0.0, 0.0)
        assert z1[0] == pytest.approx(1.0 / 1.1, abs=1e-15)

    def test_zero_state_stays_zero(self):
        system = small_system()
        grid = system.grid
        z = dyn.Stepper(system, 0.05).advance(dz.rest_state(grid).flatten(grid), 0.0, 0.0)
        assert np.all(dz.State.unflatten(z, grid).flatten(grid) == 0.0)

    def test_equilibrium_unchanged(self):
        system = small_system()
        grid = system.grid
        n = grid.n_side
        rest = dz.State(1.0, np.ones(n), np.ones(n), np.zeros(n), np.zeros(n))
        z = dyn.Stepper(system, 0.1).advance(rest.flatten(grid), 0.0, 0.0)
        out = dz.State.unflatten(z, grid)
        assert np.abs(out.flatten(grid) - rest.flatten(grid)).max() <= 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            dyn.Stepper(scalar_system(), -0.1)
        with pytest.raises(ValueError):
            dyn.Stepper(scalar_system(), math.nan)
        with pytest.raises(ValueError):
            dyn.Stepper(scalar_system(), 0.1, scheme="leapfrog")


def dense_reference(system, z0, dt, n_steps, theta, u=None, gain=None):
    """Theta-scheme march with dense solves on the (closed-loop) generator."""
    a = system.A if gain is None else system.A - np.outer(system.B, gain)
    eye = np.eye(system.dim)
    implicit, explicit = eye - theta * dt * a, eye + (1.0 - theta) * dt * a
    u = np.zeros(n_steps + 1) if u is None else u
    states = [np.asarray(z0, dtype=float)]
    for k in range(1, n_steps + 1):
        rhs = explicit @ states[-1] + dt * system.B * ((1.0 - theta) * u[k - 1] + theta * u[k])
        states.append(np.linalg.solve(implicit, rhs))
    return np.array(states)


class TestStepperAgainstDense:
    SCHEMES = [("trapezoidal", 0.5), ("implicit_euler", 1.0)]

    @staticmethod
    def relative(states, reference):
        return np.abs(states - reference).max() / np.abs(reference).max()

    @pytest.mark.parametrize("scheme,theta", SCHEMES)
    def test_open_loop_sampled_input(self, scheme, theta):
        system = small_system(24)
        z0 = dz.bump_state(system.grid).flatten(system.grid)
        dt, n_steps = 0.05, 60
        u = np.sin(0.7 * dt * np.arange(n_steps + 1))
        traj = dyn.simulate(system, z0, T=dt * n_steps, dt=dt, u=u, scheme=scheme)
        reference = dense_reference(system, z0, dt, n_steps, theta, u=u)
        assert self.relative(traj.states, reference) <= 1e-12

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

    def test_singular_implicit_matrix(self):
        dt = 0.1
        with pytest.raises(SingularSystem):
            dyn.Stepper(scalar_system(rate=2.0 / dt), dt)


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
        traj = dyn.simulate_adaptive(system, z0, dt=0.05, t_max=30.0, gain=system.C,
                                     chunk=10.0)
        assert len(constructed) == 1
        ref = dyn.simulate(system, z0, T=30.0, dt=0.05, gain=system.C)
        assert traj.states.shape == ref.states.shape
        assert np.array_equal(traj.times, 0.05 * np.arange(601))
        for got, want in ((traj.states, ref.states), (traj.inputs, ref.inputs),
                          (traj.energies, ref.energies)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_early_stop_returns_rows_up_to_the_stop(self):
        system = small_system()
        dt, chunk_steps = 0.05, 200
        traj = dyn.simulate_adaptive(system, dz.heave_state(system.grid), dt=dt,
                                     t_max=400.0, gain=system.C, stop_ratio=1e-6,
                                     chunk=chunk_steps * dt)
        k = traj.times.size - 1
        assert 0 < k < 8000 and k % chunk_steps == 0
        assert traj.states.shape == (k + 1, system.dim)
        assert traj.inputs.shape == traj.energies.shape == (k + 1,)
        g = traj.inputs ** 2 + traj.outputs() ** 2
        assert g[k] <= 1e-6 * g.max()
        # the chunk end before the stop did not pass the test
        assert g[k - chunk_steps] > 1e-6 * g[:k - chunk_steps + 1].max()


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

    def test_open_loop_array_and_callable_agree(self):
        system = small_system()
        z0 = dz.bump_state(system.grid)
        t1 = dyn.simulate(system, z0, T=0.5, dt=0.05, u=lambda t: math.sin(t))
        samples = np.sin(0.05 * np.arange(11))
        t2 = dyn.simulate(system, z0, T=0.5, dt=0.05, u=samples)
        assert np.abs(t1.states - t2.states).max() <= 1e-14

    def test_exclusive_control_arguments(self):
        system = small_system()
        with pytest.raises(ValueError):
            dyn.simulate(system, dz.rest_state(system.grid), 1.0, 0.1,
                         u=lambda t: 0.0, gain=system.C)

    def test_csv_columns(self, tmp_path):
        system = small_system()
        traj = dyn.simulate(system, dz.bump_state(system.grid), T=0.2, dt=0.05)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        assert path.read_text().splitlines()[0] == "t,H,Hdot,q_minus,q_plus,E,u"

    def test_adaptive_horizon_stops_early(self):
        system = small_system()
        traj = dyn.simulate_adaptive(system, dz.heave_state(system.grid),
                                     dt=0.05, t_max=400.0, gain=system.C,
                                     stop_ratio=1e-6, chunk=10.0)
        assert traj.times[-1] < 400.0
        g = traj.inputs**2 + traj.outputs()**2
        assert g[-1] <= 1e-6 * g.max()


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


class TestCost:
    def synthetic(self, u_fn, y=0.0, T=20.0, dt=0.01):
        system = small_system(12)
        times = dt * np.arange(int(T / dt) + 1)
        states = np.zeros((times.size, system.dim))
        inputs = np.array([u_fn(t) for t in times])
        energies = np.zeros_like(times)
        return dyn.Trajectory(times, states, inputs, energies, system)

    def test_zero_trajectory(self):
        report = dyn.cost(self.synthetic(lambda t: 0.0))
        assert report.J == 0.0 and report.tail_estimate == 0.0

    def test_exponential_input_quadrature(self):
        report = dyn.cost(self.synthetic(lambda t: math.exp(-t)))
        assert report.J == pytest.approx(0.5, abs=1e-4)
        assert report.u_part == pytest.approx(report.J)
        assert report.y_part == 0.0
        # the fitted tail is negligible against the quadrature bias here
        assert report.total == pytest.approx(0.5, abs=1e-4)
        assert 0.0 <= report.tail_estimate <= 1e-6

    def test_parts_sum_to_total(self):
        system = small_system()
        traj = dyn.simulate(system, dz.heave_state(system.grid), T=5.0, dt=0.02,
                            gain=system.C)
        report = dyn.cost(traj)
        assert report.J == pytest.approx(report.u_part + report.y_part)
        assert report.tail_estimate >= 0.0

    def test_growing_tail_rejected(self):
        with pytest.raises(NonDecayingTail):
            dyn.cost(self.synthetic(lambda t: math.exp(0.05 * t)))

    def test_report_serialization(self, tmp_path):
        report = dyn.cost(self.synthetic(lambda t: math.exp(-t)))
        path = tmp_path / "cost.json"
        report.write_json(path)
        import json
        payload = json.loads(path.read_text())
        assert set(payload) == {"J", "u_part", "y_part", "horizon", "tail_estimate"}


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
