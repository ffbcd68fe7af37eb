import math

import numpy as np
import pytest

from floatlab import discretization as dz
from floatlab import dynamics as dyn
from floatlab.errors import NonDecayingTail
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
            dyn.Stepper(scalar_system(), 0.1, scheme="leapfrog")


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
