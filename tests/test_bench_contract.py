"""What ``bench/`` calls of the package, with the benchmark's own argument shapes.

The benchmark imports these names directly and times others by wrapping
them, so a cleanup that deletes or renames one breaks the benchmark even
when every other test passes.
"""
import inspect
import math

import numpy as np

import pacuplan
from pacuplan import distributions, forecast, model, simulation, solver


def test_the_calls_bench_makes(default_instance):
    instance = default_instance
    schedule = pacuplan.baseline_schedule(instance)
    starts = [schedule.starts[p.id] for p in instance.patients]
    times = forecast.time_grid(0.1, instance.day_hours)
    assert times.size == 241
    k = math.ceil(model.max_expected_occupancy(instance, schedule))
    risks = [1.0 - forecast.exact_occupancy_cdf(instance.patients, starts, t, k)
             for t in times[::40]]
    assert all(0.0 <= r <= 1.0 for r in risks) and max(risks) > 0.0
    patient = next(p for p in instance.patients if p.needs_recovery)
    x = 5.0 - schedule.starts[patient.id]
    for params in (patient.surgery, patient.combined):
        assert 0.0 <= distributions.lognormal_cdf(x, params) <= 1.0
    rng = np.random.default_rng(1)
    ids = instance.patient_ids
    built = solver.construct_schedule(instance, list(rng.permutation(ids)), rng)
    assert model.check_feasibility(instance, built) == []


# The names the benchmark's tracer times: it wraps public module-level functions only.
TIMED = {
    distributions: ["poisson_binomial_cdf"],
    forecast: ["recovery_prob_matrix", "occupancy_curve", "exact_occupancy_cdf"],
    model: ["max_expected_occupancy"],
    simulation: ["generate_instance", "monte_carlo_curve"],
    solver: ["simulated_annealing"],
}


def test_timed_names_stay_module_level_functions():
    for module, names in TIMED.items():
        for name in names:
            value = getattr(module, name)
            assert inspect.isfunction(value) and value.__module__ == module.__name__, name


def test_probabilities_are_looked_up_on_the_module(default_instance, monkeypatch):
    # The benchmark counts the MEO kernel's calls by wrapping the module
    # attribute, so the kernel and the exact tail must look it up there.
    calls = []
    original = forecast.recovery_prob_matrix

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(forecast, "recovery_prob_matrix", counting)
    schedule = pacuplan.baseline_schedule(default_instance)
    model.max_expected_occupancy(default_instance, schedule)
    assert len(calls) == 1
    starts = [schedule.starts[p.id] for p in default_instance.patients]
    forecast.exact_occupancy_cdf(default_instance.patients, starts, 5.0, 3)
    assert len(calls) == 2


def test_one_tail_query_makes_one_module_level_cdf_call(default_instance, monkeypatch):
    # The benchmark counts Poisson-binomial calls (distributions.pb_calls, 241
    # on the scaled day's sweep) by wrapping the name where forecast looks it up.
    calls = []
    original = forecast.poisson_binomial_cdf

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(forecast, "poisson_binomial_cdf", counting)
    schedule = pacuplan.baseline_schedule(default_instance)
    starts = [schedule.starts[p.id] for p in default_instance.patients]
    for expected, t in enumerate((5.0, 5.1, 12.0), start=1):
        forecast.exact_occupancy_cdf(default_instance.patients, starts, t, 3)
        assert len(calls) == expected


def test_kernel_tables_keep_their_size(default_instance):
    # The bench's peak_rss_mb rests on them: for each recovery row, two phases
    # of 3T + 1 (lower, upper) pairs of uint16, T = 241 grid times.
    kernel = forecast.MeoKernel(forecast.RecoveryRows(default_instance.patients), 0.1,
                                default_instance.day_hours)
    rows, n = kernel.rows.index.size, kernel.times.size
    assert (rows, n) == (45, 241)
    assert kernel.bounds.nbytes == rows * 2 * (3 * n + 1) * 2 * 2


def test_a_second_construction_builds_no_workspace(default_instance, monkeypatch):
    # solver.construct_us times construct_schedule calls on one day: after the
    # first, a call reuses the day's workspace and times the two passes alone.
    built = []
    original = solver._Workspace.__init__

    def counting(self, instance):
        built.append(instance)
        original(self, instance)

    monkeypatch.setattr(solver._Workspace, "__init__", counting)
    monkeypatch.setattr(forecast.RecoveryRows, "_memo", None)
    rng = np.random.default_rng(1)
    for _ in range(2):
        ids = list(rng.permutation(default_instance.patient_ids))
        solver.construct_schedule(default_instance, ids, rng)
    assert len(built) == 1


def test_one_probability_call_per_annealing_evaluation(default_instance, monkeypatch):
    # forecast.kernel_calls (2501 on paper-day, 101 on scaled-day) counts the
    # module-level calls under the annealing span: one for the initial
    # schedule and one per iteration, as no GenSpec candidate breaks a cap.
    calls = []
    original = forecast.recovery_prob_matrix

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(forecast, "recovery_prob_matrix", counting)
    report = solver.simulated_annealing(default_instance, solver.SAConfig(iterations=120, seed=1))
    assert len(calls) == 121 and report.infeasible == 0
