import pytest
from hypothesis import settings

from crosswise.evaluate import TrainConfig, build_dataset, train
from crosswise.geom import demo_geometry
from crosswise.ingest import ScenarioSpec, generate_scenario

# Property tests replay the same examples on every run, and a slow shared
# host cannot fail them on time.
settings.register_profile("crosswise", derandomize=True, deadline=None)
settings.load_profile("crosswise")


@pytest.fixture(scope="session")
def geometry():
    return demo_geometry()


@pytest.fixture(scope="session")
def small_scenario(geometry):
    """40 zero-noise tracks; shared by unit tests that need a real stream."""
    spec = ScenarioSpec(n_vrus=40, noise_sigma=0.0, dropout=0.0, seed=42)
    return generate_scenario(spec, geometry)


@pytest.fixture(scope="session")
def small_dataset(geometry, small_scenario):
    records, truths = small_scenario
    return build_dataset(records, truths, geometry)


@pytest.fixture(scope="session")
def small_model(small_dataset):
    """A quickly trained model for pipeline-level tests."""
    return train(small_dataset, TrainConfig(epochs=3, seed=5)).params


# --- acceptance-scale fixtures (built once per session) ---------------------


@pytest.fixture(scope="session")
def zero_noise_benchmark(geometry):
    spec = ScenarioSpec(n_vrus=200, noise_sigma=0.0, dropout=0.0, seed=1001)
    records, truths = generate_scenario(spec, geometry)
    return build_dataset(records, truths, geometry)


@pytest.fixture(scope="session")
def noisy_benchmark(geometry):
    spec = ScenarioSpec(n_vrus=1000, noise_sigma=2.0, dropout=0.05, seed=1002)
    records, truths = generate_scenario(spec, geometry)
    return build_dataset(records, truths, geometry)


@pytest.fixture(scope="session")
def noisy_model_result(noisy_benchmark):
    return train(noisy_benchmark, TrainConfig(epochs=8, seed=7))
