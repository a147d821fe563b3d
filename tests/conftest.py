import pytest
from hypothesis import settings, HealthCheck

from g2lab.gauge.lattice import su2  # noqa: F401  (imported by the tests)

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def standard_structure():
    from g2lab.g2core import standard_structure
    return standard_structure()


@pytest.fixture(scope="session")
def standard_fibration():
    from g2lab.fibration import FibrationSpec, build_fibration
    return build_fibration(FibrationSpec.standard())


@pytest.fixture(scope="session")
def cs_context(standard_fibration):
    from g2lab.chernsimons import CSContext
    return CSContext(standard_fibration, standard_fibration.g2)
