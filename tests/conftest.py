import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

from cclab import dynamics
from cclab.analysis import analyze
from cclab.catalogue import load_catalogue, load_references
from cclab.curvature import scalar_curvature
from cclab.singularity import singular_locus


@pytest.fixture(scope="session")
def catalogue():
    return load_catalogue()


@pytest.fixture(scope="session")
def references():
    return load_references()


@pytest.fixture(scope="session")
def curvatures(catalogue):
    return {key: scalar_curvature(entry.system)
            for key, entry in catalogue.items()}


@pytest.fixture(scope="session")
def loci(curvatures):
    return {key: singular_locus(data) for key, data in curvatures.items()}


@pytest.fixture(scope="session")
def analyses(catalogue):
    """Full pipeline runs, shared because the numeric scans dominate cost."""
    return {key: analyze(entry.system) for key, entry in catalogue.items()}


@pytest.fixture
def no_timed_returns(monkeypatch):
    """Turn every return-map evaluation that returns into a sign-only cell,
    outward or inward by the sign of its displacement, so brackets still
    refine but no cycle gets a period."""
    evaluate = dynamics._evaluate_cell

    def without_returns(*args, **kwargs):
        cell = evaluate(*args, **kwargs)
        if cell.kind != dynamics._RETURN:
            return cell
        kind = dynamics._OUTWARD if cell.displacement > 0 else dynamics._INWARD
        return dynamics._Cell(cell.r, kind, note="return suppressed")

    monkeypatch.setattr(dynamics, "_evaluate_cell", without_returns)
