import numpy as np
import pytest

from proctensor import (
    RestrictedProcessTensor,
    cnot_cz_process,
    cz_cnot_process,
    generate_records,
)


@pytest.fixture(scope="session")
def cnot_cz_spec():
    return cnot_cz_process()


@pytest.fixture(scope="session")
def cz_cnot_spec():
    return cz_cnot_process()


@pytest.fixture(scope="session")
def cnot_cz_records(cnot_cz_spec):
    return generate_records(cnot_cz_spec)


@pytest.fixture(scope="session")
def cz_cnot_records(cz_cnot_spec):
    return generate_records(cz_cnot_spec)


@pytest.fixture(scope="session")
def cnot_cz_fit(cnot_cz_records):
    return RestrictedProcessTensor().fit(cnot_cz_records)


@pytest.fixture(scope="session")
def cz_cnot_fit(cz_cnot_records):
    return RestrictedProcessTensor().fit(cz_cnot_records)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_density(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
