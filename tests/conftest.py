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

