from pathlib import Path

import pytest
from hypothesis import settings

from causalspaces.document import load_document, to_causal_space
from causalspaces.generators import gen_dormant_space
from causalspaces.kernels import CausalKernel

settings.register_profile("suite", max_examples=30, deadline=None, derandomize=True)
settings.load_profile("suite")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
INSURANCE = FIXTURES / "insurance.json"


@pytest.fixture(scope="session")
def insurance_doc():
    return load_document(INSURANCE)


@pytest.fixture(scope="session")
def insurance(insurance_doc):
    return to_causal_space(insurance_doc)


@pytest.fixture(scope="session")
def copy_space():
    return gen_dormant_space()


@pytest.fixture()
def insurance_path():
    return str(INSURANCE)


@pytest.fixture()
def kernel_constructions(monkeypatch):
    """The coordinate subsets of every CausalKernel built while the test runs, in order."""
    built = []
    original = CausalKernel.__post_init__

    def counting(self):
        built.append(self.coords)
        original(self)

    monkeypatch.setattr(CausalKernel, "__post_init__", counting)
    return built
