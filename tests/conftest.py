import pytest

from deltasum import modforms, pipeline


@pytest.fixture(scope="session")
def delta_form():
    return modforms.builtin_form("Delta_1_12")


@pytest.fixture(scope="session")
def level11_form():
    return modforms.builtin_form("E2_11_2")


@pytest.fixture(scope="session")
def all_forms():
    return {fid: modforms.builtin_form(fid) for fid in modforms.BUILTIN_FORM_IDS}


@pytest.fixture(scope="session")
def moment_window():
    return pipeline.default_moment_window()
