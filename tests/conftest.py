from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, settings

import sopra._kernel
from sopra import build_scenario
from sopra.scenarios import bundled_document, load_bundled


# tests/mutants.py runs its test files under this profile: a mutant is
# killed by any failing example, so the gate neither shrinks one nor
# replays one that an earlier run saved.
settings.register_profile("mutants", phases=[Phase.explicit, Phase.generate], database=None)


def pytest_sessionstart(session):
    """Build the compiled kernel when it is not importable and g++ is.

    Runs before collection, so the parity tests' skip marks see the result.
    The extension is compiled, with the flags setup.py uses, into a
    temporary directory that lasts the session, never into src/, then
    loaded as sopra._kernel._chabits; subprocesses load it from there too
    (tests/test_processes.py). A compile error ends the session; only a
    missing compiler leaves the parity tests skipped.
    """
    if "compiled" in sopra._kernel.available_backends():
        return
    cxx = shutil.which("g++")
    if cxx is None:
        return
    name = "sopra._kernel._chabits"
    source = Path(sopra._kernel.__file__).with_name("_chabits.cpp")
    tmp = tempfile.TemporaryDirectory(prefix="sopra-kernel-")
    session.config.add_cleanup(tmp.cleanup)
    target = Path(tmp.name) / ("_chabits" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [cxx, "-O3", "-ffp-contract=off", "-shared", "-fPIC",
           "-I" + sysconfig.get_paths()["include"], str(source), "-o", str(target)]
    built = subprocess.run(cmd, capture_output=True, text=True)
    if built.returncode != 0:
        pytest.exit(f"compiled kernel failed to build:\n{built.stderr}", returncode=1)
    spec = importlib.util.spec_from_file_location(name, target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    importlib.reload(sopra._kernel)  # re-runs backend selection


# (criterion, passed, detail) records from tests using the `acceptance`
# fixture; replayed as one line each in the terminal summary.
_ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


@pytest.fixture()
def acceptance(request):
    """Records a named pass/fail verdict for an acceptance criterion.

    The criterion name is the test name with the test_ prefix stripped
    and underscores dashed. Returns the verdict so tests can write
    `assert acceptance(ok, detail)`. A test that errors out before
    recording still produces a FAIL line.
    """
    name = request.node.originalname.removeprefix("test_").replace("_", "-")
    recorded: list[bool] = []

    def record(ok: bool, detail: str = "") -> bool:
        recorded.append(bool(ok))
        _ACCEPTANCE_RESULTS.append((name, bool(ok), detail))
        return bool(ok)

    yield record
    if not recorded:
        _ACCEPTANCE_RESULTS.append((name, False, "test errored before the check"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in _ACCEPTANCE_RESULTS:
        line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def commuting():
    return load_bundled("commuting")


@pytest.fixture()
def commuting_doc():
    return bundled_document("commuting")


@pytest.fixture(scope="session")
def cascade():
    return load_bundled("cascade")


@pytest.fixture(scope="session")
def extensions_demo():
    return load_bundled("extensions_demo")
