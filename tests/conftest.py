"""Shared fixtures for the cbwk tests."""

import ctypes
import platform

import numpy  # noqa: F401  (loads the OpenBLAS whose core this_machine reports)
import pytest

# The BLAS and CPU on which the bitwise constants were recorded: the digests
# in test_kernel_golden.py and the OGD totals in
# test_policy.py::test_ogd_traces_do_not_depend_on_m.  Another OpenBLAS core
# (it picks one per CPU at load time) can round differently and change them.
RECORDED_ON = {
    "blas": "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
    "cpu": "x86_64 Intel(R) Xeon(R) Processor",
}


def _openblas_config() -> str:
    """The configuration string, core included, of the OpenBLAS numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return "unknown"
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return "unknown"


def _cpu() -> str:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return f"{platform.machine()} {model}".strip()


def this_machine() -> dict:
    return {"blas": _openblas_config(), "cpu": _cpu()}


@pytest.fixture(scope="session")
def recorded_on() -> str:
    """Failure note for a bitwise constant: the machine it was recorded on and this one."""
    here = this_machine()
    if here == RECORDED_ON:
        return f"recorded on this BLAS and CPU ({here['blas']}; {here['cpu']})"
    return (f"recorded on {RECORDED_ON['blas']} / {RECORDED_ON['cpu']} but run on "
            f"{here['blas']} / {here['cpu']}: a mismatch may come from the BLAS core "
            "or CPU, not from a change to the code")
