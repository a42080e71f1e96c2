import numpy as np

# numpy 1.25+ keeps its warning classes in np.exceptions; 1.24 on np itself
_COMPLEX_WARNING = getattr(np, "exceptions", np).ComplexWarning

ACCEPTANCE_LINES = []


def pytest_configure(config):
    # a ComplexWarning means an imaginary part was silently dropped
    config.addinivalue_line(
        "filterwarnings",
        f"error::{_COMPLEX_WARNING.__module__}.{_COMPLEX_WARNING.__qualname__}")
    # a RuntimeWarning means numpy overflowed, divided by zero or made a NaN
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


def record_criterion(n, passed, detail):
    ACCEPTANCE_LINES.append((n, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for n, passed, detail in sorted(ACCEPTANCE_LINES):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{status} criterion {n}: {detail}")
