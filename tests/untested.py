"""Which statements of src/myersonlab no tier-1 test executes.

    PYTHONPATH=src python tests/untested.py

Traces line events in src/myersonlab with tests/traffic.py's tracer
(tracing starts before the package is imported), runs the tier-1 suite,
every test_*.py under tests/, in this process, and prints per module the
first lines of the statements that no test executed; docstrings are left
out. The suite's own result is printed above the listing and does not
change it. pytest does not collect this file.
"""

import pytest
from traffic import ROOT, report, trace


def main() -> None:
    trace()
    pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")])
    report()


if __name__ == "__main__":
    main()
