"""Which statements of src/myersonlab the benchmark traffic never executes.

    PYTHONPATH=src python tests/traffic.py

Traces line events in src/myersonlab (tracing starts before the package is
imported), builds each workload of bench/workloads.py at seed 0, runs and
checks its first three ops in a temporary directory, and prints per module
the first lines of the statements that nothing executed; docstrings are
left out. pytest does not collect this file.
"""

import ast
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = str(ROOT / "src" / "myersonlab")
hit: set[tuple[str, int]] = set()


def local(frame, event, arg):
    if event == "line":
        hit.add((frame.f_code.co_filename, frame.f_lineno))
    return local


def unexecuted(path: Path) -> list[int]:
    """First lines of the statements in path, docstrings aside, on which no line event fired."""
    missed = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or (
            isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        ):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        if not any((str(path), line) in hit for line in range(start, node.end_lineno + 1)):
            missed.append(node.lineno)
    return sorted(missed)


def trace() -> None:
    """Start recording line events in src/myersonlab, before the package is imported."""
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename.startswith(PKG) else None)


def report() -> None:
    """Stop recording and print, per module of src/myersonlab, the statements nothing executed."""
    sys.settrace(None)
    for path in sorted(Path(PKG).glob("*.py")):
        missed = unexecuted(path)
        print(f"{path.name}: {len(missed)} unexecuted:", " ".join(map(str, missed)) or "-")


def main() -> None:
    trace()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from tracing import NullTracer
    from workloads import WORKLOADS

    for cls in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as tmp:
            workload = cls(0, 3, Path(tmp), NullTracer())
            for i in range(3):
                workload.check(i, workload.run_op(i))
    report()


if __name__ == "__main__":
    main()
