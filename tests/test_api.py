"""Dead-name guard: every function, class and method defined in the package
is referenced somewhere in the source, the tests or the benchmark; and every
binding site the benchmark's tracer wraps exists.

The guard matches short names only. A reference is a ``Name``, an
``Attribute``, an import alias or a string constant that is a name or a
dotted path (as in the tracer's binding table), anywhere in ``src/``,
``tests/`` or ``perfbench/``. It therefore catches only names referenced
nowhere: a dead method passes as long as anything else of the same name is
used, and a function that only calls itself counts as referenced. Dunder
methods are exempt, since the language calls them.
"""

import ast
import importlib
import importlib.util
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "monocoh"
SEARCHED = ("src", "tests", "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def defined_names() -> dict[str, str]:
    """{short name: where} for module-level functions and classes and the
    non-dunder methods of module-level classes."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.setdefault(node.name, f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not (
                        member.name.startswith("__") and member.name.endswith("__")
                    ):
                        out.setdefault(
                            member.name, f"{path.stem}.{node.name}.{member.name}"
                        )
    return out


def referenced_names() -> set[str]:
    seen: set[str] = set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, ast.alias):
                    seen.update(node.name.split("."))
                    if node.asname:
                        seen.add(node.asname)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if DOTTED.fullmatch(node.value):
                        seen.update(node.value.split("."))
    return seen


def test_every_defined_name_is_referenced():
    defined = defined_names()
    assert "cohomology_tables" in defined and "csv_line" in defined
    seen = referenced_names()
    dead = sorted(where for name, where in defined.items() if name not in seen)
    assert not dead, f"defined but referenced nowhere: {dead}"


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_binding_sites_resolve():
    # the tracer wraps these (module, name) pairs by name, so a rename in the
    # package would break ``perfbench/run.py --trace 1``
    tracer = load_tracer()
    assert tracer.TRACED_FUNCTIONS
    for module, name, _span in tracer.TRACED_FUNCTIONS:
        fn = getattr(importlib.import_module(module), name, None)
        assert callable(fn), f"{module}.{name} is not a callable"


def test_tracer_observes_one_scan_of_the_box():
    # the tracer's observers read the values the package returns: the scan's
    # count is ``result.shape[0]`` of one 2-D array, which for one table is
    # every cell of its rho + 1 box
    tracer = load_tracer()
    importlib.import_module("monocoh.cli")  # every module the tracer wraps
    mc = importlib.import_module("monocoh.monomial_core")
    I = mc.parse_ideal("x1^2*x2, x2^3*x3, x1*x3^2", 3)
    cells = math.prod(r + 1 for r in mc.var_degree_bounds(I).rho)
    recorder = tracer.Tracer()
    installed = tracer.Installation(recorder)
    try:
        table = importlib.import_module("monocoh.takayama").cohomology_table(I, 1)
    finally:
        installed.restore()
    assert table.dims.size
    assert recorder.summary()[1]["_kernels.scan_face_masks"] == 1
    assert recorder.layer_metrics(0)["kernels.scan_patterns"] == cells == 36
