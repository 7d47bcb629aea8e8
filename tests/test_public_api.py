"""The public API holds only what a run, a script, the gate or the benchmark uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "plap_lab"


def _public_definitions() -> dict[str, str]:
    """Top-level public functions and classes of the package, by name."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[node.name] = path.name
    return defs


def _referenced_names(path: Path) -> set[str]:
    """Names a file uses: identifiers, attributes and string constants (the
    benchmark's tracer looks functions up by name).  Imports alone and the
    definitions themselves are not uses."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_definition_has_a_user():
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += list((ROOT / "scripts").glob("*.py"))
    users += list((ROOT / "plapbench").glob("*.py"))
    users.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*(_referenced_names(p) for p in users))
    unused = sorted(f"{module}:{name}" for name, module in _public_definitions().items()
                    if name not in used)
    assert not unused, f"public definitions that only tests use: {unused}"


# parameters with a default across the package; each is a setting that tests
# and runs must cover, so the count may fall but not grow
MAX_DEFAULTED_PARAMETERS = 10


def test_defaulted_parameters_do_not_grow():
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.arguments):
                count += len(node.defaults) + sum(d is not None for d in node.kw_defaults)
    assert count <= MAX_DEFAULTED_PARAMETERS
