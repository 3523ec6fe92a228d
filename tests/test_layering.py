"""The package's import layering, read from each module's source.

Every import counts, including those inside function bodies: a call-time
import is still a dependency, only a late one.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cstar_mixing"
MODULES = {p.stem for p in SRC.glob("*.py")}

# the modules below the checks, lowest first
LOWER = ("errors", "config", "algebra", "channel", "orbit", "spectral",
         "sequences")
UPPER = ("mixing", "models", "serialize", "cli")

# Upward imports allowed by name. ``channel.canonical_invariant_state`` and
# ``channel.invariant_states`` read the operator's memoized spectral data,
# and ``spectral`` imports ``channel`` for ``MarkovOperator``, so channel
# imports spectral inside those functions; a module-level import would be
# circular.
UPWARD = {("channel", "spectral")}


def _imports(module: str) -> dict[str, bool]:
    """Package modules that ``module`` imports, each mapped to whether any
    of its imports sits at module level."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    top = {id(node) for node in tree.body}
    found: dict[str, bool] = {}

    def add(name: str, node: ast.AST) -> None:
        found[name] = found.get(name, False) or id(node) in top

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # "from .x import y" and "from cstar_mixing.x import y" import x;
            # "from . import y" imports y if it is a module, else the root
            base = (f"cstar_mixing.{node.module or ''}".rstrip(".")
                    if node.level else node.module or "")
            names = [base] if base != "cstar_mixing" else [
                f"{base}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "cstar_mixing":
                inner = parts[1] if len(parts) > 1 else "__init__"
                add(inner if inner in MODULES else "__init__", node)
    return found


def test_layers_name_every_module():
    assert set(LOWER) | set(UPPER) | {"__init__"} == MODULES


def test_orbit_imports_only_algebra_and_channel():
    assert set(_imports("orbit")) <= {"algebra", "channel"}


def test_no_lower_module_imports_the_checks_or_their_callers():
    upward = {(m, dep) for m in LOWER for dep in _imports(m) if dep in UPPER}
    assert upward == set()


def test_lower_modules_import_only_modules_below_them():
    upward = {(m, dep) for i, m in enumerate(LOWER)
              for dep in _imports(m) if dep not in LOWER[:i]}
    assert upward == UPWARD
    # the allowed upward imports stay inside function bodies
    assert not any(_imports(m)[dep] for m, dep in UPWARD)


def test_only_sequences_calls_the_dyadic_decrease_test():
    # every estimator verdict goes through ``sequences.decide``; a second
    # caller of the raw test would be a second decision path
    callers = set()
    for module in MODULES:
        for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(
                    f, "id", None)
                if name == "dyadic_decreasing":
                    callers.add(module)
    assert callers <= {"sequences"}
