"""Every library definition is reached: a CLI mode, an acceptance criterion
or a named oracle uses it.

A top-level function or class, or a public method, of ``src/viscoflow`` passes
when its name appears (as a name or an attribute, not in an import or a
string) somewhere in ``src/`` outside its own definition, or in
``tests/test_acceptance.py``.  Code that only its own unit tests call fails
here; an oracle that only tests call is listed in ``ORACLES`` with the
reason it stays.  The check is by name, so a definition whose name is reused
elsewhere passes; it guards against regrowth, it does not prove reachability.

Every grid owns its dyadic family (``Grid.dyadic``), so no function takes
one: a parameter named ``fam`` or annotated ``DyadicFamily`` fails here,
except in the functions listed in ``FAMILY_PARAMETERS`` with their reason.

Every Fourier transform goes through ``grid.py``, so the transform counts
and the two ``numpy.fft`` calls of a workspace pass hold by construction:
an ``np.fft``/``numpy.fft`` attribute, or an import of ``numpy.fft``,
anywhere in ``src/`` outside the kernels the grid's transform counter counts
and the oracle product fails here.

Every differential map is one contraction with the grid's derivative symbol
stack ``Grid.nabla``, defined in ``operators.py``: a ``.nabla`` attribute
anywhere in ``src/`` outside ``grid.py`` and ``operators.py`` fails here, so
no module writes its own contraction with the symbols.

Every benchmark target in ``perfbench/tracer.py``'s ``TARGETS`` names a
definition in ``src/``, except those listed in ``STALE_TARGETS`` with their
reason.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from viscoflow.cli import MODES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "viscoflow"

ORACLES = (
    ("linear_rhs", "five-field linear system that the pair matrices are checked against"),
    ("evolve_pair_exact", "exact per-mode propagator behind c06's closed-form decay"),
    ("fine_grid_product", "alias-free 2x-grid product that checks every dealiased product"),
    ("refine_field", "spectral interpolation for the grid-stability checks"),
    ("matrix_product", "a target of perfbench/tracer.py; deleted together with that target"),
)

FAMILY_PARAMETERS = (
    ("besov_norm", "perfbench/workloads.py passes it a DyadicFamily"),
    ("hybrid_norm", "perfbench/workloads.py passes it a DyadicFamily"),
)


def _definitions(tree: ast.Module):
    """(qualified name, node) of every top-level function and class and of
    every public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _names(tree: ast.AST) -> Counter:
    """How often ``tree`` uses each identifier, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


MODULES = sorted(SRC.glob("*.py"))
TREES = {p: ast.parse(p.read_text()) for p in MODULES}


def _unreached(path: Path) -> list[str]:
    uses = sum((_names(tree) for tree in TREES.values()), Counter())
    allowed = (set(_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())))
               | {name for name, _ in ORACLES}
               # Runner.run dispatches getattr(self, f"mode_{mode}") over MODES
               | {f"mode_{mode}" for mode in MODES})
    return [f"{path.name}: {qual}" for qual, node in _definitions(TREES[path])
            if node.name not in allowed and uses[node.name] == _names(node)[node.name]]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_definition_is_reached(path):
    assert _unreached(path) == []


@pytest.mark.parametrize("name", [name for name, _ in ORACLES])
def test_every_oracle_is_defined(name):
    assert name in {node.name for tree in TREES.values() for _, node in _definitions(tree)}


def _takes_family(fn: ast.FunctionDef) -> bool:
    a = fn.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
    return any(p.arg == "fam" or (p.annotation is not None
                                  and "DyadicFamily" in ast.unparse(p.annotation))
               for p in params)


def test_no_function_takes_a_dyadic_family():
    allowed = {name for name, _ in FAMILY_PARAMETERS}
    takers = [f"{path.name}: {node.name}" for path, tree in TREES.items()
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name not in allowed and _takes_family(node)]
    assert takers == []


# Every Fourier transform is one the grid counts (``Grid.transforms``): it lies
# in a counted kernel of grid.py or in its uncounted oracle product.  The
# frequency tables of ``Grid.__init__`` are not transforms.
COUNTED = ("grid._inverse", "grid._forward", "grid.SpectralField.from_physical",
           "grid.fine_grid_product")
FREQUENCIES = {"grid.Grid.__init__": ("fftfreq", "rfftfreq")}


def _reaches_fft(node: ast.AST) -> bool:
    """Whether ``node`` reaches ``numpy.fft``: an ``np.fft``/``numpy.fft``
    attribute, ``import numpy.fft`` or ``from numpy(.fft) import ...`` of it."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "fft" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.fft") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.fft") or (
            node.module == "numpy" and any(a.name == "fft" for a in node.names))
    return False


def _uncounted_fft_uses(tree: ast.AST, scope: str) -> list[str]:
    """``scope:line`` of each use of ``numpy.fft`` outside ``COUNTED``, the
    scopes dotted from the module's name to the innermost definition."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _uncounted_fft_uses(node, f"{scope}.{node.name}")
            continue
        if (isinstance(node, ast.Attribute) and node.attr in FREQUENCIES.get(scope, ())
                and _reaches_fft(node.value)):
            continue
        if _reaches_fft(node) and scope not in COUNTED:
            found.append(f"{scope}:{node.lineno}")
        found += _uncounted_fft_uses(node, scope)
    return found


def test_numpy_fft_only_in_grid():
    assert _uncounted_fft_uses(TREES[SRC / "grid.py"], "elsewhere"), \
        "the check no longer sees grid.py's transforms"
    assert [use for path, tree in TREES.items()
            for use in _uncounted_fft_uses(tree, path.stem)] == []


FFT_FORMS = ["np.fft.rfftn(a)", "numpy.fft.irfftn(a)", "import numpy.fft",
             "from numpy.fft import rfftn", "from numpy import fft"]


@pytest.mark.parametrize("code, scope, found", [
    *((code, "model", ["model:1"]) for code in FFT_FORMS),
    ("def _inverse(c):\n    np.fft.irfft(c)", "grid", []),
    ("class Grid:\n    def __init__(self):\n        np.fft.rfftfreq(8)", "grid", []),
    ("class Grid:\n    def workspace(self):\n        np.fft.fftfreq(8)", "grid",
     ["grid.Grid.workspace:3"]),
    ("def _forward(v):\n    def inner():\n        np.fft.rfft(v)", "grid",
     ["grid._forward.inner:3"]),
], ids=[*FFT_FORMS, "counted kernel", "frequency table", "other method", "nested function"])
def test_numpy_fft_check_sees_each_form(code, scope, found):
    assert _uncounted_fft_uses(ast.parse(code), scope) == found


NABLA_OWNERS = ("grid.py", "operators.py")


def _nabla_uses(tree: ast.Module) -> list[int]:
    """Lines that use a ``.nabla`` attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "nabla"]


def test_nabla_read_only_in_grid_and_operators():
    assert _nabla_uses(TREES[SRC / "operators.py"]), "the check no longer sees operators.py's reads"
    outside = [f"{path.name}:{line}" for path, tree in TREES.items()
               if path.name not in NABLA_OWNERS for line in _nabla_uses(tree)]
    assert outside == []


@pytest.mark.parametrize("code", ["g.nabla", "grid.nabla[0]"])
def test_nabla_check_sees_each_form(code):
    assert _nabla_uses(ast.parse(code)) == [1]


# Every block profile is ``DyadicFamily.block_l2_profile``: the squared psi
# stack ``psi_sq`` is read only in ``dyadic.py``, so no module (the norm
# ledger included) regrows a second profile kernel.
PSI_SQ_OWNER = "dyadic.py"


def _psi_sq_uses(tree: ast.Module) -> list[int]:
    """Lines that use a ``psi_sq`` attribute or name, each once."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if (isinstance(node, ast.Attribute) and node.attr == "psi_sq")
                   or (isinstance(node, ast.Name) and node.id == "psi_sq")})


def test_psi_sq_read_only_in_dyadic():
    assert _psi_sq_uses(TREES[SRC / PSI_SQ_OWNER]), "the check no longer sees dyadic.py's reads"
    outside = [f"{path.name}:{line}" for path, tree in TREES.items()
               if path.name != PSI_SQ_OWNER for line in _psi_sq_uses(tree)]
    assert outside == []


@pytest.mark.parametrize("code", ["fam.psi_sq", "grid.dyadic.psi_sq @ p",
                                  "psi_sq = g.dyadic.psi_sq"])
def test_psi_sq_check_sees_each_form(code):
    assert _psi_sq_uses(ast.parse(code)) == [1]


# Benchmark targets that no longer resolve, with the reason; perfbench/ is
# mended apart from src/, so this list changes only with perfbench/tracer.py.
STALE_TARGETS = {
    ("viscoflow.evolve", "_difference_bnorm"):
        "the sweeps' ledger replaced it; its metric evolve.difference_norm_s reads 0",
    ("viscoflow.evolve", "Trajectory.record"):
        "the sweeps keep the march's states; evolve.trajectory_mb_computed reads 0",
}


def _tracer_targets() -> tuple:
    """``TARGETS`` of perfbench/tracer.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def _defines(module: str, qualname: str) -> bool:
    """Whether ``module`` in src/ defines ``qualname``: a top-level function
    or class, or a method of a top-level class."""
    path = SRC / f"{module.removeprefix('viscoflow.')}.py"
    body = TREES[path].body if path in TREES else []
    for part in qualname.split("."):
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == part), None)
        if node is None:
            return False
        body = node.body
    return True


def test_benchmark_targets_resolve():
    # a src/ change that renames a traced function fails here, and so does a
    # benchmark change that mends a stale target without updating the list
    targets = _tracer_targets()
    assert {t for t in targets if not _defines(*t)} == set(STALE_TARGETS)
    assert len(targets) > len(STALE_TARGETS)
