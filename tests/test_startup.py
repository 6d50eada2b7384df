"""What a CLI run does before its scheme is built.

Every CLI run imports the package, and on a host that writes no bytecode
every module it loads is compiled again, so the CLI must not load the
standard library's ``dataclasses`` or the modules that import pulls in and
no verdict uses, nor any module beyond those its own imports load.  Both
interpreters start fresh, so modules that ``site`` loads on a given host
are in both sets and cancel out.  Of the package, ``import wreathalg``
loads no module, and each command loads only the modules it runs:
``oracle`` neither ``wreath`` nor ``decomposition``, ``export`` no check,
and ``verify`` every module it uses before its scheme is built, so that
none is compiled in verdict time.  No command loads ``cyclotomic``: the
matrices and spans of ``linalg`` are over Q.  Building a scheme, from a file or from
moduli, computes none of its parameters: the intersection data and the
transpose map are verdict work.  By the time a command's scheme is
ready, ``cli.main`` has frozen the heap that start-up made, and the
report still reaches stdout at exit.  No timing is read.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
UNUSED = ("dataclasses", "inspect", "ast", "dis", "tokenize")
# The standard-library modules that src/ imports by name.
IMPORTED = {"__future__", "argparse", "collections", "fractions", "functools", "gc",
            "importlib", "itertools", "json", "math", "operator", "os", "struct", "sys", "time"}


def _env() -> dict[str, str]:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def _run(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout


def _loaded(code: str) -> set[str]:
    return set(_run(f"{code}import sys; print('\\n'.join(sys.modules))").split())


def test_cli_loads_no_dataclasses_chain():
    added = _loaded("import wreathalg.cli; ") - _loaded("")
    assert "wreathalg.cli" in added
    assert sorted(added.intersection(UNUSED)) == []


def test_cli_loads_nothing_beyond_what_its_imports_load():
    imported = set()
    for path in (SRC / "wreathalg").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert imported == IMPORTED
    stdlib = _loaded(f"import {', '.join(sorted(IMPORTED))}; ")
    added = _loaded("import wreathalg.cli; ") - stdlib
    assert sorted(name for name in added if name.split(".")[0] != "wreathalg") == []


def test_building_a_scheme_leaves_its_parameters_uncomputed(tmp_path):
    # fresh interpreter: the package's caches hold no scheme from another test
    state = _run(
        "from wreathalg import load_scheme, save_scheme, wreath_of_cyclics\n"
        "built = wreath_of_cyclics((4, 4, 4))\n"
        f"save_scheme(built, {str(tmp_path / 'w444.table')!r})\n"
        f"for scheme in (built, load_scheme({str(tmp_path / 'w444.table')!r})):\n"
        "    print(*(name in vars(scheme) for name in ('_intersection_data', '_tensor',\n"
        "                                             '_transpose_witness')))\n"
    )
    assert state.splitlines() == ["False False False"] * 2


def _package(modules: str) -> set[str]:
    return {name for name in modules.split() if name.split(".")[0] == "wreathalg"}


def _command_loads(argv: list[str]) -> set[str]:
    """The package modules loaded in a fresh interpreter once ``cli.main``
    has run ``argv``, which must pass."""
    code = (
        "import sys\n"
        "from wreathalg.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('\\n'.join(sys.modules))\n"
    )
    return _package(_run(code))


def test_import_wreathalg_loads_no_submodule():
    assert _package(_run("import sys, wreathalg; print('\\n'.join(sys.modules))")) == {"wreathalg"}


def test_oracle_loads_neither_wreath_nor_decomposition(tmp_path):
    from wreathalg import save_scheme, wreath_of_cyclics

    table = tmp_path / "w22.table"
    save_scheme(wreath_of_cyclics((2, 2)), table)
    loaded = _command_loads(["oracle", str(table), "--out", str(tmp_path / "report.json")])
    assert "wreathalg.structure" in loaded
    assert sorted(loaded & {"wreathalg.wreath", "wreathalg.decomposition", "wreathalg.cyclotomic"}) == []


def test_export_loads_no_check(tmp_path):
    loaded = _command_loads(["export", "--moduli", "2,2", "--out", str(tmp_path / "w22.table"),
                             "--matrices", str(tmp_path / "w22.json")])
    assert "wreathalg.wreath" in loaded
    assert sorted(loaded & {"wreathalg.structure", "wreathalg.terwilliger", "wreathalg.cyclotomic"}) == []


def test_verify_loads_every_module_it_uses_before_its_scheme_is_built(tmp_path):
    # The scheme is ready when wreath_of_cyclics returns, as the benchmark
    # marks it; a module loaded after that would be compiled in verdict time.
    code = (
        "import sys\n"
        "import wreathalg.wreath as wreath\n"
        "build, ready = wreath.wreath_of_cyclics, []\n"
        "def marked(moduli):\n"
        "    scheme = build(moduli)\n"
        "    ready.append(set(sys.modules))\n"
        "    return scheme\n"
        "wreath.wreath_of_cyclics = marked\n"
        "from wreathalg.cli import main\n"
        f"assert main(['verify', '--moduli', '2,3', '--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
        "print('\\n'.join(ready[0]))\n"
        "print('--')\n"
        "print('\\n'.join(sys.modules))\n"
    )
    at_ready, _, at_exit = _run(code).partition("--")
    assert "wreathalg.decomposition" in _package(at_ready)
    assert _package(at_exit) == _package(at_ready)
    assert "wreathalg.cyclotomic" not in _package(at_exit)


def _freeze_counts(argv: list[str]) -> list[int]:
    """``gc.get_freeze_count()`` in a fresh interpreter before ``cli.main``
    runs ``argv``, which must pass, and when its scheme is ready, as
    ``wreath_of_cyclics`` or ``load_scheme`` returns it."""
    code = (
        "import gc\n"
        "import wreathalg.scheme as scheme\n"
        "import wreathalg.wreath as wreath\n"
        "frozen = [gc.get_freeze_count()]\n"
        "def marked(build):\n"
        "    def ready(source):\n"
        "        built = build(source)\n"
        "        frozen.append(gc.get_freeze_count())\n"
        "        return built\n"
        "    return ready\n"
        "wreath.wreath_of_cyclics = marked(wreath.wreath_of_cyclics)\n"
        "scheme.load_scheme = marked(scheme.load_scheme)\n"
        "from wreathalg.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(*frozen)\n"
    )
    return list(map(int, _run(code).split()))


def test_verify_and_oracle_have_frozen_the_heap_when_their_scheme_is_ready(tmp_path):
    # cli.main freezes what start-up made before the command builds its
    # scheme, so that neither the run's collections nor the exit walk it
    from wreathalg import save_scheme, wreath_of_cyclics

    table = tmp_path / "w22.table"
    save_scheme(wreath_of_cyclics((2, 2)), table)
    for argv in (["verify", "--moduli", "2,3", "--out", str(tmp_path / "v.json")],
                 ["oracle", str(table), "--out", str(tmp_path / "o.json")]):
        before, at_ready = _freeze_counts(argv)
        assert before == 0, argv[0]
        assert at_ready > 0, argv[0]


def test_verify_flushes_its_text_report_to_stdout_at_exit():
    # the heap is frozen, so the report reaches stdout by the interpreter's
    # own flush at exit
    from wreathalg.cli import VERIFY_CHECKS

    proc = subprocess.run([sys.executable, "-m", "wreathalg", "verify", "--moduli", "2,3",
                           "--format", "text"], env=_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("moduli=[2, 3] order=6 ")
    assert [line.split(":")[0] for line in lines[2:-1]] == [*VERIFY_CHECKS,
                                                           "translation-certificate"]
    assert lines[-1] == "overall: PASS"


# Each public name of the package, by the module that defines it.
DEFINED_IN = {
    "cyclotomic": ("ONE", "ZERO", "CycloNum", "cyclotomic_polynomial", "euler_phi", "rational",
                   "zeta"),
    "linalg": ("ExactMatrix", "ExactSpan"),
    "scheme": ("AxiomViolation", "CheckResult", "Scheme", "load_scheme", "save_scheme"),
    "structure": ("BasePoint", "DecompReport", "StructureError"),
    "decomposition": ("CentralIdempotentFamily", "MatrixUnitFamily", "build_central_idempotents",
                      "build_matrix_units", "check_adjacency_action", "check_block_form",
                      "check_central_idempotents", "check_commutation", "check_matrix_units",
                      "check_primary_module", "check_triple_list", "decomposition_report",
                      "dimension_formula", "matrix_block_size", "one_dim_ideal_count",
                      "predict_triple_nonzero"),
    "terwilliger": ("block_closure", "check_triply_regular", "starting_pieces"),
    "wreath": ("WreathIndex", "check_moduli", "check_translation_certificate",
               "check_vanishing_criterion", "class_indices", "cyclic_scheme", "index_from_flat",
               "indices_below_level", "num_classes", "predict_vanishing", "wreath_of_cyclics",
               "wreath_product"),
}
# The submodules that are public names too: those the eager namespace bound.
PUBLIC_MODULES = ("cyclotomic", "linalg", "scheme", "structure", "terwilliger", "wreath")


def test_the_lazy_namespace_resolves_every_public_name():
    import importlib

    import wreathalg

    assert wreathalg.__all__ == sorted(
        [name for names in DEFINED_IN.values() for name in names] + list(PUBLIC_MODULES))
    for module, names in DEFINED_IN.items():
        home = importlib.import_module(f"wreathalg.{module}")
        for name in names:
            assert getattr(wreathalg, name) is getattr(home, name), name
    for module in PUBLIC_MODULES:
        assert getattr(wreathalg, module) is sys.modules[f"wreathalg.{module}"]
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        wreathalg.no_such_name
    # dir lists every name before any has been read, in a fresh interpreter
    listed = set(_run("import wreathalg; print('\\n'.join(dir(wreathalg)))").split())
    assert sorted(set(wreathalg.__all__) - listed) == []
