"""Layout guards: the package holds no code that only the tests use, keeps the dense route off the hot path, one module forks on setting B, no module imports scipy, one module lays out a comparison, every command draws through ``scenarios.draw``, one function reads the sweep configs, one module writes files, a search and the template oracle have one columnar result type, a search has one two-pass pruned grid scan, one width gate of its head and tail split, one start of its basins and one Newton iteration with one head and tail split, one table of tail moments that the scan and Newton read, the template has one array evaluator, numpy's own loop forms the grid scan's dot products and no risk sum goes through BLAS, and no module draws from a numpy stream.

A public function, class or method defined in ``src/mtkrr`` counts as used
only if a package module other than ``__init__.py`` references it, or a
fenced code block of the README (the library example, the config schema and
example, the shell commands) names it.  Exporting it from
``mtkrr/__init__.py`` or naming it in README prose is not a use.
Validation-only code (the dense Kronecker route, reference evaluators,
brute-force searches, formulas no command evaluates) belongs in ``tests/``,
most of it in ``tests/reference.py``.
"""

import ast
import importlib
import inspect
import json
import re
from collections import Counter
from pathlib import Path

import mtkrr
from mtkrr.cli import main

PACKAGE = Path(mtkrr.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _definitions(tree: ast.Module, module):
    """(qualified name, key of its uses) of every public function, class and method of ``module``.

    A top-level definition's uses are keyed ``module.name`` and a method's ``.name`` (see ``_references``).
    A function bound by a top-level assignment (``gen = make(...)``) counts too.
    """
    stem = module.__name__.rpartition(".")[2]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, f"{stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", f".{member.name}"
        elif isinstance(node, ast.Assign):
            names = [name.id for target in node.targets for name in ast.walk(target) if isinstance(name, ast.Name)]
            for name in names:
                if not name.startswith("_") and inspect.isfunction(getattr(module, name, None)):
                    yield name, f"{stem}.{name}"


def _references(tree: ast.Module, stem: str) -> Counter:
    """Every use in module ``stem`` of a name that may resolve to a package definition.

    A name resolves to a top-level definition, keyed ``module.name``, where it is loaded in its own
    module, read as an attribute of a package module imported by ``from . import``, or imported by
    ``from .module import``.  Any other attribute, keyed ``.name``, may be a method: an attribute that
    shares a function's name (a dataclass field, say) is no use of the function.
    """
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None for alias in node.names}
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used[f"{stem}.{node.id}"] += 1
        elif isinstance(node, ast.Attribute):
            module = modules.get(node.value.id) if isinstance(node.value, ast.Name) else None
            used[f"{module or ''}.{node.attr}"] += 1
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            used.update(f"{node.module}.{alias.name}" for alias in node.names)
    return used


def _readme_names() -> set[str]:
    """Every identifier of the README's fenced code blocks; an inline code span is prose, not a use."""
    code = re.findall(r"```.*?```", README.read_text(), flags=re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def test_every_public_definition_is_used_by_the_package_or_the_readme():
    modules = {path: importlib.import_module("mtkrr" if path.stem == "__init__" else f"mtkrr.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py"))}
    trees = {path: ast.parse(path.read_text()) for path in modules}
    used = sum((_references(tree, path.stem) for path, tree in trees.items() if path.stem != "__init__"), Counter())
    readme = _readme_names()
    unused = [f"{path.stem}.{name}" for path, tree in trees.items() for name, key in _definitions(tree, modules[path])
              if not used[key] and name.rpartition(".")[2] not in readme]
    assert not unused, f"defined in src/mtkrr but used only outside it (move to tests/reference.py): {unused}"


def test_a_field_that_shares_a_function_name_is_no_use_of_it():
    """Only a name that resolves to a package definition counts as its use (``riskfn.epsilon_cap`` once shared
    its name with the field ``Bounds.epsilon_cap``, which no guard could then tell apart)."""
    tree = ast.parse("from . import riskfn\nfrom .optimize import Search\n"
                     "def run(bounds):\n    return bounds.epsilon_cap, riskfn.kappa(2, 2), Search, run\n")
    used = _references(tree, "cli")
    assert used["riskfn.epsilon_cap"] == 0 and used[".epsilon_cap"] == 1
    assert used["riskfn.kappa"] == used["optimize.Search"] == used["cli.run"] == 1


def test_no_module_builds_the_dense_operator():
    """The np x np Kronecker route is a validation oracle: ``np.kron`` and ``np.linalg.inv`` stay in ``tests/``."""
    dense = [f"{path.name}: {ast.unparse(node)}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and ast.unparse(node) in ("np.kron", "np.linalg.inv")]
    assert not dense, f"modules of src/mtkrr use the dense route: {dense}"


def test_only_scenarios_names_the_spline_setting():
    """Setting B differs from the synthetic kinds only inside ``scenarios.draw``; no other module forks on it."""
    forks = [path.name for path in sorted(PACKAGE.glob("*.py")) if path.name != "scenarios.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "SETTING_B"]
    assert not forks, f"modules other than scenarios.py name ScenarioKind.SETTING_B: {forks}"


def test_no_module_imports_scipy():
    """The package needs numpy alone: scipy serves only the tests' quadrature, ``zeta`` and ``betainc`` oracles."""
    importers = [f"{path.name}: {ast.unparse(node)}" for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
                 or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"]
    assert not importers, f"package modules import scipy: {importers}"


def test_only_oracles_lays_out_a_comparison():
    """``estimators.comparison_rows`` builds the p + 2 rows of a comparison, and only ``oracles`` calls it."""
    callers = [f"{path.name}: {ast.unparse(node)}" for path in sorted(PACKAGE.glob("*.py")) if path.name != "oracles.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "comparison_rows"]
    assert not callers, f"modules other than oracles.py call comparison_rows: {callers}"


def test_every_command_draws_through_the_work_list():
    """``oracle`` and the sweeps draw through ``scenarios.draw``: no package module calls ``build_ensemble``.

    ``build_ensemble`` stays the library's one-ensemble form, with its setting-B basis (README example).
    """
    callers = [f"{path.name}: {ast.unparse(node)}" for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "build_ensemble"]
    assert not callers, f"package modules call build_ensemble: {callers}"


def test_only_the_sweep_runs_experiments():
    """``experiment``, ``table`` and ``heatmap`` read their configs through ``cli._sweep``: no other code calls ``run_experiments``."""
    callers, sweep_calls = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        sweep = {id(node) for top in tree.body if path.name == "cli.py" and getattr(top, "name", None) == "_sweep"
                 for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "run_experiments":
                if id(node) in sweep:
                    sweep_calls += 1
                else:
                    callers.append(f"{path.name}: {ast.unparse(node)}")
    assert sweep_calls == 1, "cli._sweep no longer runs the experiments"
    assert not callers, f"package code outside cli._sweep calls run_experiments: {callers}"


def test_only_render_writes_files():
    """``render`` decides the bytes of every data file: no other module calls ``open`` or imports csv or json."""
    writers = [f"{path.name}: {ast.unparse(node)}" for path in sorted(PACKAGE.glob("*.py")) if path.name != "render.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "open"
               or isinstance(node, ast.Import) and {alias.name for alias in node.names} & {"csv", "json"}
               or isinstance(node, ast.ImportFrom) and node.module in ("csv", "json")]
    assert not writers, f"modules other than render.py write files or know a data format: {writers}"


def test_a_search_result_is_columnar():
    """``minimize_profiles`` returns one ``Search`` of arrays, and the template oracle of ``minimize_risks`` is that
    ``Search`` beside the envelope: no module defines or names the per-row ``ProfileMinimum``, the per-cell
    ``BoundReport`` or its one-cell ``minimize_risk`` (test helpers in ``tests/reference.py``)."""
    named = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in ("ProfileMinimum", "BoundReport", "minimize_risk")
             if re.search(rf"\b{name}\b", path.read_text())]
    assert not named, f"modules of src/mtkrr define or name a per-row or per-cell oracle result: {named}"


def test_the_template_rules_are_written_once():
    """``riskfn.cell_errors`` checks the template's parameters on columns, and it alone states their rules: no module
    names the one-cell record ``RiskParams`` (a test helper in ``tests/reference.py``), each rule's message is
    written once in ``riskfn``, the CLI writes none of them and wraps no ``riskfn`` call in ``try``."""
    from mtkrr.riskfn import _RULES

    texts = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    named = [name for name, text in texts.items() if re.search(r"\bRiskParams\b", text)]
    assert not named, f"modules of src/mtkrr name RiskParams: {named}"
    assert [texts["riskfn.py"].count(f'"{message}"') for message in _RULES] == [1] * len(_RULES)
    assert not [message for message in _RULES if message in texts["cli.py"]]
    wrapped = [ast.unparse(node.body[0]) for node in ast.walk(ast.parse(texts["cli.py"])) if isinstance(node, ast.Try)
               and any(isinstance(sub, ast.Name) and sub.id == "riskfn" for part in node.body for sub in ast.walk(part))]
    assert not wrapped, f"the CLI wraps a riskfn call in try: {wrapped}"


def test_the_template_has_one_array_evaluator():
    """``riskfn.template_parts`` forms the template's sums with the engine's: no module names a scalar reference.

    ``RidgeRiskProfile`` (one curve at one lambda), ``template_profile`` and ``synth_spectrum`` are
    validation oracles in ``tests/reference.py``.
    """
    named = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in ("RidgeRiskProfile", "template_profile", "synth_spectrum")
             if re.search(rf"\b{name}\b", path.read_text())]
    assert not named, f"modules of src/mtkrr define or name a scalar template reference: {named}"
    # and it squares nothing itself: b^2 and sum a^2 come from the grid scan's ``optimize._squares``
    [parts] = [top for top in ast.parse((PACKAGE / "riskfn.py").read_text()).body
               if getattr(top, "name", None) == "template_parts"]
    squares = [ast.unparse(node) for node in ast.walk(parts)
               if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "square"
               or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and ast.unparse(node.right) == "2"]
    assert not squares, f"riskfn.template_parts squares a term itself: {squares}"


def test_the_search_keeps_its_signature_and_one_pruned_grid_scan():
    """``minimize_profiles`` takes no pruning, grid or split knob, and the package scans the risk grid in one place.

    Grid values are formed only by ``optimize._squares`` and ``optimize._dot`` inside ``optimize._scan``, and
    ``_scan`` runs only in ``minimize_profiles``, twice: over ``COARSE`` and then over ``FINE``, which are
    disjoint and together take every grid point, whatever the width.  ``_scan`` forms every row's bias sums,
    narrow or wide, at one call of ``_dot``.  The other callers of ``_squares`` and ``_dot`` are
    ``riskfn.template_parts``, so the template curve has the grid scan's arithmetic, and ``_tails``, whose
    signal moments are dot products of ``_dot``.  The unpruned 64-point scan is a validation oracle in
    ``tests/reference.py``.
    """
    from mtkrr import optimize
    from mtkrr.optimize import minimize_profiles

    parameters = inspect.signature(minimize_profiles).parameters
    assert list(parameters) == ["n", "gamma", "signal", "noise", "spectrum", "curve", "times"]
    assert parameters["spectrum"].default is parameters["curve"].default is parameters["times"].default is None
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("_squares", "_dot", "_scan"):
                    calls.append((f"{path.stem}.{getattr(top, 'name', '<module>')}", ast.unparse(node.func),
                                  ast.unparse(node.args[4]) if len(node.args) > 4 else None, node.lineno))
    squares = sorted(where for where, func, _, _ in calls if func.endswith("_squares"))
    scans = [(where, points) for where, func, points, _ in sorted(calls, key=lambda call: call[3])
             if func.endswith("_scan")]
    dots = sorted(where for where, func, _, _ in calls if func.endswith("_dot"))
    assert squares == ["optimize._scan", "riskfn.template_parts"], f"risk values formed elsewhere: {squares}"
    assert dots == ["optimize._scan", "optimize._tails", "riskfn.template_parts"], f"dots elsewhere: {dots}"
    assert scans == [("optimize.minimize_profiles", "COARSE"), ("optimize.minimize_profiles", "FINE")], scans
    coarse, fine = optimize.COARSE.tolist(), optimize.FINE.tolist()
    assert not set(coarse) & set(fine)
    assert sorted(coarse + fine) == list(range(optimize.DEFAULT_GRID_POINTS))


def test_only_the_tail_table_reads_the_split_width():
    """``optimize.SPLIT_WIDTH`` is read only in ``optimize._tails``: whether a search splits its rows into a head
    and a tail is one decision, the table's, and no other package function forks on the width."""
    reads = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == "SPLIT_WIDTH"
                        or isinstance(node, ast.Attribute) and node.attr == "SPLIT_WIDTH"):
                    reads.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert reads == {"optimize._tails"}, reads


def test_the_search_starts_its_basins_once_and_refines_them_once():
    """``minimize_profiles`` places every basin's start with one ``_model_start`` call and refines every basin with
    one ``_newton`` call, and no other package function calls either: one start and one Newton iteration."""
    calls = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("_model_start", "_newton"):
                    calls[(f"{path.stem}.{getattr(top, 'name', '<module>')}", ast.unparse(node.func))] += 1
    assert calls == {("optimize.minimize_profiles", "_model_start"): 1, ("optimize.minimize_profiles", "_newton"): 1}


def test_newton_sets_up_its_split_once_and_no_module_imports_a_test_helper():
    """``_newton`` sets up the head and tail of its basins with one ``_split`` call, and no other package function
    calls ``_split``; no package module imports mpmath or a test helper (``conftest``, ``reference``), so no
    switch of the split's gate or of its series lives in the package."""
    calls, imports = Counter(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_split":
                    calls[(f"{path.stem}.{getattr(top, 'name', '<module>')}", ast.unparse(node.func))] += 1
                names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else \
                    [node.module or ""] if isinstance(node, ast.ImportFrom) else []
                imports += [(path.name, name) for name in names
                            if name.split(".")[0] in ("mpmath", "conftest", "reference", "tests")]
    assert calls == {("optimize._newton", "_split"): 1}
    assert imports == [], f"package modules import a test helper: {imports}"


def test_one_table_holds_the_tail_moments_and_the_scan_and_newton_read_it():
    """``optimize._tails`` builds a search's table of tail moments, and only ``minimize_profiles`` calls it, once;
    ``_scan`` and ``_split`` take it as ``tails`` and are the package's readers of its signal moments; and no other
    package function slices the eigen-axis (the last) of ``gamma`` or ``signal`` from past its start, so no module
    sums tail moments anywhere else: ``_dot`` alone also cuts the signal, into the chunks that together cover its
    whole axis."""
    from mtkrr import optimize

    calls, readers, tail_slices = Counter(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_tails":
                    calls[where] += 1
                elif isinstance(node, ast.Attribute) and ast.unparse(node) == "tails.signal":
                    readers.add(where)
                elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                      and node.value.id in ("gamma", "signal") and isinstance(node.slice, ast.Tuple)
                      and isinstance(node.slice.elts[-1], ast.Slice) and node.slice.elts[-1].lower is not None):
                    tail_slices.add(where)
    assert calls == {"optimize.minimize_profiles": 1}, calls
    assert readers == {"optimize._scan", "optimize._split"}, readers
    assert all("tails" in inspect.signature(getattr(optimize, name)).parameters for name in ("_scan", "_split"))
    assert tail_slices == {"optimize._tails", "optimize._dot"}, tail_slices


def test_numpy_forms_the_scans_dot_products_and_no_risk_sum_goes_through_blas():
    """``np.einsum`` appears only in ``optimize._dot``, with literal subscripts and no keyword (so no ``optimize=``):
    numpy's own sum-of-products loop forms the grid scan's dot products, with bits that depend on the row alone.
    ``dot``, ``vdot``, ``inner``, ``matmul``, ``vecdot``, ``tensordot`` and the ``@`` operator, whose bits depend on
    the BLAS build, its kernel dispatch and its threads, appear only where a scenario's eigenbasis is made and
    checked: ``scenarios._setting_b``'s projection and ``spectral``'s orthogonality checks."""
    einsums, blas = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                called = ast.unparse(node.func).split(".")[-1] if isinstance(node, ast.Call) else None
                if called == "einsum":
                    einsums.append((where, node))
                elif (called in ("dot", "vdot", "inner", "matmul", "vecdot", "tensordot")
                      or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)):
                    blas.add(where)
    assert {where for where, _ in einsums} == {"optimize._dot"}, einsums
    for _, call in einsums:
        subscripts = call.args[0] if call.args else None
        assert isinstance(subscripts, ast.Constant) and isinstance(subscripts.value, str), ast.unparse(call)
        assert not call.keywords, ast.unparse(call)
    assert blas == {"scenarios._setting_b", "spectral.KernelSpectrum", "spectral.eigendecompose_kernels"}, blas


def test_no_module_draws_from_a_numpy_stream():
    """Every random setting draws from hashed Philox keys as one block, never from a per-replicate numpy stream.

    No package module names ``rng_for`` or ``_rademacher`` or calls a numpy ``SeedSequence``, ``Generator``,
    ``default_rng`` or ``RandomState``: the hash is the one seed derivation, and numpy's own streams are the test
    oracle in ``tests/reference.py``.  verify-bounds' fixed envelope sample is a literal table
    (``cli.ENVELOPE_SAMPLE``), not a stream.
    """
    streams = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                called = ast.unparse(node.func).split(".")[-1] if isinstance(node, ast.Call) else None
                if name in ("rng_for", "_rademacher") or called in ("SeedSequence", "Generator", "default_rng",
                                                                     "RandomState"):
                    streams.append((path.name, getattr(top, "name", "<module>"), name or called))
    assert streams == [], f"package code draws from a per-replicate numpy stream: {streams}"


def test_readme_library_example_runs(capsys):
    """The README's "Library example" runs as written: the public surface the guard above trusts stays real."""
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    exec(compile(code, "README.md (Library example)", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2  # rho, then one template cell


def test_readme_config_schema_runs(tmp_path):
    """The README's commented key = value schema, completed with the run keys, is a valid ``[experiment]`` config."""
    schema = re.search(r"```ini\n(.*?)```", README.read_text(), flags=re.S).group(1)
    assert ";" in schema and "[" not in schema  # the commented schema block, not the full example
    config = tmp_path / "experiment.ini"
    config.write_text(f"[experiment]\n{schema}sigma2 = 1.0\nn_rep = 2\nout_json = {tmp_path / 'report.json'}\n")
    assert main(["experiment", "--config", str(config)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["spec"]["kind"] == "setting_c"
