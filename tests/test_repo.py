"""Repository hygiene."""

import ast
import cmath
import importlib
import importlib.util
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_no_tracked_file_is_ignored():
    """Generated files listed in .gitignore must not also be committed."""
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    proc = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == ""


def _load(path: Path):
    """Import a benchmark module from its file without adding it to
    sys.modules or changing it."""
    spec = importlib.util.spec_from_file_location(f"_hook_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    """Every name the benchmark harness wraps, reads or selects exists, so a
    renamed or deleted hook fails here rather than in a benchmark run."""
    from deltasum import verify

    tracer = _load(ROOT / "perfbench" / "tracer.py")
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    for mod_name, fn_name, _ in tracer.TRACED:
        module = importlib.import_module(f"deltasum.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    for mod_name, fn_name in tracer.CACHES:
        module = importlib.import_module(f"deltasum.{mod_name}")
        assert hasattr(getattr(module, fn_name, None), "cache_info"), f"{mod_name}.{fn_name}"
    registry = {name for name, _ in verify.REGISTRY}
    selected = set(workloads.VERIFY_SKIP) | set(workloads.SIZES["tiny"]["verify_only"])
    assert selected <= registry, sorted(selected - registry)


# Row names are benchmark metric names (verify.<name>.s) and fix the CSV row
# order of verify-all.
_REGISTRY_NAMES = (
    "arith.divisor-identities",
    "arith.phi-star",
    "arith.factorize-roundtrip",
    "characters.enumeration",
    "characters.gauss-modulus",
    "characters.gauss-twist",
    "characters.orthogonality",
    "expsums.weil-sweep",
    "expsums.symmetry",
    "expsums.collapse-bitwise",
    "expsums.twisted-multiplicativity",
    "expsums.crt-flag",
    "expsums.ramanujan",
    "expsums.recombination",
    "modforms.deligne",
    "modforms.hecke",
    "modforms.eta-determinism",
    "modforms.level-coefficient",
    "kernels.delta-plain",
    "kernels.delta-lowered",
    "kernels.bessel",
    "kernels.weight-support",
    "kernels.double-integral",
    "kernels.double-integral-envelope",
    "kernels.truncation-ranges",
    "pipeline.shifted-identity",
    "pipeline.kloosterman-collapse",
    "pipeline.voronoi",
    "pipeline.voronoi-ramified",
    "pipeline.moment-identities",
    "pipeline.exponents",
    "pipeline.bound-monotonicity",
    "pipeline.moment-slope",
    "pipeline.shifted-ratio",
)


def test_registry_names_and_order():
    from deltasum import verify

    assert tuple(name for name, _ in verify.REGISTRY) == _REGISTRY_NAMES


def _trees():
    paths = sorted((ROOT / "src" / "deltasum").glob("*.py"))
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text()) for path in paths}


def _uses(trees, kinds):
    """identifier -> [(path, line)] for every node of the given kinds."""
    uses = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, kinds):
                ident = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(ident, []).append((path, node.lineno))
    return uses


def _benchmark_names(uses):
    """Add the function names in perfbench's TRACED and CACHES tables to
    uses: the tracer reaches those functions by name."""
    path = ROOT / "perfbench" / "tracer.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id in ("TRACED", "CACHES"):
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    uses.setdefault(const.value, []).append((path, const.lineno))


def _is_registration(node, defs) -> bool:
    """A function decorated by a decorator factory of its own module, such
    as verify's @_check or cli's @_command: the decorator adds it to a table
    that is read by name."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(deco, ast.Call) and isinstance(deco.func, ast.Name) and deco.func.id in defs
        for deco in node.decorator_list
    )


def _used_outside(uses, ident, path, node):
    return any(
        p != path or not node.lineno <= line <= node.end_lineno
        for p, line in uses.get(ident, ())
    )


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_public_name_and_method_is_reached():
    """Every name a module exports, every private top-level name of
    src/deltasum, every method or property of a class and every field of a
    dataclass in src/ is used somewhere in src/ or perfbench/ outside its
    own definition; a name that only tests call is code no pipeline reaches,
    and a field nothing reads is a value no pipeline uses.  A name in
    perfbench's TRACED or CACHES tables counts as used, and a registered
    function (@_check, @_command) is reached through its table.  Methods
    and fields match attributes only, never local variables or keyword
    arguments of the same name."""
    trees = _trees()
    names = _uses(trees, (ast.Name, ast.Attribute))
    _benchmark_names(names)
    attributes = _uses(trees, ast.Attribute)
    unreached = []
    for path, tree in trees.items():
        module = path.relative_to(ROOT).as_posix()
        defs = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defs[target.id] = node
        exported = defs.get("__all__")
        for ident in ast.literal_eval(exported.value) if exported else ():
            if not _used_outside(names, ident, path, defs[ident]):
                unreached.append(f"{module}: {ident}")
        if path.parent.name != "deltasum":
            continue
        for ident, node in defs.items():
            private = ident.startswith("_") and not ident.startswith("__")
            if private and not _is_registration(node, defs):
                if not _used_outside(names, ident, path, node):
                    unreached.append(f"{module}: {ident}")
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            has_fields = _is_dataclass(cls)
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                    if name.startswith("__") and name.endswith("__"):
                        continue
                elif has_fields and isinstance(node, ast.AnnAssign):
                    name = node.target.id
                else:
                    continue
                if not _used_outside(attributes, name, path, node):
                    unreached.append(f"{module}: {cls.name}.{name}")
    assert not unreached, unreached


def _src_callers(name: str, skip: tuple[str, ...] = ()) -> set[tuple[str, str | None]]:
    """(file, top-level definition) for every call of name in src/deltasum,
    leaving out the files named in skip."""
    callers = set()
    for path in sorted((ROOT / "src" / "deltasum").glob("*.py")):
        if path.name in skip:
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    ident = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if ident == name:
                        callers.add((path.name, getattr(top, "name", None)))
    return callers


def test_one_q_loop_for_the_delta_weight():
    """delta_weight_array is called in src/ only by kernels._weight_columns,
    the q-loop every decomposition and the shifted sum walk, and by
    kernels.double_bessel_integral on its quadrature mesh; verify.py's
    checks call it as oracles."""
    allowed = {("kernels.py", "_weight_columns"), ("kernels.py", "double_bessel_integral")}
    callers = _src_callers("delta_weight_array", skip=("verify.py",))
    assert callers <= allowed, sorted(callers - allowed, key=str)


def test_every_integral_takes_the_trapezoid_rule():
    """In src/, kernels._sqrt_trapezoid_rule is called by exactly the
    package's three integrals: pipeline._dual_integrals, SmoothBump's
    normalization and double_bessel_integral; and no file in src/ names a
    Gauss rule, so no integral drifts off the one rule."""
    assert _src_callers("_sqrt_trapezoid_rule") == {
        ("pipeline.py", "_dual_integrals"),
        ("kernels.py", "SmoothBump"),
        ("kernels.py", "double_bessel_integral"),
    }
    for path in sorted((ROOT / "src" / "deltasum").glob("*.py")):
        text = path.read_text()
        assert "leggauss" not in text and "_sqrt_gauss_rule" not in text, path.name


def test_only_the_scheme_calibrates_itself():
    """calibrate is called in src/ only by DeltaScheme.__post_init__, so no
    scheme exists uncalibrated and every calibration passes through the
    benchmark's kernels.calibrate span."""
    callers = set()
    for path in sorted((ROOT / "src" / "deltasum").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            # a class is searched member by member, a method named Class.method
            for node in top.body if isinstance(top, ast.ClassDef) else [top]:
                funcs = (n.func for n in ast.walk(node) if isinstance(n, ast.Call))
                idents = {getattr(f, "id", None) or getattr(f, "attr", None) for f in funcs}
                if "calibrate" in idents:
                    name = getattr(node, "name", None)
                    callers.add((path.name, name if node is top else f"{top.name}.{name}"))
    assert callers == {("kernels.py", "DeltaScheme.__post_init__")}, sorted(callers, key=str)


def test_one_table_of_units_and_of_roots():
    """The units mod c and their inverses are tabulated only by
    _backend._units, and e(k/N) only by characters._root_table, a
    read-only complex128 array of cmath.exp's values that its readers
    index as it is; kernels' names for them, which the benchmark reads,
    are the same cached functions."""
    from deltasum import _backend, characters, kernels

    assert kernels._coprime_residues is _backend._units
    assert kernels._unit_roots is characters._root_table
    for n in (1, 2, 7, 12, 360, 1452):
        roots = characters._root_table(n)
        assert roots.dtype == np.complex128 and not roots.flags.writeable, n
        exact = [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
        assert [repr(z) for z in roots.tolist()] == [repr(z) for z in exact], n
    for path in sorted((ROOT / "src" / "deltasum").glob("*.py")):
        assert "np.array(_root_table(" not in path.read_text(), path.name


def test_crt_flag_check_takes_the_crt_path():
    """verify.check_crt_flag calls expsums.kloosterman(..., use_crt=True):
    it is the only caller of that path, and the benchmark's verify-all
    selftest needs expsums.kloosterman.crt_calls to be nonzero."""
    tree = ast.parse((ROOT / "src" / "deltasum" / "verify.py").read_text())
    check = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "check_crt_flag"
    )
    calls = [
        node for node in ast.walk(check)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "kloosterman"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "expsums"
    ]
    assert any(
        kw.arg == "use_crt" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for call in calls
        for kw in call.keywords
    )


def test_verify_keeps_no_running_maximum():
    """No assignment in verify.py reads name = max(name, ...).  Python's max
    keeps its first argument unless a later one compares greater, and no
    comparison with NaN is true, so such a running maximum drops a NaN;
    the rows take np.max of their values instead."""
    tree = ast.parse((ROOT / "src" / "deltasum" / "verify.py").read_text())
    running = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "max"
        and {t.id for t in node.targets if isinstance(t, ast.Name)}
        & {a.id for a in node.value.args if isinstance(a, ast.Name)}
    ]
    assert not running, running
