"""Repository hygiene."""

import importlib
import importlib.util
import shutil
import subprocess
from pathlib import Path

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
