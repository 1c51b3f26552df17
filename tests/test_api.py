"""The documented library API: README's "Library use" section and the package root."""

import contextlib
import io
import pathlib
import re
import types

import polycascade

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCUMENTED = {"CascadeConfig", "TrackerConfig", "CascadeOutput", "PathResult",
              "run_cascade", "solve_total_degree", "verify_witness", "embed",
              "load_system", "parse_system", "__version__"}


def test_readme_library_use(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    assert all(f"`{name}`" in section for name in DOCUMENTED)
    # the section's example runs as written, from the repository root
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "systems/cyclic4.sys" in example and "seed=2" in example
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(example, {})
    top, *points = out.getvalue().splitlines()
    assert top == "1" and points  # cyclic-4's curves: witness points at dimension 1
    public = {name for name, value in vars(polycascade).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public | {"__version__"} == DOCUMENTED
