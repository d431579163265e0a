import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "halfext"
CEILING = 22
LINE_CEILING = 2096     # non-blank, non-comment lines of src/halfext/*.py


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def settable_options() -> list:
    """Parameters with a default, and defaulted public dataclass fields."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                named = positional[len(positional) - len(a.defaults):]
                named += [k for k, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
                found += [f"{path.stem}.{node.name}({x.arg})" for x in named]
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [f"{path.stem}.{node.name}.{st.target.id}"
                          for st in node.body
                          if isinstance(st, ast.AnnAssign)
                          and st.value is not None
                          and not st.target.id.startswith("_")]
    return found


def test_settable_options_ceiling():
    options = settable_options()
    assert len(options) <= CEILING, (
        f"{len(options)} settable options in src/halfext, ceiling {CEILING}. "
        "A new option needs two callers outside the tests that set it, "
        "recorded in CHANGES.md; otherwise make it a constant.\n"
        + "\n".join(options))


def test_source_lines_ceiling():
    lines = sum(1 for path in SRC.glob("*.py")
                for line in path.read_text().splitlines()
                if line.strip() and not line.strip().startswith("#"))
    assert lines <= LINE_CEILING, (
        f"{lines} non-blank, non-comment lines in src/halfext, ceiling "
        f"{LINE_CEILING}. Raising the ceiling needs a CHANGES.md entry that "
        "says what the lines buy.")


def unused_imports(path: pathlib.Path) -> list:
    """Names a module imports and never references, except ``__future__``
    imports and imports marked ``# noqa: F401``."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__" \
                or any("# noqa: F401" in line for line in
                       lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return unused


def test_no_unused_imports():
    paths = [path for pattern in ("src/halfext/*.py", "tests/*.py",
                                  "scripts/*.py", "bench/*.py")
             for path in sorted(ROOT.glob(pattern))
             if path.name != "__init__.py"]
    unused = [entry for path in paths for entry in unused_imports(path)]
    assert not unused, "imported names never referenced:\n" + "\n".join(unused)


def test_exports_have_callers():
    # every name halfext exports is referenced outside the tests
    init = SRC / "__init__.py"
    exported = {alias.asname or alias.name
                for node in ast.walk(ast.parse(init.read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    paths = [path for pattern in ("src/halfext/*.py", "scripts/**/*.py",
                                  "bench/**/*.py")
             for path in sorted(ROOT.glob(pattern)) if path != init]
    referenced = {getattr(node, "id", None) or node.attr
                  for path in paths
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, (ast.Name, ast.Attribute))}
    unused = sorted(exported - referenced)
    assert not unused, ("exported but called only by the tests; delete them "
                        "or name a planned caller:\n" + "\n".join(unused))


def test_import_loads_no_heavy_scipy():
    # the library runs on numpy alone: importing it and its CLI loads no
    # scipy module, and no module of src/halfext imports scipy, even lazily
    code = ("import sys; import halfext, halfext.cli; print(' '.join("
            "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
    imported = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [f"{path.name}:{node.lineno}" for a in node.names
                             if a.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "scipy":
                imported.append(f"{path.name}:{node.lineno}")
    assert imported == []
