"""README.md names only what exists.

Every backticked dotted name in README.md, optionally followed by an argument
list (`distfn.f_star`, `interval.exp_sum(s, x_lo, x_hi, acc)`,
`khintchine.jet.Jet`), must resolve: its head is a module of the package
(``khintchine.<head>`` or ``khintchine.verifier.<head>``), an importable
top-level module, or a class of the package (`Jet.var(X)`), and every later
part is an attribute.  Spans that hold an expression (`s.hi <= 0`) or a
file path (`verifier/result.py`) are not names and are skipped by the
pattern.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import khintchine
import khintchine.verifier

README = Path(__file__).resolve().parents[1] / "README.md"
_MISSING = object()

_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")


def _package_modules():
    mods = {"khintchine": khintchine}
    for pkg in (khintchine, khintchine.verifier):
        for info in pkgutil.iter_modules(pkg.__path__):
            mods[info.name] = importlib.import_module(f"{pkg.__name__}.{info.name}")
    return mods


def _head(name, mods):
    if name in mods:
        return mods[name]
    classes = {getattr(m, name) for m in mods.values()
               if inspect.isclass(getattr(m, name, None))}
    if classes:
        (cls,) = classes
        return cls
    try:
        return importlib.import_module(name)
    except ImportError:
        return _MISSING


def test_readme_dotted_names_exist():
    mods = _package_modules()
    names = _NAME.findall(README.read_text(encoding="utf-8"))
    assert len(names) >= 25  # the pattern still finds the README's references
    missing = []
    for dotted in names:
        head, *rest = dotted.split(".")
        obj = _head(head, mods)
        for part in rest:
            obj = getattr(obj, part, _MISSING)
        if obj is _MISSING:
            missing.append(dotted)
    assert not missing, missing
