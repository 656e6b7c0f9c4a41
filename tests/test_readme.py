"""The README's Python API example runs as written on the quick-start panel, every
call its Python API section names exists, the package exports exactly the names that
section documents, and its list of setting flags is the CLI's."""

import importlib
import pkgutil
import re
from functools import reduce
from pathlib import Path

import dprkit
from dprkit.cli import _SETTINGS, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _api_section() -> str:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return section.split("\n## ", 1)[0]


def _api_example() -> str:
    return re.search(r"```python\n(.*?)```", _api_section(), re.S).group(1)


def _modules() -> list:
    return [importlib.import_module(f"dprkit.{m.name}")
            for m in pkgutil.iter_modules(dprkit.__path__) if m.name != "__main__"]


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_readme_api_example_writes_the_cli_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--output", "panel.csv", "--seed", "42", "--spec",
                 "n_entities=20,n_periods=12,n_features=8,n_clusters=4"]) == 0
    exec(compile(_api_example(), str(README), "exec"), {})
    assert main(["run", "--input", "panel.csv", "--output-dir", "cli_out", "--eps", "0.05",
                 "--min-pts", "4", "--train-periods", "2000-2008",
                 "--test-periods", "2009-2011"]) == 0
    printed = capsys.readouterr().out.splitlines()[-2]  # the example's print, before `run ok`
    assert len(printed.split()) == 3
    assert _files(tmp_path / "api_out") == _files(tmp_path / "cli_out")


def test_readme_lists_every_setting_flag_of_the_subcommands():
    # run is the one subcommand with settings: each is a flag and a config key
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"Every setting of `run` is both a flag and a key of its config "
                       r"file \((.*?)\):", text).group(1)
    flags = {"--" + key.replace("_", "-") for key in _SETTINGS}
    assert sorted(re.findall(r"`(--[a-z-]+)`", listed)) == sorted(flags)


def test_readme_api_section_names_only_callables_the_package_has():
    # a `name(` or `module.name(` call in the Python API section must resolve
    # in dprkit or in one of its modules, so a deleted function cannot stay
    # documented
    section = _api_section()
    modules = [dprkit] + _modules()
    names = set(re.findall(r"`([A-Za-z_][\w.]*)\(", section))
    assert "regularization_path" in names
    missing = [name for name in sorted(names) if not any(
        callable(reduce(lambda node, part: getattr(node, part, None), name.split("."), module))
        for module in modules)]
    assert missing == []


def _documented_names() -> set:
    # a function or class of some dprkit module that the section writes in backticks,
    # bare or called (`name`, `name(...)`, `name[...]`; `module.name` and `.field` are
    # not the name), or that its example imports from dprkit
    section = _api_section()
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    written = {m.group(1) for span in re.findall(r"`([^`]+)`", prose)
               if (m := re.match(r"([A-Za-z_]\w*)(?![\w.])", span))}
    for block in re.findall(r"from dprkit import ([^\n]+)", section):
        written |= {name.strip() for name in block.split(",")}
    defined = {name for module in _modules() for name, obj in vars(module).items()
               if not name.startswith("_")
               and (getattr(obj, "__module__", None) or "").startswith("dprkit")}
    return written & defined


def test_the_exports_are_the_names_the_readme_api_section_documents():
    documented = _documented_names()
    exported = set(dprkit.__all__)
    assert len(dprkit.__all__) == len(exported)
    undocumented, unexported = sorted(exported - documented), sorted(documented - exported)
    assert not undocumented, f"exported but not documented: {undocumented}"
    assert not unexported, f"documented but not exported: {unexported}"
    assert [name for name in dprkit.__all__ if not hasattr(dprkit, name)] == []
