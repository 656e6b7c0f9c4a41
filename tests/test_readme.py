"""The README's Python API example runs as written on the quick-start panel, every
call its Python API section names exists, and its list of setting flags is the CLI's."""

import importlib
import pkgutil
import re
from functools import reduce
from pathlib import Path

import dprkit
from dprkit.cli import _SETTINGS, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _api_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    section = section.split("\n## ", 1)[0]
    modules = [dprkit] + [importlib.import_module(f"dprkit.{m.name}")
                          for m in pkgutil.iter_modules(dprkit.__path__)
                          if m.name != "__main__"]
    names = set(re.findall(r"`([A-Za-z_][\w.]*)\(", section))
    assert "regularization_path" in names
    missing = [name for name in sorted(names) if not any(
        callable(reduce(lambda node, part: getattr(node, part, None), name.split("."), module))
        for module in modules)]
    assert missing == []
