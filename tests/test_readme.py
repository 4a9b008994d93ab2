import importlib
import re
from pathlib import Path

import diracboost as db
from diracboost import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_names_only_exported_api():
    used = set(re.findall(r"\bdb\.(\w+)", README))
    assert used and used <= set(db.__all__), sorted(used - set(db.__all__))
    for name in db.__all__:
        assert getattr(db, name) is not None
        assert re.search(rf"\b{name}\b", README), f"README does not name {name}"


def test_flag_table_lists_every_sweep_key():
    flags = re.findall(r"^\| `--([\w-]+)` \|", README, flags=re.M)
    assert sorted(flags) == sorted([*cli._KEYS, "config"])


def test_readme_helpers_exist_in_their_modules():
    helpers = re.findall(r"^- `(\w+)` in `(diracboost\.\w+)`$", README, flags=re.M)
    assert helpers
    for name, module in helpers:
        assert hasattr(importlib.import_module(module), name), f"{module} has no {name}"
