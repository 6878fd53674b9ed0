"""The README's examples run as written."""

import json
import re
from pathlib import Path

from laggcd.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(lang):
    return re.findall(r"^```%s\n(.*?)^```" % lang, README, re.M | re.S)


def test_library_example_runs(capsys):
    (code,) = fenced("python")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("2 ")  # the GCD degree


def test_problem_file_example_runs(capsys, tmp_path):
    (doc,) = [block for block in fenced("json") if '"px"' in block]
    path = tmp_path / "problem.json"
    path.write_text(doc)
    assert main(["agcd", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigmas"] == {"cluster": 0.5, "edge": 0.5, "cert": 0.5}
