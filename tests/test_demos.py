"""The narrative scripts under demos/ run to completion."""

import pathlib
import runpy

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_run(capsys):
    assert DEMOS
    for path in DEMOS:
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out.strip(), f"{path.name} printed nothing"
